"""Child-process entry points of the benchmark.

    python3 child.py cli <spans.json> <op> -- <gkpphase arguments>
        Import gkpphase.cli, install the layer wrappers, run cli.dispatch
        inside a span and write the spans to <spans.json> on the way out.
        Pool workers that this process starts are not traced.

    python3 child.py setup <workload>
        One set-up sample of an in-process workload (import plus warm-up),
        printed as JSON.

gkpphase is found through PYTHONPATH, which the parent sets to the
checkout's src directory.
"""

from __future__ import annotations

import json
import sys
import time

import spans
import workloads


def traced_cli(span_file: str, op: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    from gkpphase import cli

    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.op = op
    spans.install_layer_wrappers(tracer)
    rc = 1
    try:
        rc = tracer.call("cli.dispatch", cli.dispatch, argv)
    finally:
        tracer.dump(span_file, import_s=import_s, op=op, argv=argv, exit_code=rc)
    return rc


def setup_sample(name: str) -> int:
    seconds, _import_s, problems = workloads.in_process_setup(workloads.WORKLOADS[name]())
    print(json.dumps({"setup_s": seconds, "problems": problems}))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"] and len(argv) >= 4 and argv[3] == "--":
        return traced_cli(argv[1], argv[2], argv[4:])
    if argv[:1] == ["setup"] and len(argv) == 2:
        return setup_sample(argv[1])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
