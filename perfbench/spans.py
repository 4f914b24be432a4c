"""Span tracing around the public calls into each gkpphase layer.

The wrappers live here, in the benchmark, so the package itself is
untouched: `install_layer_wrappers` replaces module and class attributes
with timing shims and `Tracer.uninstall` puts the originals back.  Spans are
kept in memory as (name, start, end, parent, attrs) and written out once,
when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import os
import time

# Layer boundaries: (module, owner attribute path, span name).  Module-level
# functions are reached through their module attribute, methods through
# their class, so calls made as `fock.gkp_codeword(...)` or
# `engine.pauli_expectations(...)` inside the package pass through a shim.
LAYER_CALLS = (
    ("fock", "q_eigensystem", "fock.q_eigensystem"),
    ("fock", "gkp_codeword", "fock.gkp_codeword"),
    ("fock", "orthonormalize", "fock.orthonormalize"),
    ("fock", "pauli_profiles", "fock.pauli_profiles"),
    ("fock", "phase_profile", "fock.phase_profile"),
    ("channel", "ChannelEngine.__init__", "channel.engine_build"),
    ("channel", "ChannelEngine.pauli_expectations", "channel.pauli_expectations"),
    ("channel", "sweep", "channel.sweep"),
    ("channel", "vacuum_state_method", "channel.vacuum"),
    ("channel", "vacuum_match_fraction", "channel.vacuum"),
    ("analytic", "vacuum_posterior_grid", "analytic.vacuum_posterior_grid"),
    ("opcache", "OperatorCache.get", "opcache.get"),
    ("opcache", "OperatorCache.put", "opcache.put"),
    ("polyalg", "reduce", "polyalg.reduce"),
    ("polyalg", "lift_representation", "polyalg.lift_representation"),
    ("polyalg", "verify_gate", "polyalg.verify_gate"),
    ("polyalg", "multivariate_reduce", "polyalg.multivariate_reduce"),
)

# Eigensolves inside fock.q_eigensystem; a q_eigensystem span holding one is
# a cache miss.
EIGENSOLVER = "scipy.eigh_tridiagonal"


def _sweep_attrs(args, kwargs, out):
    return {"points": len(out.rows) + len(out.failures), "failed": len(out.failures)}


def _reduce_attrs(args, kwargs, out):
    log = out.branch_log
    return {"branch_steps": len(log), "boundary_forks": sum(1 for s in log if s.boundary)}


def _get_attrs(args, kwargs, out):
    return {"hits": out is not None, "bytes": 0 if out is None else int(out.nbytes)}


def _put_attrs(args, kwargs, out):
    array = args[3] if len(args) > 3 else kwargs["array"]
    return {"bytes": int(array.nbytes)}


ATTRS = {
    "channel.sweep": _sweep_attrs,
    "polyalg.reduce": _reduce_attrs,
    "opcache.get": _get_attrs,
    "opcache.put": _put_attrs,
}


class Tracer:
    """Records nested spans of wrapped calls in one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        attrs_of = ATTRS.get(name)

        @functools.wraps(orig)
        def shim(*args, **kwargs):
            return self._run(name, orig, attrs_of, args, kwargs)

        setattr(owner, attr, shim)
        self._patches.append((owner, attr, orig))

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own (for entry points such as cli.dispatch)."""
        return self._run(name, fn, None, args, kwargs)

    def _run(self, name, fn, attrs_of, args, kwargs):
        stack = self._stack
        span = [name, time.perf_counter(), None, stack[-1] if stack else None, {"op": self.op}]
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
            if attrs_of is not None:
                span[4].update(attrs_of(args, kwargs, out))
            return out
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def dump(self, path, **extra) -> None:
        record = {"pid": os.getpid(), "spans": self.spans, "missing": self.missing, **extra}
        with open(path, "w") as fh:
            json.dump(record, fh)


def install_layer_wrappers(tracer: Tracer) -> None:
    import importlib

    import scipy.linalg

    for module, path, name in LAYER_CALLS:
        owner = importlib.import_module(f"gkpphase.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None:
            tracer.missing.append(name)
            continue
        tracer.wrap(owner, attr, name)
    tracer.wrap(scipy.linalg, "eigh_tridiagonal", EIGENSOLVER)


def layer_totals(processes: list[dict], op: str | None = None) -> dict[str, dict]:
    """Per span name: calls, busy time (outermost spans), self time, counters.

    `processes` holds one record per traced process, as written by
    `Tracer.dump`; span parents index into that process's own list.  With
    `op`, only spans recorded during that operation count.
    """
    out: dict[str, dict] = {}

    def row(name):
        return out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    for proc in processes:
        spans = proc["spans"]
        child_time = [0.0] * len(spans)
        for _name, start, end, parent, _attrs in spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            if op is not None and attrs["op"] != op:
                continue
            r = row(name)
            r["calls"] += 1
            r["self_s"] += (end - start) - child_time[i]
            if _ancestor(spans, parent, name) is None:
                r["busy_s"] += end - start
            for key, val in attrs.items():
                if key != "op":
                    r[key] = r.get(key, 0) + int(val)
            if name == EIGENSOLVER and _ancestor(spans, parent, "fock.q_eigensystem") is not None:
                q = row("fock.q_eigensystem")
                q["misses"] = q.get("misses", 0) + 1
    return out


def _ancestor(spans, idx, name):
    while idx is not None:
        if spans[idx][0] == name:
            return idx
        idx = spans[idx][3]
    return None
