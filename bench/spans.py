"""Spans around the program's layer boundaries, installed from outside.

Each wrapper replaces a function where its caller looks the name up (a
module global or a class attribute), so the program's files stay as they
are.  A span records its name, start, end, parent span and op; spans live
in flat arrays in memory and are written once, when the run ends.  A
span's self time is its duration minus the time covered by its children,
so the self times of one op add up to at most its wall time.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus its children's, in nanoseconds."""
    dur = end - start
    out = dur.copy()
    has_parent = parent >= 0
    np.subtract.at(out, parent[has_parent], dur[has_parent])
    return out


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self.current_op = -1
        # per-op counts that are not span counts: (op, counter) -> value
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[(self.current_op, key)] += value

    def count_max(self, key: str, value: float) -> None:
        k = (self.current_op, key)
        self.counts[k] = max(self.counts[k], value)

    # ------------------------------------------------------------------
    # installing wrappers

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owners, attr: str, span: str, counter=None) -> None:
        """Replace ``owner.attr`` in every owner with one spanned wrapper.

        ``counter(tracer, args, result)`` runs after the call, outside the span.
        """
        fn = owners[0].__dict__[attr]
        nid = self.name_id(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                counter(tracer, args, out)
            return out

        for owner in owners:
            self._patch(owner, attr, wrapper)

    def wrap_chain(self, cls, attr: str, deriv_parent: str, plain: str, under_deriv: str) -> None:
        """Like :meth:`wrap`, naming the span by whether a derivative call caused it."""
        fn = cls.__dict__[attr]
        plain_id, deriv_id = self.name_id(plain), self.name_id(under_deriv)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = deriv_id if tracer.parent_name() == deriv_parent else plain_id
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        self._patch(cls, attr, wrapper)

    def tally(self, cls, attr: str, key: str, size) -> None:
        """Count ``size(self_obj)`` per call of a method, without a span."""
        fn = cls.__dict__[attr]
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            tracer.count(key, size(obj))
            return fn(obj, *args, **kwargs)

        self._patch(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # summaries

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per op: ``<span>.n`` calls and ``<span>.self_ns``, plus the counters."""
        selfs = self_times(*(np.frombuffer(a, dtype=np.int64)
                             for a in (self.start, self.end, self.parent)))
        ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx in range(len(self.name)):
            row = ops[self.op[idx]]
            span = self.names[self.name[idx]]
            row[span + ".n"] += 1
            row[span + ".self_ns"] += float(selfs[idx])
        for (op, key), value in self.counts.items():
            ops[op][key] += value
        return ops

    def write(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


# ----------------------------------------------------------------------
# the program's layers


LAYERS = ("generator", "kronecker", "correlators", "pricing", "hermite", "benchmarks",
          "montecarlo", "cli")


def install_layers(tracer: Tracer) -> None:
    """Wrap the public calls of every layer where their callers look them up."""
    from asianhermite import (
        benchmarks as B, cli as CLI, correlators as C, generator as G, hermite as H,
        kronecker as K, montecarlo as M, pricing as P,
    )

    def expm_work(tr, args, out):
        tr.count("expm_work", float(out.shape[0]) ** 3)

    def selector_size(tr, args, out):
        tr.count_max("expanded_max", float(out.expanded_size))

    def terms(tr, args, out):
        tr.count("multinomial_terms", len(out))

    def path_steps(tr, args, out):
        # _simulate(spec, t, y_t, times, paths, scheme, refine, rng)
        _, _, _, times, paths, scheme, refine, _ = args
        tr.count("path_steps", paths * len(times) * (1 if scheme == "exact-ou" else refine))

    w = tracer.wrap
    w([G], "levy_moments", "generator.levy")
    w([G, C], "generator_matrix", "generator.build")
    w([G, C], "matrix_exponential", "generator.expm", expm_work)
    w([P], "moment_vector", "generator.moments")
    w([C], "mth_selectors", "kronecker.selector", selector_size)
    tracer.tally(K.MthSelector, "apply_e", "gather_elems", lambda s: s.e_idx.size)
    tracer.tally(K.MthSelector, "apply_d", "gather_elems", lambda s: s.d_idx.size)
    w([C.CorrelatorEngine], "correlator", "correlators.query")
    w([C.CorrelatorEngine], "derivative_state", "correlators.deriv")
    w([C.CorrelatorEngine], "derivative_time", "correlators.deriv")
    tracer.wrap_chain(C.CorrelatorEngine, "_chain", "correlators.deriv",
                      "correlators.chain", "correlators.deriv_chain")
    for name in ("asian_price", "european_price", "delta", "theta"):
        w([P, CLI], name, "pricing.price")
    for name in ("default_drift", "average_std"):
        w([P, CLI], name, "pricing.law")
    w([P], "multinomial_expand", "pricing.multinomial", terms)
    w([P], "_series_partial_sums", "pricing.assembly")
    w([P], "_build_report", "pricing.stopping")
    w([P], "change_of_basis", "hermite.basis")
    w([P, CLI], "payoff_coefficients", "hermite.payoff")
    w([CLI], "payoff_series_eval", "hermite.table")
    w([CLI], "payoff_l2_error", "hermite.table")
    w([H, B], "std_normal", "benchmarks.normal")
    for name in ("ou_asian_law", "gaussian_call", "accuracy_gamma", "scale_floor"):
        w([CLI, B], name, "benchmarks." + name)
    w([M], "mc_price", "montecarlo.price")
    w([M], "_simulate", "montecarlo.batch", path_steps)
    w([CLI], "main", "cli.main")


def layer_metrics(row: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one op from its span and counter totals."""
    def n(span):
        return row.get(span + ".n", 0.0)

    def ms(*spans):
        return sum(row.get(s + ".self_ns", 0.0) for s in spans) / 1e6

    def layer_ms(layer):
        return sum(v for k, v in row.items()
                   if k.startswith(layer + ".") and k.endswith(".self_ns")) / 1e6

    queries = n("correlators.query")
    batch_s = ms("montecarlo.batch") / 1e3
    out = {
        "generator.levy_calls": n("generator.levy"),
        "generator.levy_ms": ms("generator.levy"),
        "generator.build_ms": ms("generator.build"),
        "generator.expm_calls": n("generator.expm"),
        "generator.expm_ms": ms("generator.expm"),
        "generator.expm_work": row.get("expm_work", 0.0),
        "kronecker.selector_calls": n("kronecker.selector"),
        "kronecker.selector_ms": ms("kronecker.selector"),
        "kronecker.gather_elems": row.get("gather_elems", 0.0),
        "kronecker.expanded_max": row.get("expanded_max", 0.0),
        "correlators.chains": n("correlators.chain"),
        "correlators.chain_ms": ms("correlators.chain"),
        "correlators.deriv_calls": n("correlators.deriv"),
        "correlators.deriv_ms": ms("correlators.deriv", "correlators.deriv_chain"),
        "correlators.queries": queries,
        "correlators.reuse_ratio": 1.0 - n("correlators.chain") / queries if queries else 0.0,
        "correlators.lookup_ms": ms("correlators.query"),
        "pricing.moments_ms": ms("pricing.price"),
        "pricing.multinomial_terms": row.get("multinomial_terms", 0.0),
        "pricing.multinomial_ms": ms("pricing.multinomial"),
        "pricing.assembly_ms": ms("pricing.assembly"),
        "pricing.stopping_ms": ms("pricing.stopping"),
        "pricing.law_ms": ms("pricing.law"),
        "hermite.basis_ms": ms("hermite.basis"),
        "hermite.payoff_ms": ms("hermite.payoff"),
        "hermite.table_ms": ms("hermite.table"),
        "montecarlo.batches": n("montecarlo.batch"),
        "montecarlo.batch_ms": ms("montecarlo.batch"),
        "montecarlo.path_steps_per_s": row.get("path_steps", 0.0) / batch_s if batch_s else 0.0,
        "cli.self_ms": ms("cli.main"),
    }
    for layer in LAYERS[:-1]:
        out[layer + ".self_ms"] = layer_ms(layer)
    out["bench.self_ms"] = ms("bench.op")
    # the op's span holds every other span, so all self times add up to its wall time
    out["trace.op_ms"] = sum(v for k, v in row.items() if k.endswith(".self_ns")) / 1e6
    return out


def breakdown(path: str, op: int) -> None:
    """Print one op of a written trace by its top-level calls, with self time per layer."""
    data = np.load(path)
    names, name, parent = data["names"], data["name"], data["parent"]
    dur = data["end_ns"] - data["start_ns"]
    selfs = self_times(data["start_ns"], data["end_ns"], parent)
    (root,) = np.flatnonzero((data["op"] == op) & (parent < 0))
    # top-level call of every span under the root
    top = np.full(name.size, -1)
    for idx in range(root + 1, name.size):
        if data["op"][idx] != op:
            break
        top[idx] = idx if parent[idx] == root else top[parent[idx]]
    print(f"op {op}: {dur[root] / 1e6:.1f} ms")
    for call in np.flatnonzero(parent == root):
        layers: dict[str, float] = defaultdict(float)
        for idx in np.flatnonzero(top == call):
            layers[str(names[name[idx]])] += selfs[idx] / 1e6
        detail = ", ".join(f"{k} {v:.1f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])[:4])
        print(f"  {names[name[call]]:<22} {dur[call] / 1e6:9.1f} ms   {detail}")


if __name__ == "__main__":
    import sys

    breakdown(sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 0)
