"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public names at each fllab module boundary
with timing and counting wrappers: the module attribute itself and every
other fllab module that imported the same object, so calls made inside the
package are seen too.  Wrappers only record while the tracer is armed, which
the benchmark does around the call under test and nowhere else.

A span is one call of a wrapped function.  Spans nest on a stack, so each
span's self time (its duration minus the durations of the spans it caused)
can be charged to its layer.  Spans are aggregated per function as they end
rather than kept one by one: a deep run makes millions of them.

Scalar arithmetic (``PAdicScalar`` / ``QuadScalar`` operators) is counted,
not timed, and the first operand pairs of each kind of multiplication are
kept so that their throughput can be measured on the workload's own values.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (layer = fllab module, qualified name, short name used in metric names).
# Spans with no metric of their own still mark where a layer's self time ends.
SPANS = (
    ("linalg", "hnf_basis", "hnf_basis"),
    ("linalg", "hermitian_split", "hermitian_split"),
    ("linalg", "val_det", "val_det"),
    ("linalg", "inverse", "inverse"),
    ("linalg", "solve_linear", "solve_linear"),
    ("linalg", "charpoly", "charpoly"),
    ("geometry", "invariants_of", "invariants_of"),
    ("geometry", "is_rss", "is_rss"),
    ("geometry", "u_representative", "u_representative"),
    ("geometry", "gl_representative", "gl_representative"),
    ("geometry", "transfer_sign", "transfer_sign"),
    ("lattice", "module_closure", "closure"),
    ("lattice", "largest_stable_sublattice", "stable_core"),
    ("lattice", "enumerate_stable_between", "walk"),
    ("lattice", "enumerate_selfdual_stable", "selfdual"),
    ("lattice", "quotient_reps", "quotient_reps"),
    ("lattice", "enumerate_all_between", "box"),
    ("lattice", "Lattice.from_generators", "from_generators"),
    ("orbital", "fl_compare", "fl_compare"),
    ("orbital", "orbital_u_unit", "u"),
    ("orbital", "orbital_gl_unit", "gl"),
    ("orbital", "lemma1_check", "lemma1"),
    ("orbital", "orbital_oracle", "oracle"),
    ("weil", "partial_fourier", "partial_fourier"),
    ("weil", "FiniteLevelFunction.pointwise_psi", "pointwise_psi"),
    ("weil", "weil_apply", "weil_apply"),
)

SCALAR_CLASSES = ("PAdicScalar", "QuadScalar")
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__neg__", "__truediv__", "__rtruediv__", "inv")
OPERAND_SAMPLES = 256


class SpanStats:
    __slots__ = ("calls", "incl_s", "depth", "items", "extra")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0  # outermost calls only, so recursion is not counted twice
        self.depth = 0
        self.items = 0  # function-specific work count (lattices, vectors, entries, ...)
        self.extra = 0  # second work count where one is needed


class Tracer:
    def __init__(self):
        self.armed = False
        self.spans = defaultdict(SpanStats)  # short name -> stats
        self.layer_self_s = defaultdict(float)
        self.scalar_ops = 0
        self.operands = {"exact": [], "trunc": [], "quad": []}
        self.selfdual_candidates = 0
        self.absent = []  # metric-name prefixes whose function no longer exists
        self._stack = []  # [name, child seconds] per open span
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self):
        for layer, qualname, short in SPANS:
            mod = importlib.import_module(f"fllab.{layer}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(attr)
                if raw is None:
                    self.absent.append(f"{layer}.{short}.")
                    continue
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._span(layer, short, fn)
                self._set(cls, attr, staticmethod(wrapped) if is_static else wrapped)
                continue
            fn = getattr(mod, qualname, None)
            if fn is None:
                self.absent.append(f"{layer}.{short}.")
                continue
            wrapped = self._span(layer, short, fn)
            for name, other in list(sys.modules.items()):
                if (name == "fllab" or name.startswith("fllab.")) and other is not None:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, attr, wrapped)
        padic = importlib.import_module("fllab.padic")
        for cls_name in SCALAR_CLASSES:
            cls = getattr(padic, cls_name, None)
            if cls is None:
                self.absent.append("padic.")
                continue
            for op in SCALAR_OPS:
                fn = cls.__dict__.get(op)
                if fn is not None:
                    self._set(cls, op, self._counter(op, fn))

    def uninstall(self):
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    # -- wrappers --------------------------------------------------------------

    def _span(self, layer, short, fn):
        st = self.spans[short]
        stack = self._stack
        layer_self = self.layer_self_s
        hook = _HOOKS.get(short)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.armed:
                return fn(*args, **kwargs)
            st.calls += 1
            st.depth += 1
            frame = [short, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st.depth -= 1
                if st.depth == 0:
                    st.incl_s += dt
                layer_self[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(tracer, st, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, op, fn):
        tracer = self
        sample = op == "__mul__"

        def wrapper(a, *rest):
            if tracer.armed:
                tracer.scalar_ops += 1
                if sample and type(rest[0]) is type(a):
                    tracer._sample(a, rest[0])
            return fn(a, *rest)

        wrapper.__wrapped__ = fn
        return wrapper

    def _sample(self, a, b):
        if type(a).__name__ == "QuadScalar":
            kind = "quad"
        else:
            kind = "exact" if a.is_exact and b.is_exact else "trunc"
        if len(self.operands[kind]) < OPERAND_SAMPLES:
            self.operands[kind].append((a, b))


def _on_walk(tracer, st, args, out):
    st.items += len(out)  # every lattice found is visited once
    st.extra += len(out) - 1  # new lattices: all but the starting one
    if tracer._stack and tracer._stack[-1][0] == "selfdual":
        tracer.selfdual_candidates += len(out)


def _on_len(tracer, st, args, out):
    st.items += len(out)


def _on_fourier(tracer, st, args, out):
    st.items += args[0].table.size
    st.extra += args[0].table.nbytes + out.table.nbytes


def _on_psi(tracer, st, args, out):
    st.items += args[0].coset_count


_HOOKS = {
    "walk": _on_walk,
    "selfdual": _on_len,
    "quotient_reps": _on_len,
    "box": _on_len,
    "partial_fourier": _on_fourier,
    "pointwise_psi": _on_psi,
}


def mul_rate(pairs, seconds: float = 0.2) -> float:
    """Multiplications per second over the sampled operand pairs."""
    if not pairs:
        return 0.0
    done = 0
    t0 = time.perf_counter()
    while True:
        for a, b in pairs:
            a * b
        done += len(pairs)
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return done / elapsed


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, ops: int, op_s: float, answered: int, nontrivial: int,
                  refused: dict, overhead: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    ``ops`` counts attempted ops and ``op_s`` their summed traced durations.
    Counts are per attempted op; shares are of ``op_s``.
    """
    S = tr.spans

    def per_op(short):
        return _ratio(S[short].calls, ops)

    def ms_per_op(short):
        return 1000 * _ratio(S[short].incl_s, ops)

    def share(short):
        return _ratio(S[short].incl_s, op_s)

    walk, box, hnf = S["walk"], S["box"], S["hnf_basis"]
    fourier, psi = S["partial_fourier"], S["pointwise_psi"]
    m = {
        "padic.exact_mul_per_s": (mul_rate(tr.operands["exact"]), "1/s"),
        "padic.trunc_mul_per_s": (mul_rate(tr.operands["trunc"]), "1/s"),
        "padic.quad_mul_per_s": (mul_rate(tr.operands["quad"]), "1/s"),
        "padic.scalar_ops_per_op": (_ratio(tr.scalar_ops, ops), "calls/op"),
        "linalg.hnf_basis.calls_per_op": (per_op("hnf_basis"), "calls/op"),
        "linalg.hnf_basis.ms_per_call": (1000 * _ratio(hnf.incl_s, hnf.calls), "ms/call"),
        "linalg.hnf_basis.share": (share("hnf_basis"), "ratio"),
        "linalg.hermitian_split.calls_per_op": (per_op("hermitian_split"), "calls/op"),
        "linalg.hermitian_split.share": (share("hermitian_split"), "ratio"),
        "linalg.val_det.calls_per_op": (per_op("val_det"), "calls/op"),
        "linalg.inverse.calls_per_op": (per_op("inverse"), "calls/op"),
        "geometry.invariants_of.ms_per_op": (ms_per_op("invariants_of"), "ms/op"),
        "geometry.is_rss.ms_per_op": (ms_per_op("is_rss"), "ms/op"),
        "geometry.u_representative.ms_per_op": (ms_per_op("u_representative"), "ms/op"),
        "geometry.gl_representative.ms_per_op": (ms_per_op("gl_representative"), "ms/op"),
        "geometry.share": (_ratio(tr.layer_self_s["geometry"], op_s), "ratio"),
        "lattice.closure.ms_per_op": (ms_per_op("closure"), "ms/op"),
        "lattice.stable_core.ms_per_op": (ms_per_op("stable_core"), "ms/op"),
        "lattice.walk.calls_per_op": (per_op("walk"), "calls/op"),
        "lattice.walk.lattices_per_op": (_ratio(walk.items, ops), "lattices/op"),
        "lattice.walk.ms_per_lattice": (1000 * _ratio(walk.incl_s, walk.items), "ms/lattice"),
        "lattice.walk.vectors_tried_per_op": (_ratio(S["quotient_reps"].items, ops),
                                              "vectors/op"),
        "lattice.walk.yield": (_ratio(walk.extra, S["quotient_reps"].items), "ratio"),
        "lattice.selfdual.yield": (_ratio(S["selfdual"].items, tr.selfdual_candidates),
                                   "ratio"),
        "lattice.walk.share": (share("walk"), "ratio"),
        "lattice.from_generators.calls_per_op": (per_op("from_generators"), "calls/op"),
        "lattice.box.lattices_per_op": (_ratio(box.items, ops), "lattices/op"),
        "lattice.box.ms_per_lattice": (1000 * _ratio(box.incl_s, box.items), "ms/lattice"),
        "orbital.u.ms_per_op": (ms_per_op("u"), "ms/op"),
        "orbital.gl.ms_per_op": (ms_per_op("gl"), "ms/op"),
        "orbital.u.share": (share("u"), "ratio"),
        "orbital.gl.share": (share("gl"), "ratio"),
        "orbital.lemma1.ms_per_op": (ms_per_op("lemma1"), "ms/op"),
        "orbital.oracle.ms_per_op": (ms_per_op("oracle"), "ms/op"),
        "orbital.nontrivial_ratio": (_ratio(nontrivial, answered), "ratio"),
        "orbital.refused.explosion": (_ratio(refused.get("ExplosionGuard", 0), ops), "ratio"),
        "orbital.refused.precision": (_ratio(refused.get("PrecisionExhausted", 0), ops),
                                      "ratio"),
        "weil.partial_fourier.calls_per_op": (per_op("partial_fourier"), "calls/op"),
        "weil.partial_fourier.ns_per_entry": (1e9 * _ratio(fourier.incl_s, fourier.items),
                                              "ns/entry"),
        "weil.partial_fourier.computed_bytes_per_call": (
            _ratio(fourier.extra, fourier.calls), "B/call"),
        "weil.partial_fourier.share": (share("partial_fourier"), "ratio"),
        "weil.pointwise_psi.us_per_coset": (1e6 * _ratio(psi.incl_s, psi.items), "us/coset"),
        "weil.pointwise_psi.share": (share("pointwise_psi"), "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return m


def absent_metrics(tr: Tracer, names) -> list:
    """Metrics whose source function no longer exists in fllab."""
    return [name for name in names if name.startswith(tuple(tr.absent))]
