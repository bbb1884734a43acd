"""In-memory span tracer that wraps `gltlab` from the outside.

`Tracer.install()` replaces every public function of the `gltlab` modules in
every module namespace that binds it, `RandomSequenceModel.sample`, and the
`numpy.linalg` entry points gltlab calls, with wrappers that record a span:
name, start, end, parent span and the id of the op it ran in.  `uninstall()`
puts the originals back.  Nothing under `src/` is modified.

Spans are stored column-wise in `array` buffers so that the ~10^6 spans of a
Monte Carlo pass stay small.  Factorization spans of a single matrix also
carry computed work counts: rows^3, whether the input was complex, and
whether an identical input was already factored in the same op.  Calls on a
stack of matrices (the batched symbol evaluations of quadrature) are counted
apart, as `linalg.batch`.  The clock stops while inputs are hashed, so the
hashing shows in no span's duration.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import types
from array import array
from time import perf_counter

import numpy as np

# multiindex and errors hold cheap helpers; their spans would cost more than
# they measure.
MODULES = ("acs", "cli", "dsl", "gltcalc", "matgen", "reports", "spectra", "symbols")
FACTORIZATIONS = ("svd", "eigvalsh", "eigvals", "eigh", "pinv")
BATCH = "linalg.batch"  # any factorization of a stack of matrices (ndim > 2)

F_COMPLEX, F_REPEAT, F_UV = 1, 2, 4


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.value = array("d")  # computed work: rows^3, bytes or points
        self.flags = array("b")
        self._stack: list[int] = []
        self._active: dict[int, int] = {}
        self._paused = 0.0
        self._op_id = -1
        self._seen: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def clock(self) -> float:
        return perf_counter() - self._paused

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._seen = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int, value: float = 0.0, flags: int = 0) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.name.append(nid)
        depth = self._active.get(nid, 0)
        self.outer.append(1 if depth == 0 else 0)
        self._active[nid] = depth + 1
        self.value.append(value)
        self.flags.append(flags)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def _close(self, sid: int, nid: int) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()
        self._active[nid] -= 1

    def _span(self, fn, name: str, measure=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, nid)
            if measure is not None:
                self.value[sid] = measure(args, kwargs, result)
            return result

        return traced

    def _factorization(self, fn, name: str, uv_default: bool | None = None):
        nid = self._name_id(name)
        batch_nid = self._name_id(BATCH)

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            # A stack of matrices is symbol-side quadrature, not a dense
            # solve: it gets its own span name and no flags or work count.
            if np.ndim(a) > 2:
                sid = self._open(batch_nid)
                try:
                    return fn(a, *args, **kwargs)
                finally:
                    self._close(sid, batch_nid)
            flags = self._input_flags(a)
            if uv_default is not None and kwargs.get("compute_uv", args[1] if len(args) > 1
                                                     else uv_default):
                flags |= F_UV
            sid = self._open(nid, _rows_cubed(a), flags)
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._close(sid, nid)

        return traced

    def _input_flags(self, a) -> int:
        paused = perf_counter()
        arr = np.ascontiguousarray(a)
        key = (arr.shape, arr.dtype.str, hashlib.sha1(arr.view(np.uint8)).digest())
        flags = F_COMPLEX if np.iscomplexobj(arr) else 0
        if key in self._seen:
            flags |= F_REPEAT
        self._seen.add(key)
        self._paused += perf_counter() - paused
        return flags

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import gltlab
        from gltlab.acs import RandomSequenceModel

        modules = [gltlab] + [importlib.import_module(f"gltlab.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                short = fn.__module__.rpartition(".")[2]
                if not fn.__module__.startswith("gltlab.") or short not in MODULES:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._span(fn, f"{short}.{fn.__name__}",
                                                  _MEASURES.get(f"{short}.{fn.__name__}"))
                self._patch(mod, attr, wrappers[id(fn)])
        self._patch(RandomSequenceModel, "sample",
                    self._span(RandomSequenceModel.sample, "acs.model_sample"))

        linalg = np.linalg
        for fname in FACTORIZATIONS:
            self._patch(linalg, fname, self._factorization(
                getattr(linalg, fname), f"linalg.{fname}",
                uv_default=True if fname == "svd" else None))
        # A matrix 2-norm or nuclear norm is an SVD; count it as one.
        norm = linalg.norm
        svd_of_norm = self._factorization(norm, "linalg.svd")

        @functools.wraps(norm)
        def traced_norm(x, ord=None, *args, **kwargs):
            if ord in (2, -2, "nuc") and np.ndim(x) >= 2 and not args and not kwargs:
                return svd_of_norm(x, ord)
            return norm(x, ord, *args, **kwargs)

        self._patch(linalg, "norm", traced_norm)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans only),
        self seconds, summed computed value, and flag counts."""
        child = [0.0] * len(self.start)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0.0,
                "complex": 0, "repeat": 0, "uv": 0}
            for n in self.names
        }
        for sid in range(len(self.start)):
            row = out[self.names[self.name[sid]]]
            dur = self.end[sid] - self.start[sid]
            flags = self.flags[sid]
            row["calls"] += 1
            if self.outer[sid]:
                row["s"] += dur
            row["self_s"] += dur - child[sid]
            row["value"] += self.value[sid]
            row["complex"] += bool(flags & F_COMPLEX)
            row["repeat"] += bool(flags & F_REPEAT)
            row["uv"] += bool(flags & F_UV)
        return out


def _rows_cubed(a) -> float:
    shape = np.shape(a)
    return float(shape[0] ** 3) if len(shape) == 2 else 0.0


def _materialized_bytes(args, kwargs, result) -> float:
    data = result.data
    return float(data.shape[0] * data.shape[1] * data.itemsize)


def _surface_points(args, kwargs, result) -> float:
    return float(result.shape[0]) if np.ndim(result) >= 2 else 1.0


def _text_bytes(args, kwargs, result) -> float:
    text = args[1] if len(args) > 1 else kwargs["text"]
    return float(len(text.encode("utf-8")))


_MEASURES = {
    "gltcalc.materialize": _materialized_bytes,
    "symbols.spectral_surfaces": _surface_points,
    "reports.atomic_write_text": _text_bytes,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    t = tracer.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0.0, "complex": 0, "repeat": 0, "uv": 0}
    get = lambda name: t.get(name, zero)
    m: dict[str, float] = {}
    for f in ("svd", "eigvalsh", "eigvals"):
        m[f"linalg.{f}.calls"] = get(f"linalg.{f}")["calls"]
        m[f"linalg.{f}.s"] = get(f"linalg.{f}")["s"]
    m["linalg.svd_uv.calls"] = get("linalg.svd")["uv"]
    m["linalg.eigh.calls"] = get("linalg.eigh")["calls"]
    m["linalg.pinv.calls"] = get("linalg.pinv")["calls"]
    facts = [get(f"linalg.{f}") for f in FACTORIZATIONS]
    n_fact = sum(r["calls"] for r in facts)
    m["linalg.complex_share"] = sum(r["complex"] for r in facts) / n_fact if n_fact else 0.0
    m["linalg.repeat_share"] = sum(r["repeat"] for r in facts) / n_fact if n_fact else 0.0
    m["linalg.n3_sum"] = sum(r["value"] for r in facts)
    m["linalg.batch.calls"] = get(BATCH)["calls"]
    m["linalg.batch.s"] = get(BATCH)["s"]
    for f in ("toeplitz", "diag_sampling", "is_hermitian"):
        m[f"matgen.{f}.calls"] = get(f"matgen.{f}")["calls"]
        m[f"matgen.{f}.s"] = get(f"matgen.{f}")["s"]
    mat = get("gltcalc.materialize")
    m["gltcalc.materialize.calls"] = mat["calls"]
    m["gltcalc.materialize.self_s"] = mat["self_s"]
    m["gltcalc.materialize.bytes"] = mat["value"]
    m["gltcalc.glt5_split_check.s"] = get("gltcalc.glt5_split_check")["s"]
    m["gltcalc.glt1_verify.s"] = get("gltcalc.glt1_verify")["s"]
    m["spectra.spectrum.calls"] = get("spectra.spectrum")["calls"]
    m["spectra.spectrum.self_s"] = get("spectra.spectrum")["self_s"]
    m["spectra.schatten_norm.calls"] = get("spectra.schatten_norm")["calls"]
    m["spectra.symbol_functional.calls"] = get("spectra.symbol_functional")["calls"]
    m["spectra.symbol_functional.self_s"] = get("spectra.symbol_functional")["self_s"]
    m["spectra.distribution_check.self_s"] = get("spectra.distribution_check")["self_s"]
    surf = get("symbols.spectral_surfaces")
    m["symbols.spectral_surfaces.calls"] = surf["calls"]
    m["symbols.spectral_surfaces.s"] = surf["s"]
    m["symbols.spectral_surfaces.points"] = surf["value"]
    m["acs.sacs_check.self_s"] = get("acs.sacs_check")["self_s"]
    m["acs.model_sample.calls"] = get("acs.model_sample")["calls"]
    m["acs.model_sample.s"] = get("acs.model_sample")["s"]
    m["acs.optimal_splitting.calls"] = get("acs.optimal_splitting")["calls"]
    m["acs.optimal_splitting.self_s"] = get("acs.optimal_splitting")["self_s"]
    m["acs.splitting_distance.calls"] = get("acs.splitting_distance")["calls"]
    m["acs.acs_check.self_s"] = get("acs.acs_check")["self_s"]
    m["acs.zero_distribution_test.self_s"] = get("acs.zero_distribution_test")["self_s"]
    m["dsl.parse.calls"] = get("dsl.parse")["calls"]
    m["dsl.parse.s"] = get("dsl.parse")["s"]
    m["cli.main.calls"] = get("cli.main")["calls"]
    m["cli.run_experiment.self_s"] = get("cli.run_experiment")["self_s"]
    # Every file goes through atomic_write_text; write_with adds the rendering.
    writes = get("reports.atomic_write_text")
    m["reports.write.calls"] = writes["calls"]
    m["reports.write.s"] = _outermost_seconds(tracer, ("reports.write_with",
                                                      "reports.atomic_write_text"))
    m["reports.bytes"] = writes["value"]
    return m


def _outermost_seconds(tracer: Tracer, names: tuple[str, ...]) -> float:
    """Inclusive time of spans in ``names`` not nested inside another one."""
    ids = {tracer._name_ids[n] for n in names if n in tracer._name_ids}
    total = 0.0
    for sid in range(len(tracer.start)):
        if tracer.name[sid] not in ids:
            continue
        parent = tracer.parent[sid]
        while parent >= 0 and tracer.name[parent] not in ids:
            parent = tracer.parent[parent]
        if parent < 0:
            total += tracer.end[sid] - tracer.start[sid]
    return total


COMPUTED = ("linalg.n3_sum", "gltcalc.materialize.bytes", "symbols.spectral_surfaces.points",
            "linalg.repeat_share", "linalg.complex_share", "reports.bytes")
