"""Per-layer tracing of solimbt from outside the package.

:class:`Tracer` replaces every public function of the solimbt modules, in
every solimbt namespace that binds it, with a wrapper that records a span
(name, layer, start, end, parent span, job id) and the counts available at
that boundary: points, steps, iterations, factor ranks, subspace dimension
and orders.  Two public methods are wrapped on their classes as well.
Spans stay in memory; :func:`job_metrics` turns the spans of one job into
the per-layer metrics.
"""

import functools
import hashlib
import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("system", "matfun", "lyapunov", "gramians", "balancing",
          "pipeline", "mmio", "cli")

# (module, class, method) wrapped in addition to the module-level functions
WRAPPED_METHODS = (("system", "FirstOrderRealization", "pencil_eigenvalues"),
           ("lyapunov", "GramianFactor", "cholesky_like"))

# dense flops of one sign-function step on an N x N pencil: LU (2/3 N^3),
# A^{-1} E with N right-hand sides (2 N^3) and the product with E (2 N^3)
SIGN_FLOP_PER_N3 = 2.0 / 3.0 + 2.0 + 2.0


def solimbt_modules():
    """Every loaded solimbt module, the package namespace included."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "solimbt" or name.startswith("solimbt."))]


def rebind(original, replacement):
    """Point every solimbt binding of ``original`` at ``replacement``.

    Returns the ``(module, name)`` pairs that were changed.
    """
    changed = []
    for mod in solimbt_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                changed.append((mod, name))
    return changed


def public_functions():
    """``{span name: function}`` for the public functions of every layer."""
    import solimbt  # noqa: F401  (loads every layer module)

    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"solimbt.{layer}"]
        for name, fn in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                found[f"{layer}.{name}"] = fn
    return found


def model_digest(obj, cache):
    """Hash of the public array attributes of a model, cached per object.

    Private attributes such as a realization's cached eigenvalues are left
    out.  The cache holds the object itself so its id stays unique while
    cached.
    """
    hit = cache.get(id(obj))
    if hit is not None:
        return hit[1]
    h = hashlib.blake2b(digest_size=16)
    for key, val in sorted(vars(obj).items()):
        if isinstance(val, np.ndarray) and not key.startswith("_"):
            arr = np.ascontiguousarray(val)
            h.update(key.encode())
            h.update(str(arr.shape).encode())
            h.update(memoryview(arr).cast("B"))
    digest = h.hexdigest()
    cache[id(obj)] = (obj, digest)
    return digest


def _bundle_bytes(directory):
    """Size of a bundle's matrix and header files (other files are skipped)."""
    try:
        return sum(e.stat().st_size for e in os.scandir(directory)
                   if e.name.endswith(".mtx") or e.name == "system.json")
    except OSError:
        return 0


@dataclass
class Span:
    name: str
    layer: str
    job: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    """Span recorder; use as a context manager around traced jobs.

    ``job`` is the id stamped on new spans.  The per-job redundancy sets
    behind ``unique_frac`` are keyed on model digests plus the evaluation
    point, or the signal and time grid.
    """

    def __init__(self):
        self.spans = []
        self.job = 0
        self._local = threading.local()
        self._saved = []
        self._digests = {}
        self.seen = {"system.eval_transfer": set(), "system.simulate": set()}

    # -- installation -----------------------------------------------------
    def __enter__(self):
        for qual, fn in public_functions().items():
            layer = qual.split(".")[0]
            self._saved += [(mod, name, fn)
                            for mod, name in rebind(fn, self._wrap(qual, layer, fn))]
        for layer, cls_name, meth in WRAPPED_METHODS:
            cls = getattr(sys.modules[f"solimbt.{layer}"], cls_name)
            fn = vars(cls)[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", layer, fn))
        return self

    def __exit__(self, *exc):
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved = []
        return False

    def start_job(self, job):
        self.job = job
        self._digests.clear()
        for keys in self.seen.values():
            keys.clear()

    # -- spans ------------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, qual, layer, fn):
        count = getattr(self, "_count_" + qual.split(".")[-1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(qual, layer, self.job, stack[-1] if stack else None)
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                count(span, args, kwargs, result)
            return result

        return traced

    # -- counts at the boundaries -----------------------------------------
    def _count_eval_transfer(self, span, args, kwargs, result):
        obj, s = _arg(args, kwargs, 0, "obj"), _arg(args, kwargs, 1, "s")
        pts = np.atleast_1d(np.asarray(s, dtype=complex))
        span.counts["points"] = pts.size
        digest = model_digest(obj, self._digests)
        self.seen["system.eval_transfer"].update((digest, complex(p)) for p in pts)

    def _count_simulate(self, span, args, kwargs, result):
        obj, signal = _arg(args, kwargs, 0, "obj"), _arg(args, kwargs, 1, "signal")
        t = np.ascontiguousarray(_arg(args, kwargs, 2, "t"), dtype=float)
        span.counts["steps"] = t.size - 1
        grid = hashlib.blake2b(memoryview(t).cast("B"), digest_size=16).hexdigest()
        self.seen["system.simulate"].add(
            (model_digest(obj, self._digests), repr(signal), grid))

    def _count_solve_lyap_sign_dual(self, span, args, kwargs, result):
        P, Q, info = result
        N = np.shape(_arg(args, kwargs, 0, "calE"))[0]
        span.counts.update(iters=info["num_iter"], rank_c=P.rank, rank_o=Q.rank,
                           gflop=info["num_iter"] * SIGN_FLOP_PER_N3 * N ** 3 / 1e9)

    def _count_solve_lyap_projection(self, span, args, kwargs, result):
        factor, info = result
        side = _arg(args, kwargs, 2, "side", "controllability")
        span.counts["dim"] = info["dim"]
        span.counts["rank_c" if side == "controllability" else "rank_o"] = factor.rank

    def _count_hybrid_prereduce(self, span, args, kwargs, result):
        span.counts.update(points=np.size(_arg(args, kwargs, 1, "omegas")),
                           order=result[1].shape[1])

    def _count_reduce(self, span, args, kwargs, result):
        span.counts["order"] = result.r

    def _count_second_order_projectors(self, span, args, kwargs, result):
        span.counts["order"] = result.r

    def _count_load_bundle(self, span, args, kwargs, result):
        span.counts["bytes"] = _bundle_bytes(_arg(args, kwargs, 0, "directory"))

    _count_save_bundle = _count_load_bundle

    # -- reduction ----------------------------------------------------------
    def job_spans(self, job):
        return [s for s in self.spans if s.job == job]

    def self_times(self, spans):
        """Self time keyed by ``id(span)``: duration minus the children's durations."""
        own = {id(s): s.duration for s in spans}
        for s in spans:
            if s.parent is not None:
                own[id(self.spans[s.parent])] -= s.duration
        return own


def _sum(spans, name, key=None):
    sel = [s for s in spans if s.name == name]
    if key is None:
        return float(sum(s.duration for s in sel))
    return sum(s.counts.get(key, 0) for s in sel)


def job_metrics(tracer, job, job_s):
    """Per-layer metrics of one traced job of wall time ``job_s``.

    ``unique_frac`` reads the tracer's current redundancy sets, so call this
    right after the job, before the next :meth:`Tracer.start_job`.
    """
    spans = tracer.job_spans(job)
    own = tracer.self_times(spans)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def self_s(pred):
        return float(sum(own[id(s)] for s in spans if pred(s)))

    def unique_frac(name, total):
        return len(tracer.seen[name]) / total if total else 1.0

    sign_s = _sum(spans, "lyapunov.solve_lyap_sign_dual")
    sign_gflop = _sum(spans, "lyapunov.solve_lyap_sign_dual", "gflop")
    m = {
        "system.pencil_eigenvalues.calls": calls("system.pencil_eigenvalues"),
        "system.pencil_eigenvalues.s": _sum(spans, "system.pencil_eigenvalues"),
        "system.first_companion.s": _sum(spans, "system.first_companion"),
        "system.strictly_dissipative.s": _sum(spans, "system.strictly_dissipative"),
        "system.make_second_order.calls": calls("system.make_second_order"),
        "system.make_second_order.s": _sum(spans, "system.make_second_order"),
        "system.eval_transfer.points": _sum(spans, "system.eval_transfer", "points"),
        "system.eval_transfer.s": _sum(spans, "system.eval_transfer"),
        "system.eval_transfer.unique_frac": unique_frac(
            "system.eval_transfer", _sum(spans, "system.eval_transfer", "points")),
        "system.simulate.steps": _sum(spans, "system.simulate", "steps"),
        "system.simulate.s": _sum(spans, "system.simulate"),
        "system.simulate.unique_frac": unique_frac(
            "system.simulate", calls("system.simulate")),
        "matfun.band_selector.s": _sum(spans, "matfun.band_selector"),
        "matfun.logm_principal.calls": calls("matfun.logm_principal"),
        "matfun.logm_principal.s": _sum(spans, "matfun.logm_principal"),
        "matfun.expm.calls": calls("matfun.expm"),
        "matfun.expm.s": _sum(spans, "matfun.expm"),
        "matfun.freq_limited_rhs.s": _sum(spans, "matfun.freq_limited_rhs"),
        "matfun.time_limited_rhs.s": _sum(spans, "matfun.time_limited_rhs"),
        "lyapunov.solve_lyap_sign_dual.calls": calls("lyapunov.solve_lyap_sign_dual"),
        "lyapunov.solve_lyap_sign_dual.s": sign_s,
        "lyapunov.solve_lyap_sign_dual.self_s":
            self_s(lambda s: s.name == "lyapunov.solve_lyap_sign_dual"),
        "lyapunov.solve_lyap_sign_dual.iters":
            _sum(spans, "lyapunov.solve_lyap_sign_dual", "iters"),
        "lyapunov.rank_c": sum(s.counts.get("rank_c", 0) for s in spans),
        "lyapunov.rank_o": sum(s.counts.get("rank_o", 0) for s in spans),
        "lyapunov.ldl_compress.calls": calls("lyapunov.ldl_compress"),
        "lyapunov.ldl_compress.s": _sum(spans, "lyapunov.ldl_compress"),
        "lyapunov.sign.gflop": sign_gflop,
        "lyapunov.sign.gflops": sign_gflop / sign_s if sign_s > 0 else 0.0,
        "lyapunov.solve_lyap_projection.calls": calls("lyapunov.solve_lyap_projection"),
        "lyapunov.solve_lyap_projection.s": _sum(spans, "lyapunov.solve_lyap_projection"),
        "lyapunov.solve_lyap_projection.dim":
            _sum(spans, "lyapunov.solve_lyap_projection", "dim"),
        "gramians.self_s": self_s(lambda s: s.layer == "gramians"),
        "gramians.partition.s": _sum(spans, "gramians.partition"),
        "balancing.second_order_projectors.calls":
            calls("balancing.second_order_projectors"),
        "balancing.second_order_projectors.s":
            _sum(spans, "balancing.second_order_projectors"),
        "balancing.apply_projection.s": _sum(spans, "balancing.apply_projection"),
        "balancing.so_reconstruct.s": _sum(spans, "balancing.so_reconstruct"),
        "pipeline.reduce.self_s": self_s(lambda s: s.name == "pipeline.reduce"),
        "pipeline.hybrid_prereduce.s": _sum(spans, "pipeline.hybrid_prereduce"),
        "pipeline.hybrid_prereduce.points":
            _sum(spans, "pipeline.hybrid_prereduce", "points"),
        "pipeline.hybrid_prereduce.order":
            _sum(spans, "pipeline.hybrid_prereduce", "order"),
        "pipeline.frequency_error_report.self_s":
            self_s(lambda s: s.name == "pipeline.frequency_error_report"),
        "pipeline.time_error_report.self_s":
            self_s(lambda s: s.name == "pipeline.time_error_report"),
        "mmio.load_bundle.calls": calls("mmio.load_bundle"),
        "mmio.load_bundle.s": _sum(spans, "mmio.load_bundle"),
        "mmio.save_bundle.s": _sum(spans, "mmio.save_bundle"),
        "mmio.bytes": sum(s.counts.get("bytes", 0) for s in spans),
        "cli.self_s": self_s(lambda s: s.name in ("cli.cmd_reduce", "cli.cmd_analyze")),
        "trace.uncovered_s":
            job_s - float(sum(s.duration for s in spans if s.parent is None)),
    }
    return m
