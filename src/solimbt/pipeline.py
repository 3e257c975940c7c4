"""End-to-end reduction pipeline and error reporting.

``reduce`` wires the stages together: optional spectral shift (for marginally
stable models), optional rational-interpolation pre-reduction (for scales
where dense Gramians are unaffordable), realization choice, Gramian flavor,
partitioning, one of the eight balancing formulas, truncation, and
back-substitution.  Error reports compare original and reduced models over a
frequency grid or a simulated trajectory, with separate maxima over a band
or window of interest.
"""

import numbers
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as spla

from . import balancing, gramians
from .errors import InvalidParams, SingularShiftedSystem
from .lyapunov import GramianFactor
from .matfun import FrequencyBand, TimeWindow
from .system import (
    SecondOrderSystem,
    _dense,
    _dual_blocks,
    check_stability,
    eval_transfer,
    first_companion,
    gramian_backtransform,
    make_second_order,
    simulate,
    strictly_dissipative,
)

METHODS = ("bt", "flbt", "tlbt")
HYBRID_TOL = 1e-12  # default relative rank cut of the pre-reduction basis


def alpha_shift(sys, alpha):
    """Shift the frequency variable by ``alpha > 0``:

        E~ = E + 2 alpha M,  K~ = K + alpha E + alpha^2 M,
        C_p~ = C_p + alpha C_v,

    so the shifted transfer function satisfies ``H~(s) = H(s + alpha)`` and
    every pole moves left by ``alpha``.  Symmetric positive definiteness of
    ``M, E, K`` survives the shift.
    """
    if alpha < 0:
        raise InvalidParams("shift must be nonnegative")
    return _shift(sys, float(alpha))


def alpha_backsubstitute(sys, alpha):
    """Exact inverse of :func:`alpha_shift` on (reduced) system matrices."""
    return _shift(sys, -float(alpha))


def _shift(sys, a):
    """The substitution of :func:`alpha_shift` for any real ``a``."""
    return make_second_order(
        sys.M, sys.E + 2 * a * sys.M, sys.K + a * sys.E + a * a * sys.M,
        sys.B_u, sys.C_p + a * sys.C_v, sys.C_v)


def _sample_frequencies(omegas):
    """``omegas`` as a non-empty 1d array of positive, finite floats, or ``InvalidParams``."""
    try:
        omegas = np.asarray(omegas, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"sample frequencies must be numbers: {exc}") from exc
    if omegas.ndim != 1 or omegas.size == 0:
        raise InvalidParams("need a non-empty 1d array of sample frequencies")
    if not np.all((omegas > 0.0) & np.isfinite(omegas)):
        raise InvalidParams("sample frequencies must be positive and finite")
    return omegas


def hybrid_prereduce(sys, omegas, tol=HYBRID_TOL):
    """One-sided rational-interpolation pre-reduction.

    Collects input directions ``(s^2 M + s E + K)^{-1} B_u`` and dual output
    directions at ``s = i omega`` for every sample frequency, splits them
    into real and imaginary parts (closing the set under conjugation), and
    orthonormalizes with a rank cut at ``tol`` relative.  The pre-reduced
    model is the Galerkin projection ``apply_projection(sys, V, V)``: the
    congruence ``V^T (.) V`` preserves symmetry and definiteness, and the
    pre-reduced model interpolates the original transfer function at every
    sample point.
    Sparse ``M, E, K`` stay sparse here (one factorization per sample
    point, LAPACK's band LU for a banded pattern and SuperLU otherwise);
    the pre-reduced model is dense.

    ``V`` grows point by point: :func:`_cgs2` projects a point's ``2m + 2p``
    directions out of ``V``; the residual's singular directions above
    ``1e-3 tol`` times the largest block Frobenius norm so far are projected
    again and join ``V`` unless less than half of one is left (rounding).
    One SVD of the points' coefficients in ``V`` keeps the singular values
    above ``tol`` times the largest, the rank rule of ``scipy.linalg.orth(...,
    rcond=tol)``, in ``O(n k r)`` flops and ``O(n r + r k)`` memory for ``k``
    directions of rank ``r``, not an ``O(n k^2)`` SVD of all of them.

    Returns ``(pre_sys, V)``.

    Raises
    ------
    SingularShiftedSystem
        If a sample point coincides with a system pole.
    """
    coefs, scale, V = [], 0.0, np.empty((sys.n, 0))
    for D in _dual_blocks(sys, 1j * _sample_frequencies(omegas), SingularShiftedSystem):
        Y, R = _cgs2(V, D)
        U, s, Wt = spla.svd(R, full_matrices=False, check_finite=False)
        scale = max(scale, np.linalg.norm(D))
        C = (s[:, None] * Wt)[:np.count_nonzero(s[:sys.n - V.shape[1]] > 1e-3 * tol * scale)]
        Z, R = _cgs2(V, U[:, :len(C)])  # U may lean into V by rounding
        U, s, Wt = spla.svd(R, full_matrices=False, check_finite=False)
        coefs.append(np.vstack([Y + Z @ C, (s[:, None] * Wt @ C)[s >= 0.5]]))
        V = np.hstack([V, U[:, s >= 0.5]])
    P, sig, _ = spla.svd(np.hstack([np.pad(C, ((0, V.shape[1] - len(C)), (0, 0)))
                                    for C in coefs]), full_matrices=False)
    V = V @ P[:, sig > tol * sig[:1]]
    return balancing.apply_projection(sys, V, V), V


def _cgs2(V, X):
    """``(Y, R)``, ``X = V Y + R``: classical Gram-Schmidt, run twice (CGS2)."""
    Y = V.T @ X
    R = X - V @ Y
    Z = V.T @ R
    return Y + Z, R - V @ Z


@dataclass
class ReductionConfig:
    """Configuration of one reduction run.

    ``method`` selects the Gramian flavor (``"bt"``, ``"flbt"``, ``"tlbt"``),
    ``formula`` one of the eight balancing variants.  ``order_tol`` drives
    adaptive order selection against the characteristic-value tail unless
    ``fixed_order`` is set.  ``realization`` is ``"companion"`` (coupling
    block ``j``: ``"identity"``, ``"neg_k"`` or an explicit ``n x n``
    matrix) or ``"dissipative"`` (optional ``gamma``; the coupling block is
    then implicitly the identity).  ``solver`` is ``"sign"`` or
    ``"projection"``.  ``hybrid`` holds ``(omegas, tol)`` sample frequencies
    for the pre-reduction step, or ``None``.

    :meth:`validate` (which :func:`reduce` calls) raises ``InvalidParams``
    unless ``band`` is a :class:`~solimbt.matfun.FrequencyBand`, given
    exactly when ``method`` is ``"flbt"``, ``window`` a
    :class:`~solimbt.matfun.TimeWindow`, given exactly when ``method`` is
    ``"tlbt"``, and ``hybrid`` a pair of a non-empty 1d array of positive,
    finite ``omegas`` and ``0 <= tol < 1``; ``alpha`` must be nonnegative,
    ``order_tol`` positive, ``fixed_order`` an integer,
    ``gamma`` needs the ``"dissipative"`` realization, a ``j`` other than
    ``"identity"`` the ``"companion"`` one, and ``modified`` Gramians need
    ``flbt`` or ``tlbt`` and the sign solver.
    """

    method: str = "bt"
    formula: str = "pv"
    band: FrequencyBand | None = None
    window: TimeWindow | None = None
    order_tol: float = 1e-4
    fixed_order: int | None = None
    realization: str = "companion"
    j: str = "identity"
    gamma: float | None = None
    alpha: float = 0.0
    solver: str = "sign"
    modified: bool = False
    hybrid: tuple | None = None

    def validate(self):
        if self.method not in METHODS:
            raise InvalidParams(f"unknown method {self.method!r}")
        if self.formula not in balancing.FORMULAS:
            raise InvalidParams(f"unknown formula {self.formula!r}")
        for name, value, kind, method in (("band", self.band, FrequencyBand, "flbt"),
                                          ("window", self.window, TimeWindow, "tlbt")):
            if not (value is None or isinstance(value, kind)):
                raise InvalidParams(f"{name} must be a {kind.__name__}, got {value!r}")
            if (value is None) == (self.method == method):
                raise InvalidParams(f"{method} needs a {name}" if value is None
                                    else f"a {name} is only valid for method {method}")
        if not (self.hybrid is None or isinstance(self.hybrid, (tuple, list))
                and len(self.hybrid) == 2):
            raise InvalidParams(f"hybrid must be a pair (omegas, tol), got {self.hybrid!r}")
        if self.hybrid is not None:
            _sample_frequencies(self.hybrid[0])
        if self.realization not in ("companion", "dissipative"):
            raise InvalidParams(f"unknown realization {self.realization!r}")
        if self.solver not in ("sign", "projection"):
            raise InvalidParams(f"unknown solver {self.solver!r}")
        hybrid_tol = 0.0 if self.hybrid is None else self.hybrid[1]
        for name, value in (("alpha", self.alpha), ("order tolerance", self.order_tol),
                            ("hybrid tol", hybrid_tol)):
            if value is None or not _none_or_number(value, numbers.Real):
                raise InvalidParams(f"{name} must be a real number, got {value!r}")
        if not self.alpha >= 0.0:
            raise InvalidParams(f"alpha must be nonnegative, got {self.alpha!r}")
        if not 0.0 <= hybrid_tol < 1.0:  # a tol of 1 or more keeps no direction
            raise InvalidParams(f"hybrid tol must lie in [0, 1), got {hybrid_tol!r}")
        if not self.order_tol > 0.0:
            raise InvalidParams(f"order tolerance must be positive, got {self.order_tol!r}")
        if not _none_or_number(self.fixed_order, numbers.Integral):
            raise InvalidParams(f"fixed order must be an integer, got {self.fixed_order!r}")
        if not _none_or_number(self.gamma, numbers.Real):
            raise InvalidParams(f"gamma must be a real number, got {self.gamma!r}")
        if self.gamma is not None and self.realization != "dissipative":
            raise InvalidParams("gamma is only valid for the dissipative realization")
        if (self.realization != "companion"
                and not (isinstance(self.j, str) and self.j == "identity")):
            raise InvalidParams("a coupling block j is only valid for the companion "
                                "realization")
        if not isinstance(self.modified, bool):
            raise InvalidParams(f"modified must be true or false, got {self.modified!r}")
        if self.modified and self.method == "bt":
            raise InvalidParams("modified Gramians apply to flbt/tlbt only")
        if self.modified and self.solver == "projection":
            raise InvalidParams("modified Gramians need the dense sign solver")


def _none_or_number(x, kind):
    """``x`` is ``None`` or an instance of the ``numbers`` ``kind``, no bool."""
    return x is None or isinstance(x, kind) and not isinstance(x, bool)


@dataclass
class ReducedModel:
    """Reduced system plus reduction provenance."""

    system: SecondOrderSystem
    r: int
    formula: str
    method: str
    sigma: np.ndarray
    truncated_tail: float
    stable: bool
    details: dict = field(default_factory=dict)


def reduce(sys, config):
    """Run the full reduction pipeline on a second-order system.

    Returns a :class:`ReducedModel`; an unstable reduced model is reported
    through its ``stable`` flag, never repaired or rejected.
    """
    config.validate()
    timings = {}
    t_total = time.perf_counter()

    work = sys
    if config.alpha > 0.0:
        work = alpha_shift(work, config.alpha)
    V_pre = None
    if config.hybrid is not None:
        omegas, pre_tol = config.hybrid
        t0 = time.perf_counter()
        work, V_pre = hybrid_prereduce(work, omegas, tol=pre_tol)
        timings["prereduce"] = time.perf_counter() - t0
        if config.band is not None:
            lo, hi = config.band.hull
            if min(omegas) >= lo and max(omegas) <= hi:
                warnings.warn(
                    "hybrid sample points restricted to the band; "
                    "out-of-band behaviour of the pre-reduced model is "
                    "uncontrolled", stacklevel=2)
    work = _dense(work)

    if config.realization == "dissipative":
        real = strictly_dissipative(work, gamma=config.gamma)
        J = np.eye(work.n)
    else:
        real = first_companion(work, j=config.j)
        J = real.calE[:work.n, :work.n]

    t0 = time.perf_counter()
    if config.modified:
        pair = gramians.modified_gramians(real, band=config.band, window=config.window)
    elif config.method == "bt":
        pair = gramians.infinite_gramians(real, solver=config.solver)
    elif config.method == "flbt":
        pair = gramians.frequency_limited_gramians(real, config.band,
                                                   solver=config.solver)
    else:
        pair = gramians.time_limited_gramians(real, config.window,
                                              solver=config.solver)
    timings["gramians"] = time.perf_counter() - t0

    if config.realization == "dissipative":
        obs = pair.observability
        pair.observability = GramianFactor(
            gramian_backtransform(obs.Z, work, real.gamma), obs.Y)

    t0 = time.perf_counter()
    parts = gramians.partition(pair, work.n)
    res = balancing.second_order_projectors(
        parts, J, work.M, config.formula,
        order_tol=config.order_tol, fixed_r=config.fixed_order)
    if config.formula == "so":
        rom_sys = balancing.so_reconstruct(work, J, res)
    else:
        rom_sys = balancing.apply_projection(work, res.W, res.T)
    timings["balancing"] = time.perf_counter() - t0

    if config.alpha > 0.0:
        rom_sys = alpha_backsubstitute(rom_sys, config.alpha)
    report = check_stability(rom_sys)
    timings["total"] = time.perf_counter() - t_total

    details = {
        "timings": timings,
        "gramian_info": pair.info,
        "realization": config.realization,
        "solver": config.solver,
        "alpha": config.alpha,
        "modified": config.modified,
        "max_real_part": report.max_real_part,
        "band": config.band,
        "window": config.window,
    }
    if config.realization == "dissipative":
        details["gamma"] = real.gamma
    if V_pre is not None:
        details["prereduced_order"] = V_pre.shape[1]
    return ReducedModel(
        system=rom_sys, r=res.r, formula=config.formula, method=config.method,
        sigma=res.sigma, truncated_tail=res.truncated_tail,
        stable=report.is_c_stable, details=details)


@dataclass
class ErrorReport:
    """Pointwise and aggregate model errors over a grid.

    Relative entries are NaN where the reference norm falls below
    ``1e-14 x`` its maximum.  The maxima skip skipped points and non-finite
    entries; aggregate relative maxima are ``None`` when no valid point
    exists, and local maxima are ``None`` without a band/window.
    """

    kind: str
    grid: np.ndarray
    orig_norm: np.ndarray
    abs_err: np.ndarray
    rel_err: np.ndarray
    global_max_abs: float
    global_max_rel: float | None
    local_max_abs: float | None
    local_max_rel: float | None
    rom_order: int | None = None
    rom_stable: bool | None = None
    skipped: list = field(default_factory=list)


def _unwrap(model):
    return model.system if isinstance(model, ReducedModel) else model


def _is_stable(model):
    if isinstance(model, ReducedModel):
        return model.stable
    return check_stability(model).is_c_stable


def _masked_max(values, mask):
    vals = values[mask]
    vals = vals[np.isfinite(vals)]
    return float(np.max(vals)) if vals.size else None


def _error_report(kind, grid, orig_norm, abs_err, valid, local):
    """:class:`ErrorReport` of the pointwise norms over ``grid``: ``valid``
    marks the points that count (the others are ``skipped``), ``local`` the
    band or window, or is ``None`` without one."""
    scale = np.nanmax(orig_norm) if valid.any() else 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        rel_err = np.where(orig_norm >= 1e-14 * scale, abs_err / orig_norm, np.nan)
    return ErrorReport(
        kind=kind, grid=grid, orig_norm=orig_norm, abs_err=abs_err, rel_err=rel_err,
        global_max_abs=_masked_max(abs_err, valid) or 0.0,
        global_max_rel=_masked_max(rel_err, valid),
        local_max_abs=None if local is None else _masked_max(abs_err, valid & local),
        local_max_rel=None if local is None else _masked_max(rel_err, valid & local),
        skipped=np.flatnonzero(~valid).tolist())


def _with_rom(report, rom):
    """``report`` with the order and stability flag of the model ``rom``."""
    report.rom_order = getattr(rom, "r", None)
    report.rom_stable = _is_stable(rom)
    return report


def frequency_error_report(orig, rom, wmin, wmax, points, band=None):
    """Spectral-norm transfer-function errors over a logarithmic grid.

    Each model is evaluated once over the whole grid, so per-model setup
    (such as the sparse pattern of a large model) is paid once, and a
    :class:`~solimbt.system.SecondOrderSystem` reused as ``orig`` on the
    same grid is looked up, not evaluated again (see
    :func:`~solimbt.system.eval_transfer`).  Points where either model is
    singular are skipped and recorded.  ``rom_stable`` of a
    :class:`ReducedModel` is its ``stable`` flag; other models are checked.
    """
    omega = np.logspace(np.log10(wmin), np.log10(wmax), points)
    Ho = eval_transfer(_unwrap(orig), 1j * omega, skip_poles=True)
    Hr = eval_transfer(_unwrap(rom), 1j * omega, skip_poles=True)
    ok = np.all(np.isfinite(Ho), axis=(1, 2)) & np.all(np.isfinite(Hr), axis=(1, 2))
    orig_norm = np.full(omega.shape, np.nan)
    abs_err = np.full(omega.shape, np.nan)
    orig_norm[ok] = np.linalg.norm(Ho[ok], 2, axis=(1, 2))
    abs_err[ok] = np.linalg.norm(Ho[ok] - Hr[ok], 2, axis=(1, 2))
    report = _error_report("frequency", omega, orig_norm, abs_err, np.isfinite(orig_norm),
                           None if band is None else band.mask(omega))
    return _with_rom(report, rom)


def trajectory_errors(reference, traj, window=None):
    """Output-space errors of ``traj`` against ``reference``.

    Both :class:`~solimbt.system.Trajectory` objects must share one grid.
    Relative errors are NaN where the reference output norm falls below
    ``1e-14 x`` its maximum.  The returned report carries no ROM order or
    stability flag.
    """
    t = reference.times
    abs_err = np.linalg.norm(reference.outputs - traj.outputs, axis=1)
    orig_norm = np.linalg.norm(reference.outputs, axis=1)
    return _error_report("time", t, orig_norm, abs_err, np.ones(t.shape, dtype=bool),
                         None if window is None else (t >= window.t0) & (t <= window.tf))


def time_error_report(orig, rom, signal, t, window=None):
    """Output-space errors between simulated trajectories on a shared grid.

    Both models are integrated with the same scheme and step, so the
    comparison (:func:`trajectory_errors`) isolates the reduction error.  A
    :class:`~solimbt.system.SecondOrderSystem` reused as ``orig`` with the
    same signal and grid is looked up, not simulated again (see
    :func:`~solimbt.system.simulate`).
    Divergence of either model propagates as
    :class:`~solimbt.errors.NonFiniteState`.  ``rom_stable`` is set as in
    :func:`frequency_error_report`.
    """
    return _with_rom(trajectory_errors(simulate(_unwrap(orig), signal, t),
                                       simulate(_unwrap(rom), signal, t), window=window),
                     rom)
