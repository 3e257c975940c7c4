"""Matrix-function machinery for limited Gramians.

Frequency-limited balancing needs

    F_Omega = Re((i/pi) * log(prod_k (calA + i w_{2k-1} calE)^{-1}
                                     (calA + i w_{2k} calE))) calE^{-1},

time-limited balancing needs propagated input/output maps
``B_t = exp(calA calE^{-1} t) calB`` and ``C_t = calC exp(calE^{-1} calA t)``.
Both enter indefinite right-hand sides of generalized Lyapunov equations;
``freq_limited_rhs`` and ``time_limited_rhs`` return them in the factored
``G S G^T`` form the solvers take.

The logarithm is taken on one eigendecomposition ``V diag(lambda) V^{-1}`` of
``calE^{-1} calA``: the scalar band product is evaluated on ``lambda`` and
``V^{-1}`` is applied to thin blocks through one LU of ``V``.  When the
estimated reciprocal condition number of ``V`` is below ``EIG_RCOND_MIN``
(1e-4, which keeps the ``cond(V) * eps`` error of that route fifty times
under the 1e-10 the results are held to), the complex Schur form and
``logm_principal`` take over.  The exponentials are never formed where
their action on the thin blocks ``calE^{-1} calB`` and ``calC^T`` is cheaper:
truncated Taylor steps (Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011)
cost only products with ``calE^{-1} calA``, and a window endpoint takes one
dense ``expm`` only when their bound exceeds ``EXPM_ACTION_MAX``.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from .errors import (
    BranchCutViolation,
    DimensionMismatch,
    InvalidParams,
    NonFinite,
    UnstableRealization,
)
from .lyapunov import IndefiniteRhs
from .system import _lu_rcond

TWO_PI = 2.0 * np.pi

# least reciprocal 1-norm condition number of the eigenvector matrix for
# the eigendecomposition route of the band logarithm (module docstring)
EIG_RCOND_MIN = 1e-4

# theta_m of Al-Mohy & Higham (2011), table 3.1: m Taylor terms of exp(A) B
# reach double-precision unit roundoff while ||A||_1 <= theta_m
_THETA = {20: 1.44, 25: 2.43, 30: 3.54, 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}

# The action exp(A) B is taken while its Taylor bound m*s times the width
# of B is at most EXPM_ACTION_MAX * N: each step is a product with an N x k
# block, against O(N^3) for a dense exponential that grows only like
# log ||A||.  Measured with one BLAS thread on a 2-core Xeon VM (chain
# models, window ends 5-1000 s), the crossover lies between 2 N (N = 120)
# and 13 N (N = 600); past it the action's cost grows linearly in t ||A||.
EXPM_ACTION_MAX = 8

BRANCH_TOL = 1e-12  # relative distance to (-inf, 0] that counts as on it


@dataclass(frozen=True)
class FrequencyBand:
    """Union of closed intervals on the nonnegative frequency axis, in rad/s.

    The band is implicitly symmetric: ``[a, b]`` stands for
    ``[-b, -a] union [a, b]``.  Intervals must be sorted, non-overlapping and
    have nonnegative endpoints.
    """

    intervals: tuple

    def __init__(self, intervals):
        ivs = tuple((float(a), float(b)) for a, b in intervals)
        if not ivs:
            raise InvalidParams("band needs at least one interval")
        last = -np.inf
        for a, b in ivs:
            if a < 0 or b <= a:
                raise InvalidParams(f"bad band interval [{a}, {b}]")
            if a < last:
                raise InvalidParams("band intervals must be sorted and non-overlapping")
            last = b
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def from_hz(cls, intervals):
        return cls([(TWO_PI * a, TWO_PI * b) for a, b in intervals])

    @property
    def hull(self):
        return (self.intervals[0][0], self.intervals[-1][1])

    def mask(self, omega):
        """Boolean mask of grid points (rad/s) inside the band."""
        omega = np.asarray(omega, dtype=float)
        m = np.zeros(omega.shape, dtype=bool)
        for a, b in self.intervals:
            m |= (omega >= a) & (omega <= b)
        return m


@dataclass(frozen=True)
class TimeWindow:
    """Time interval ``[t0, tf]`` with ``0 <= t0 < tf``."""

    t0: float
    tf: float

    def __post_init__(self):
        if not (0.0 <= self.t0 < self.tf):
            raise InvalidParams(f"bad time window [{self.t0}, {self.tf}]")


def _taylor_plan(A):
    """``(S, mu, m, s)`` for the Taylor action of ``exp(A)``: the shifted
    ``S = A - mu I`` with ``mu = trace(A) / N``, and the degree ``m`` and
    step count ``s`` with the least bound ``m s`` such that
    ``||S||_1 / s <= theta_m``."""
    mu = np.trace(A) / A.shape[0]
    S = np.array(A, dtype=np.result_type(A.dtype, np.float64))
    S.flat[::A.shape[0] + 1] -= mu
    norm = np.linalg.norm(S, 1)
    m, s = min(((m, max(1, int(np.ceil(norm / theta)))) for m, theta in _THETA.items()),
               key=lambda ms: ms[0] * ms[1])
    return S, mu, m, s


def _expm_action(B, S, mu, m, s):
    """``exp(S + mu I) B`` by ``s`` truncated Taylor steps of degree ``m``
    (Al-Mohy & Higham 2011, algorithm 3.2 with the exact 1-norm, so no norm
    estimator draws random numbers); a step ends once two consecutive terms
    fall below unit roundoff relative to the sum.

    The steps run on the rows ``R = B^T`` as ``R S^T``: for an F-ordered
    ``S`` such as ``X^T t`` and a few columns, that row-major product took
    half the time of ``S B`` (OpenBLAS, N = 600, three columns).
    """
    eta = np.exp(mu / s)
    R = F = B.T
    for _ in range(s):
        c1 = np.linalg.norm(R, 1)
        for j in range(1, m + 1):
            R = (R @ S.T) / (s * j)
            c2 = np.linalg.norm(R, 1)
            F = F + R
            if c1 + c2 <= 2.0**-53 * np.linalg.norm(F, 1):
                break
            c1 = c2
        F = eta * F
        R = F
    return F.T


def expm(A, B=None, *, _plan=None):
    """Matrix exponential ``exp(A)`` (``scipy.linalg.expm``), or its action
    ``exp(A) @ B`` on a block ``B`` with typed errors.

    The action runs truncated Taylor steps on ``A - (trace(A) / N) I`` and
    forms no ``N x N`` exponential unless that is cheaper
    (``EXPM_ACTION_MAX``, see the module docstring).  ``_plan`` is the
    ``_taylor_plan(A)`` of a caller that has already built it.

    Raises
    ------
    DimensionMismatch
        If ``A`` is not square or ``B`` does not have ``N`` rows.
    NonFinite
        On non-finite input, or when the result overflows (extreme
        ``t * spectral radius``; rescale the argument).
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch("expm needs a square matrix")
    if B is not None:
        B = np.asarray(B)
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise DimensionMismatch("expm(A, B) needs an N-row block B")
    if not (np.all(np.isfinite(A)) and (B is None or np.all(np.isfinite(B)))):
        raise NonFinite("expm input has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        if B is None:
            R = spla.expm(A)
        else:
            S, mu, m, s = _taylor_plan(A) if _plan is None else _plan
            if m * s * B.shape[1] <= EXPM_ACTION_MAX * A.shape[0]:
                R = _expm_action(B, S, mu, m, s)
            else:
                R = spla.expm(A) @ B
    if not np.all(np.isfinite(R)):
        raise NonFinite("expm overflowed; rescale the argument")
    return R


def _check_branch_cut(lam):
    """Raise ``BranchCutViolation`` if an eigenvalue ``lam`` of a logarithm's
    argument lies on ``(-inf, 0]`` within ``BRANCH_TOL``."""
    scale = np.max(np.abs(lam))
    if scale == 0.0:
        raise BranchCutViolation("zero matrix has no logarithm")
    on_cut = (np.abs(lam.imag) <= BRANCH_TOL * np.abs(lam)) & (lam.real <= 0.0)
    if np.any(on_cut | (np.abs(lam) <= BRANCH_TOL * scale)):
        raise BranchCutViolation("eigenvalue on the closed negative real axis")


def logm_principal(A):
    """Principal matrix logarithm (inverse scaling and squaring).

    Checks the spectrum first and refuses arguments with an eigenvalue on the
    closed negative real axis, where the principal branch is not defined.
    For upper-triangular input the spectrum is the diagonal, and scipy
    skips its own Schur form; other input goes through ``eigvals``.

    The result is judged by the relative backward error
    ``||expm(L) - A||_1 / ||A||_1``.  A ``UserWarning`` reading "matrix
    logarithm may be inaccurate" is issued only when that estimate exceeds
    ``1e-8`` or is not finite.  scipy computes the same estimate and warns
    from ``1000*eps`` on regardless of the dimension; its ``RuntimeWarning``
    is suppressed, and only when it fires is the estimate formed again here
    and judged against ``1e-8``.

    Raises
    ------
    BranchCutViolation
        If an eigenvalue lies on ``(-inf, 0]`` within ``BRANCH_TOL``.
    NonFinite
        If the input or the computed logarithm has non-finite entries.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch("logm needs a square matrix")
    if not np.all(np.isfinite(A)):
        raise NonFinite("logm input has non-finite entries")
    _check_branch_cut(np.diag(A) if np.array_equal(A, np.triu(A))
                      else np.linalg.eigvals(A))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        L = spla.logm(A)
    inaccurate = False
    for w in caught:
        if str(w.message).startswith("logm result may be inaccurate"):
            inaccurate = True
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if not np.all(np.isfinite(L)):
        raise NonFinite("logm produced non-finite entries")
    # scipy is silent only below 1000*eps, far under our threshold
    if inaccurate:
        errest = np.linalg.norm(spla.expm(L) - A, 1) / np.linalg.norm(A, 1)
        if not np.isfinite(errest) or errest > 1e-8:
            warnings.warn(f"matrix logarithm may be inaccurate "
                          f"(estimated error {errest:.2e})", stacklevel=2)
    return L


def _band_logarithm(X, band):
    """``log(G)`` of the band product as the maps ``Y -> log(G) Y`` and
    ``Y -> Y log(G)``.

    ``G`` is a rational function ``g`` of ``X = calE^{-1} calA``.  The
    eigenvalues of ``X`` give the stability and branch-cut checks, and,
    unless ``V`` is too ill-conditioned,
    ``log(G) = V diag(log g(lambda)) V^{-1}``.  The fallback keeps ``G``
    upper triangular on the complex Schur form of ``X``.
    """
    lam, V = spla.eig(X)
    if np.max(lam.real) >= 0.0:
        raise UnstableRealization("band-limited right-hand side needs a c-stable pencil")
    ivs = band.intervals
    zero_start = len(ivs) == 1 and ivs[0][0] == 0.0
    if zero_start:
        g = -lam - 1j * ivs[0][1]
    else:
        g = np.prod([(lam + 1j * b) / (lam + 1j * a) for a, b in ivs], axis=0)
    _check_branch_cut(g)
    lu, rcond = _lu_rcond(V)
    if rcond >= EIG_RCOND_MIN:
        log_g = np.log(g)
        return (lambda Y: V @ (log_g[:, None] * spla.lu_solve(lu, Y)),
                lambda Y: spla.lu_solve(lu, ((Y @ V) * log_g).T, trans=1).T)
    T, Z = spla.rsf2csf(*spla.schur(X))
    ident = np.eye(T.shape[0])
    if zero_start:
        G = -T - 1j * ivs[0][1] * ident
    else:
        G = ident.astype(complex)
        for a, b in ivs:
            G = G @ spla.solve_triangular(T + 1j * a * ident, T + 1j * b * ident)
    LT = logm_principal(G)
    return (lambda Y: Z @ (LT @ (Z.conj().T @ Y)),
            lambda Y: ((Y @ Z) @ LT) @ Z.conj().T)


def freq_limited_rhs(real, band):
    """Factored band-limited right-hand sides ``(rhs_c, rhs_o)``:
    ``IndefiniteRhs.swap(B_lim, calB)`` and ``IndefiniteRhs.swap(C_lim^T, calC^T)``
    with ``B_lim = calE F_Omega calB = calE R calE^{-1} calB``,
    ``C_lim = calC F_Omega calE = calC R``, ``F_Omega = R calE^{-1}`` and
    ``R = Re((i/pi) log(G))``.

    A single interval starting at zero takes the symmetric-band
    simplification ``R = Re((i/pi) log(-calE^{-1} calA - i w I))``; the
    general case takes one logarithm of the interval product.  ``log(G)``
    comes from one eigendecomposition of ``X = calE^{-1} calA`` of
    ``real.standard_form()``, or from the
    complex Schur form and ``logm_principal`` when the eigenvectors are too
    ill-conditioned (``EIG_RCOND_MIN``, see the module docstring).  All
    factors are applied to thin blocks; no N x N product is formed.

    Raises
    ------
    UnstableRealization
        If the pencil is not c-stable or ``calE`` is singular.
    BranchCutViolation
        If an eigenvalue of the band product lies on the closed negative
        real axis (the tolerance of ``logm_principal``).
    """
    X, EinvB = real.standard_form()
    log_times, times_log = _band_logarithm(X, band)
    # R is real, so R Y = Re((i/pi) log(G) Y) for a real block Y
    RB = np.real((1j / np.pi) * log_times(EinvB))
    CR = np.real((1j / np.pi) * times_log(real.calC))
    return (IndefiniteRhs.swap(real.calE @ RB, real.calB),
            IndefiniteRhs.swap(CR.T, real.calC.T))


def time_limited_rhs(real, window):
    """Factored window-limited right-hand sides ``(rhs_c, rhs_o)``:
    ``IndefiniteRhs.difference(B_t0, B_tf)`` and
    ``IndefiniteRhs.difference(C_t0^T, C_tf^T)`` with the propagated maps
    ``B_t = exp(calA calE^{-1} t) calB`` and ``C_t = calC exp(calE^{-1} calA t)``.

    With ``(X, calE^{-1} calB)`` of ``real.standard_form()``,
    ``B_t = calE exp(X t) calE^{-1} calB`` and
    ``C_t^T = exp(X^T t) calC^T`` are actions of the exponential on thin
    blocks, which ``expm(A, B)`` evaluates by Taylor steps without forming
    ``exp(X t)``.  When their Taylor bounds together exceed one dense
    exponential (``EXPM_ACTION_MAX``), the endpoint takes a single
    ``expm(X t)`` for both sides.  The left endpoint ``t0 = 0``
    short-circuits to the unpropagated maps.

    Raises
    ------
    InvalidParams
        If the window end is infinite: use ``bt`` for ``[0, inf)``.
    UnstableRealization
        If ``calE`` is singular.
    """
    if not np.isfinite(window.tf):
        raise InvalidParams(
            f"time-limited right-hand side needs a finite window, got "
            f"[{window.t0}, {window.tf}]; use method bt for [0, inf)")
    calE, calB, calC = real.calE, real.calB, real.calC
    X, EinvB = real.standard_form()

    def maps(t):
        if t == 0.0:
            return calB, calC
        Xt = X * t
        plan_b, plan_c = _taylor_plan(Xt), _taylor_plan(Xt.T)
        cost = real.m * np.prod(plan_b[2:]) + real.p * np.prod(plan_c[2:])
        if cost <= EXPM_ACTION_MAX * real.N:
            return (calE @ expm(Xt, EinvB, _plan=plan_b),
                    expm(Xt.T, calC.T, _plan=plan_c).T)
        W = expm(Xt)
        return calE @ (W @ EinvB), calC @ W

    B_t0, C_t0 = maps(window.t0)
    B_tf, C_tf = maps(window.tf)
    return (IndefiniteRhs.difference(B_t0, B_tf),
            IndefiniteRhs.difference(C_t0.T, C_tf.T))
