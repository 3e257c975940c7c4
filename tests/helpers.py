"""Shared builders and reference solvers for the test suite.

Everything is driven by an explicit ``numpy.random.Generator`` so each test
controls its own seed.
"""

import warnings
from functools import lru_cache

import numpy as np
import scipy.linalg as spla

from solimbt import FirstOrderRealization, errors, make_second_order

ORACLE_MAX_DIM = 60  # the oracle's Kronecker operator has N^4 entries


class TooLarge(errors.ConfigCategory):
    """The dense reference solver refused an oversized problem."""


class SingularOperator(errors.SolimbtError):
    """Lyapunov operator is singular (mirror-symmetric pencil eigenvalues)."""


def random_spd(rng, n, spread=0.7):
    """Random symmetric positive definite matrix with moderate conditioning."""
    Q = spla.qr(rng.standard_normal((n, n)))[0]
    w = np.exp(spread * rng.standard_normal(n))
    X = (Q * w) @ Q.T
    return 0.5 * (X + X.T)


def stable_generic(rng, N, m=2, p=2, margin=0.5):
    """Random generic realization whose pencil eigenvalues satisfy
    ``Re(lambda) <= -margin``.

    ``calA = calE A0`` with a shifted dense ``A0``, so the pencil spectrum is
    exactly the spectrum of ``A0`` regardless of ``calE``.
    """
    A0 = rng.standard_normal((N, N))
    lam = np.linalg.eigvals(A0)
    A0 = A0 - (lam.real.max() + margin) * np.eye(N)
    calE = np.eye(N) + 0.1 * rng.standard_normal((N, N))
    return FirstOrderRealization(calE, calE @ A0,
                                 rng.standard_normal((N, m)),
                                 rng.standard_normal((p, N)))


def random_second_order(rng, n, m=1, p=2):
    """Second-order system with SPD mass/damping/stiffness (hence c-stable)."""
    return make_second_order(
        random_spd(rng, n), random_spd(rng, n), random_spd(rng, n),
        rng.standard_normal((n, m)),
        rng.standard_normal((p, n)), rng.standard_normal((p, n)))


def contr_residual(calA, calE, X, rhs):
    """Frobenius residual of ``calA X calE^T + calE X calA^T + rhs = 0``."""
    return spla.norm(calA @ X @ calE.T + calE @ X @ calA.T + rhs)


def obs_residual(calA, calE, X, rhs):
    """Frobenius residual of ``calA^T X calE + calE^T X calA + rhs = 0``."""
    return spla.norm(calA.T @ X @ calE + calE.T @ X @ calA + rhs)


def min_eig(X):
    return float(spla.eigvalsh(0.5 * (X + X.T))[0])


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` for the test; returns the list that collects the
    first argument of every call."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def rhs_blocks(pair):
    """Blocks of a limited right-hand-side pair ``(rhs_c, rhs_o)``:
    ``(B_lim, calB, C_lim, calC)`` of a band and ``(B_t0, B_tf, C_t0, C_tf)``
    of a window, the output maps as rows."""
    rhs_c, rhs_o = pair
    m, p = rhs_c.G.shape[1] // 2, rhs_o.G.shape[1] // 2
    return rhs_c.G[:, :m], rhs_c.G[:, m:], rhs_o.G[:, :p].T, rhs_o.G[:, p:].T


def solve_lyap_dense_oracle(calA, calE, rhs):
    """Dense Kronecker-product reference solver.

    Solves ``calA X calE^T + calE X calA^T + rhs = 0`` by forming the
    ``N^2 x N^2`` operator explicitly.  Deliberately naive and independent of
    the factored solvers; intended for cross-checks only.

    Raises
    ------
    TooLarge
        For ``N > ORACLE_MAX_DIM``.
    SingularOperator
        If the operator is singular (pencil eigenvalues mirrored across the
        imaginary axis).
    """
    A = np.asarray(calA, dtype=float)
    E = np.asarray(calE, dtype=float)
    R = np.asarray(rhs, dtype=float)
    N = A.shape[0]
    if N > ORACLE_MAX_DIM:
        raise TooLarge(f"dense oracle limited to N <= {ORACLE_MAX_DIM}, got {N}")
    if A.shape != (N, N) or E.shape != (N, N) or R.shape != (N, N):
        raise errors.DimensionMismatch("oracle operands must be square and equal-sized")
    L = np.kron(E, A) + np.kron(A, E)
    # scipy's structured fast paths can warn and return inf/nan on an exactly
    # singular operator instead of raising, so judge by the residual either way
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.LinAlgWarning)
        try:
            x = spla.solve(L, -R.flatten(order="F"))
        except spla.LinAlgError as exc:
            raise SingularOperator("Lyapunov operator is singular") from exc
        resid = np.linalg.norm(L @ x + R.flatten(order="F"))
    if not np.isfinite(resid) or resid > 1e-6 * max(np.linalg.norm(R), 1.0):
        raise SingularOperator("Lyapunov operator is numerically singular")
    X = x.reshape((N, N), order="F")
    return 0.5 * (X + X.T)


@lru_cache(maxsize=4)
def _gauss_legendre(points):
    """Read-only Gauss-Legendre nodes and weights on ``[-1, 1]``; computed
    once per point count (``leggauss`` runs an O(points^3) eigensolve)."""
    x, w = np.polynomial.legendre.leggauss(points)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def quadrature_gramian(real, band, points_per_interval=200, side="controllability"):
    """Frequency-domain quadrature of a band-limited Gramian.

    Composite Gauss-Legendre rule per interval applied to

        P_Omega = (1/pi) * integral_Omega Re(R(w) R(w)^H) dw,
        R(w) = (i w calE - calA)^{-1} calB,

    (the symmetric negative half of the band is folded into the weights).
    Returns a factor ``Z`` with ``P_Omega ~= Z Z^T``; the observability side
    uses conjugate-transposed solves against ``calC^T``.  The solves are
    stacked, 256 nodes at a time to bound memory.  Independent of the
    matrix-logarithm route, so it serves as a cross-check oracle.
    """
    if side not in ("controllability", "observability"):
        raise errors.InvalidParams(f"unknown side {side!r}")
    lam = real.pencil_eigenvalues()
    lam = lam[np.isfinite(lam)]
    if lam.size == 0 or np.max(lam.real) >= 0.0:
        raise errors.UnstableRealization("band-limited Gramian needs a c-stable pencil")
    calE, calA = real.calE, real.calA
    if side == "controllability":
        G = real.calB.astype(complex)
    else:
        G = real.calC.conj().T.astype(complex)
    cols = []
    x, w = _gauss_legendre(points_per_interval)
    for a, b in band.intervals:
        nodes = 0.5 * (b - a) * x + 0.5 * (b + a)
        scales = np.sqrt(0.5 * (b - a) * w / np.pi)
        for lo in range(0, nodes.size, 256):
            hi = lo + 256
            S = 1j * nodes[lo:hi, None, None] * calE - calA
            if side == "observability":
                S = S.conj().transpose(0, 2, 1)
            R = scales[lo:hi, None, None] * np.linalg.solve(S, G)
            # per node: real part, then imaginary part, as columns
            cols.append(np.concatenate([R.real, R.imag], axis=2)
                        .transpose(1, 0, 2).reshape(G.shape[0], -1))
    return np.hstack(cols)
