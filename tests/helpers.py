"""Shared builders for the test suite.

Everything is driven by an explicit ``numpy.random.Generator`` so each test
controls its own seed.
"""

import numpy as np
import scipy.linalg as spla

from solimbt import FirstOrderRealization, make_second_order


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
