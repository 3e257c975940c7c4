"""Property suites (hypothesis), run derandomized so the suite is
deterministic: every run draws the same examples."""

import tempfile
from unittest import mock

import numpy as np
import scipy.linalg as spla
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import solimbt as slt
from solimbt import matfun, mmio
from solimbt.errors import SingularShiftedSystem
from solimbt.system import _dual_directions, _rcond

from helpers import (random_second_order, random_spd, rhs_blocks, solve_lyap_dense_oracle,
                     stable_generic)

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None,
                         max_examples=60)


@st.composite
def bands(draw):
    """One or two intervals; the first may start at zero."""
    lo = draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0)))
    ivs = [(lo, lo + draw(st.floats(0.05, 5.0)))]
    if draw(st.booleans()):
        a = ivs[0][1] + draw(st.floats(0.05, 3.0))
        ivs.append((a, a + draw(st.floats(0.05, 5.0))))
    return slt.FrequencyBand(ivs)


@st.composite
def pencils(draw):
    """c-stable generic pencils, N <= 12: spectrum left of -0.5 and a
    well-conditioned calE."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return stable_generic(rng, draw(st.integers(1, 12)),
                          m=draw(st.integers(1, 3)), p=draw(st.integers(1, 3)))


def _rel(X, Y):
    return np.linalg.norm(X - Y) / np.linalg.norm(Y)


@DETERMINISTIC
@given(real=pencils(), band=bands())
def test_band_rhs_eig_route_agrees_with_schur_fallback(real, band):
    # only pencils whose eigenvectors admit the eig route count
    V = spla.eig(spla.solve(real.calE, real.calA))[1]
    assume(_rcond(V) >= matfun.EIG_RCOND_MIN)
    B_lim, _, C_lim, _ = rhs_blocks(slt.freq_limited_rhs(real, band))
    with mock.patch.object(matfun, "EIG_RCOND_MIN", np.inf):  # force Schur
        B_s, _, C_s, _ = rhs_blocks(slt.freq_limited_rhs(real, band))
    assert _rel(B_lim, B_s) <= 1e-9
    assert _rel(C_lim, C_s) <= 1e-9


@DETERMINISTIC
@given(real=pencils(), t=st.floats(0.0, 50.0))
def test_expm_action_agrees_with_dense(real, t):
    # the Taylor kernel on its own, whatever its cost against the dense route
    Xt = t * spla.solve(real.calE, real.calA)
    B = spla.solve(real.calE, real.calB)
    ref = spla.expm(Xt) @ B
    R = matfun._expm_action(B, *matfun._taylor_plan(Xt))
    assert np.linalg.norm(R - ref) <= 1e-12 * max(np.linalg.norm(ref), np.linalg.norm(B))


@st.composite
def factored_rhs(draw, N):
    """``G S G^T`` with a definite, a swap (band) or a ``diag(I, -I)``
    (window) signature."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 3))
    ident, zero = np.eye(k), np.zeros((k, k))
    S = draw(st.sampled_from([
        np.eye(2 * k),
        np.block([[zero, ident], [ident, zero]]),
        np.block([[ident, zero], [zero, -ident]])]))
    return slt.IndefiniteRhs(rng.standard_normal((N, 2 * k)), S)


@DETERMINISTIC
@given(data=st.data(), real=pencils())
def test_sign_matches_oracle_on_general_pencils(data, real):
    # calE is nonsymmetric and full, so both the calE^{-1} transform of the
    # controllability factor and the final calE^{-T} solve are exercised
    rhs_c = data.draw(factored_rhs(real.N))
    rhs_o = data.draw(factored_rhs(real.N))
    P, Q, _ = slt.solve_lyap_pencil(real, rhs_c, rhs_o)
    P_ref = solve_lyap_dense_oracle(real.calA, real.calE, rhs_c.dense())
    Q_ref = solve_lyap_dense_oracle(real.calA.T, real.calE.T, rhs_o.dense())
    assert _rel(P.matrix(), P_ref) <= 1e-9
    assert _rel(Q.matrix(), Q_ref) <= 1e-9


@st.composite
def second_order_systems(draw, n_max=6):
    """Second-order systems with SPD ``M, E, K`` (hence c-stable), n <= n_max."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_second_order(rng, draw(st.integers(1, n_max)),
                               m=draw(st.integers(1, 2)), p=draw(st.integers(1, 2)))


FREQS = st.lists(st.floats(0.01, 10.0), min_size=1, max_size=4)


@DETERMINISTIC
@given(sys=second_order_systems(), alpha=st.floats(0.0, 2.0), omegas=FREQS)
def test_alpha_shift_round_trip(sys, alpha, omegas):
    # H~(s) = H(s + alpha), and the back-substitution recovers the system
    shifted = slt.alpha_shift(sys, alpha)
    s = 1j * np.array(omegas)
    H = slt.eval_transfer(sys, s + alpha)
    assert _rel(slt.eval_transfer(shifted, s), H) <= 1e-9
    back = slt.alpha_backsubstitute(shifted, alpha)
    for name in ("M", "B_u", "C_v"):
        assert np.array_equal(getattr(back, name), getattr(sys, name))
    for name in ("E", "K", "C_p"):
        assert (np.linalg.norm(getattr(back, name) - getattr(sys, name))
                <= 1e-13 * np.linalg.norm(getattr(shifted, name)))


@DETERMINISTIC
@given(sys=second_order_systems(), seed=st.integers(0, 2**32 - 1), omegas=FREQS)
def test_choice_of_J_keeps_the_transfer_function(sys, seed, omegas):
    # J = I, J = -K and a random well-conditioned J realize the same H(s)
    rng = np.random.default_rng(seed)
    Q = spla.qr(rng.standard_normal((sys.n, sys.n)))[0]
    J = Q * np.exp(0.5 * rng.standard_normal(sys.n))
    s = 1j * np.array(omegas)
    H = slt.eval_transfer(sys, s)
    for j in ("identity", "neg_k", J):
        assert _rel(slt.eval_transfer(slt.first_companion(sys, j=j), s), H) <= 1e-9


@DETERMINISTIC
@given(sys=second_order_systems(n_max=10), steps=st.integers(1, 1500),
       h=st.floats(0.005, 0.5), seed=st.integers(0, 2**32 - 1))
def test_blocked_simulation_matches_sparse_stepping(sys, steps, h, seed):
    # a dense model with d <= 20 states advances groups of L >= 12 steps;
    # its CSC copy steps row by row through SuperLU
    t = h * np.arange(steps + 1)
    sig = slt.CustomSignal(np.random.default_rng(seed).standard_normal((t.size, sys.m)))
    csc = slt.make_second_order(*(scipy.sparse.csc_array(A) for A in (sys.M, sys.E, sys.K)),
                                sys.B_u, sys.C_p, sys.C_v)
    ref = slt.simulate(csc, sig, t, return_states=True)
    got = slt.simulate(sys, sig, t, return_states=True)
    for a, b in ((got.states, ref.states), (got.outputs, ref.outputs)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@DETERMINISTIC
@given(sys=second_order_systems(), omegas=FREQS)
def test_companion_and_dissipative_realizations_agree(sys, omegas):
    # criterion 09 on random systems: the same transfer function, and the
    # sign-route observability Gramian of the dissipative form maps back to
    # the companion form's
    comp = slt.first_companion(sys)
    diss = slt.strictly_dissipative(sys)
    s = 1j * np.array(omegas)
    assert _rel(slt.eval_transfer(diss, s), slt.eval_transfer(comp, s)) <= 1e-6
    obs = slt.infinite_gramians(diss).observability
    Q = slt.GramianFactor(slt.gramian_backtransform(obs.Z, sys, diss.gamma), obs.Y)
    assert _rel(Q.matrix(), slt.infinite_gramians(comp).observability.matrix()) <= 1e-8


@st.composite
def partly_hidden_systems(draw):
    """Random systems whose inputs and outputs reach ``live`` of their
    ``live + hidden`` states, so the interpolation directions have singular
    values at rounding level as well; a dense system hides those states by
    an orthogonal change of coordinates, a CSC one by a permutation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    live, hidden = draw(st.integers(1, 10)), draw(st.integers(0, 6))
    m, p = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    sys = random_second_order(rng, live, m=m, p=p)
    mats = [spla.block_diag(A, random_spd(rng, hidden) if hidden else np.zeros((0, 0)))
            for A in (sys.M, sys.E, sys.K)]
    B = np.vstack([sys.B_u, np.zeros((hidden, m))])
    C_p, C_v = (np.hstack([C, np.zeros((p, hidden))]) for C in (sys.C_p, sys.C_v))
    if draw(st.booleans()):
        Q = np.eye(live + hidden)[:, rng.permutation(live + hidden)]
        mats = [scipy.sparse.csc_array(Q.T @ A @ Q) for A in mats]
    else:
        Q = spla.qr(rng.standard_normal((live + hidden,) * 2))[0]
        mats = [Q.T @ A @ Q for A in mats]
    return slt.make_second_order(*mats, Q.T @ B, C_p @ Q, C_v @ Q)


@DETERMINISTIC
@given(sys=partly_hidden_systems(), omegas=FREQS, tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]))
def test_hybrid_basis_matches_orth_of_all_directions(sys, omegas, tol):
    # the basis grown point by point against one SVD of every direction:
    # orthonormal and as close to the directions as the rank cut allows, and,
    # where no singular value lies within 10^1.5 of the cut, of the same
    # order, for unique and for repeated sample frequencies alike
    omegas = np.array(omegas)
    D = _dual_directions(sys, 1j * omegas, SingularShiftedSystem)
    _, V = slt.hybrid_prereduce(sys, omegas, tol)
    sv = spla.svdvals(D)
    assert np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) <= 1e-12
    assert np.linalg.norm(D - V @ (V.T @ D), 2) <= 10 * tol * sv[0]
    cut = tol * sv[0]
    if not np.any((sv > cut / 10**1.5) & (sv < cut * 10**1.5)):
        _, V_twice = slt.hybrid_prereduce(sys, np.concatenate([omegas, omegas]), tol)
        assert V.shape[1] == V_twice.shape[1] == spla.orth(D, rcond=tol).shape[1]


@st.composite
def bundled_systems(draw):
    """Systems with dense or CSC ``M, E, K`` whose fill ranges from the
    diagonal alone to full, so some bundles load dense and some sparse."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    density = draw(st.floats(0.0, 1.0))

    def block():
        R = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
        return scipy.sparse.csc_array(R + 3.0 * n * np.eye(n))

    mats = [block() for _ in range(3)]
    if not draw(st.booleans()):
        mats = [A.toarray() for A in mats]
    return slt.make_second_order(*mats, rng.standard_normal((n, 2)),
                                 rng.standard_normal((3, n)), rng.standard_normal((3, n)))


def _as_dense(A):
    return A.toarray() if scipy.sparse.issparse(A) else A


@DETERMINISTIC
@given(sys=bundled_systems())
def test_bundle_round_trip_is_bit_exact(sys):
    with tempfile.TemporaryDirectory() as tmp:
        slt.save_bundle(tmp, sys)
        back, _ = slt.load_bundle(tmp)
    for name in ("M", "E", "K", "B_u", "C_p", "C_v"):
        assert np.array_equal(_as_dense(getattr(back, name)), _as_dense(getattr(sys, name)))
    dense = all(np.count_nonzero(_as_dense(getattr(sys, k))) >= mmio.DENSE_FILL_MIN * sys.n**2
                for k in "MEK")
    assert all(scipy.sparse.issparse(getattr(back, k)) != dense for k in "MEK")


@DETERMINISTIC
@given(sigma=st.lists(st.floats(1e-12, 1e3), min_size=1, max_size=30),
       tols=st.lists(st.floats(1e-12, 10.0), min_size=2, max_size=5),
       fixed=st.integers(1, 30))
def test_select_order_shrinks_as_tol_grows_and_fixed_order_wins(sigma, tols, fixed):
    sigma = np.sort(sigma)[::-1]
    tols = sorted(tols)
    orders = [slt.select_order(sigma, tol=tol) for tol in tols]
    assert all(1 <= r <= sigma.size for r in orders)
    assert all(a >= b for a, b in zip(orders, orders[1:]))
    r = min(fixed, sigma.size)
    assert all(slt.select_order(sigma, tol=tol, fixed_r=r) == r for tol in tols)
