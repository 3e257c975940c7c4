"""Second-order containers, realizations, simulation and stability checks."""

import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse
from numpy.testing import assert_allclose

import solimbt as slt
from solimbt import errors
from solimbt import system
from solimbt.system import _dense, _shifted_solves, dissipative_backtransform_matrix

from helpers import count_calls, random_second_order, random_spd, solve_lyap_dense_oracle


def test_chain_matrices_frozen():
    # n = 4: ground springs 4,2,2,4 / dampers 10,5,5,10, couplings k=2, d=5,
    # masses 100.  Assembled by hand.
    sys = slt.generate_chain(4)
    for A in (sys.M, sys.E, sys.K):
        assert isinstance(A, scipy.sparse.csc_array)
    assert_allclose(sys.M.toarray(), 100.0 * np.eye(4))
    K = np.array([[6.0, -2.0, 0.0, 0.0],
                  [-2.0, 6.0, -2.0, 0.0],
                  [0.0, -2.0, 6.0, -2.0],
                  [0.0, 0.0, -2.0, 6.0]])
    E = np.array([[15.0, -5.0, 0.0, 0.0],
                  [-5.0, 15.0, -5.0, 0.0],
                  [0.0, -5.0, 15.0, -5.0],
                  [0.0, 0.0, -5.0, 15.0]])
    assert_allclose(sys.K.toarray(), K)
    assert_allclose(sys.E.toarray(), E)
    B = np.zeros((4, 1))
    B[0, 0] = 1.0
    assert_allclose(sys.B_u, B)
    # outputs: positions of masses 1, 2 and n-1
    C = np.zeros((3, 4))
    C[0, 0] = C[1, 1] = C[2, 2] = 1.0
    assert_allclose(sys.C_p, C)
    assert_allclose(sys.C_v, np.zeros((3, 4)))
    assert (sys.n, sys.m, sys.p) == (4, 1, 3)


def test_chain_custom_parameters():
    sys = slt.generate_chain(3, masses=[1.0, 2.0, 3.0], ground_stiffness=1.0,
                             coupling_stiffness=[10.0, 20.0],
                             ground_damping=[0.1, 0.2, 0.3],
                             coupling_damping=1.0)
    assert all(scipy.sparse.issparse(A) for A in (sys.M, sys.E, sys.K))
    assert_allclose(sys.M.toarray(), np.diag([1.0, 2.0, 3.0]))
    assert_allclose(sys.K.toarray(), np.array([[11.0, -10.0, 0.0],
                                               [-10.0, 31.0, -20.0],
                                               [0.0, -20.0, 21.0]]))
    assert_allclose(sys.E.toarray(), np.array([[1.1, -1.0, 0.0],
                                               [-1.0, 2.2, -1.0],
                                               [0.0, -1.0, 1.3]]))


def test_chain_invalid_parameters():
    with pytest.raises(errors.InvalidParams):
        slt.generate_chain(1)
    with pytest.raises(errors.InvalidParams):
        slt.generate_chain(4, masses=-1.0)
    with pytest.raises(errors.InvalidParams):
        slt.generate_chain(4, coupling_stiffness=[1.0, 2.0])  # needs n-1 = 3


def test_make_second_order_shape_errors(capfd):
    ident = np.eye(3)
    B = np.ones((3, 1))
    C = np.ones((2, 3))
    with pytest.raises(errors.DimensionMismatch):
        slt.make_second_order(ident, np.eye(2), ident, B, C, C)
    with pytest.raises(errors.DimensionMismatch):
        slt.make_second_order(ident, ident, ident, np.ones((2, 1)), C, C)
    with pytest.raises(errors.DimensionMismatch):
        slt.make_second_order(ident, ident, ident, B, np.ones((2, 4)), C)
    with pytest.raises(errors.DimensionMismatch):
        slt.make_second_order(ident, ident, ident, B, C, np.ones((1, 3)))
    with pytest.raises(errors.InvalidParams):
        slt.make_second_order(ident * np.nan, ident, ident, B, C, C)
    # an empty model fails before LAPACK sees it (which would print an
    # "illegal value" line to stderr and find M singular)
    for empty in (np.zeros((0, 0)), scipy.sparse.csc_array((0, 0))):
        with pytest.raises(errors.DimensionMismatch):
            slt.make_second_order(empty, empty, empty, np.zeros((0, 1)),
                                  np.zeros((2, 0)), np.zeros((2, 0)))
    assert capfd.readouterr().err == ""


def test_system_matrices_are_read_only_copies():
    rng = np.random.default_rng(3)
    M, E, K = (random_spd(rng, 3) for _ in range(3))
    B, C = np.ones((3, 1)), np.ones((2, 3))
    Ms = scipy.sparse.csc_array(M)
    dense = slt.make_second_order(M, E, K, B, C, C)
    sparse = slt.make_second_order(Ms, E, K, B, C, C)
    for sys in (dense, sparse, _dense(sparse), slt.generate_chain(4)):
        bufs = [sys.B_u, sys.C_p, sys.C_v]
        for A in (sys.M, sys.E, sys.K):
            bufs += (A.data, A.indices, A.indptr) if scipy.sparse.issparse(A) else [A]
        for buf in bufs:
            with pytest.raises(ValueError, match="read-only"):
                buf.flat[0] = 7
    # the caller's arrays stay writable, and writing to them changes no system
    M0 = M.copy()
    M[0, 0] = B[0, 0] = Ms.data[0] = 7.0
    assert np.array_equal(dense.M, M0) and np.array_equal(sparse.M.toarray(), M0)
    assert dense.B_u[0, 0] == sparse.B_u[0, 0] == 1.0
    # so are the matrices and the standard form of the realizations built
    # on a system, whose caches would otherwise go stale
    real = slt.first_companion(dense)
    for r in (real, slt.strictly_dissipative(dense),
              slt.first_order_bt(real, fixed_r=2).realization):
        for buf in (r.calE, r.calA, r.calB, r.calC, *r.standard_form()):
            with pytest.raises(ValueError, match="read-only"):
                buf.flat[0] = 7


def test_singular_mass_rejected():
    M = np.diag([1.0, 0.0])
    with pytest.raises(errors.SingularMass):
        slt.make_second_order(M, np.eye(2), np.eye(2), np.ones((2, 1)),
                              np.ones((1, 2)), np.zeros((1, 2)))


def test_singular_mass_factorization_check():
    # exactly singular (zero pivot) and numerically singular masses, dense
    # and sparse; a well-conditioned sparse mass passes and stays sparse
    ones = np.ones((2, 1))
    for diag in ([1.0, 0.0], [1.0, 1e-20]):
        for M in (np.diag(diag), scipy.sparse.diags_array(diag)):
            with pytest.raises(errors.SingularMass):
                slt.make_second_order(M, np.eye(2), np.eye(2), ones,
                                      ones.T, np.zeros((1, 2)))
    sys = slt.make_second_order(scipy.sparse.diags_array([1.0, 1e-3]), np.eye(2),
                                np.eye(2), ones, ones.T, np.zeros((1, 2)))
    assert all(scipy.sparse.issparse(A) for A in (sys.M, sys.E, sys.K))
    bad = scipy.sparse.csc_array(np.diag([1.0, np.inf]))
    with pytest.raises(errors.InvalidParams):
        slt.make_second_order(np.eye(2), bad, np.eye(2), ones, ones.T, ones.T)


def test_companion_structure():
    sys = slt.generate_chain(2)
    assert all(scipy.sparse.issparse(A) for A in (sys.M, sys.E, sys.K))
    real = slt.first_companion(sys)
    n = 2
    M, E, K = (A.toarray() for A in (sys.M, sys.E, sys.K))
    assert_allclose(real.calE[:n, :n], np.eye(n))
    assert_allclose(real.calE[n:, n:], M)
    assert_allclose(real.calA[:n, n:], np.eye(n))
    assert_allclose(real.calA[n:, :n], -K)
    assert_allclose(real.calA[n:, n:], -E)
    assert_allclose(real.calB[n:], sys.B_u)
    assert_allclose(real.calC, np.hstack([sys.C_p, sys.C_v]))

    neg = slt.first_companion(sys, j="neg_k")
    assert_allclose(neg.calE[:n, :n], -K)
    assert_allclose(neg.calA[:n, n:], -K)


def test_companion_transfer_invariant_under_j():
    # The coupling block is a free choice; the transfer function must not
    # move.
    rng = np.random.default_rng(7)
    sys = random_second_order(rng, 5, m=2, p=2)
    pts = 1j * np.array([0.1, 1.0, 10.0]) + 0.05
    H_sys = slt.eval_transfer(sys, pts)
    for j in ("identity", "neg_k", rng.standard_normal((5, 5))):
        real = slt.first_companion(sys, j=j)
        assert_allclose(slt.eval_transfer(real, pts), H_sys,
                        rtol=1e-10, atol=1e-12)


def test_companion_singular_j():
    sys = slt.generate_chain(3)
    with pytest.raises(errors.SingularJ):
        slt.first_companion(sys, j=np.zeros((3, 3)))
    with pytest.raises(errors.SingularJ):  # numerically singular
        slt.first_companion(sys, j=np.diag([1.0, 1.0, 1e-20]))
    floating = slt.make_second_order(np.eye(2), np.eye(2), np.zeros((2, 2)),
                                     np.ones((2, 1)), np.ones((1, 2)),
                                     np.zeros((1, 2)))
    with pytest.raises(errors.SingularJ):
        slt.first_companion(floating, j="neg_k")
    slt.first_companion(floating)  # the identity needs no K
    with pytest.raises(errors.InvalidParams):
        slt.first_companion(sys, j="bogus")


def test_dissipative_scalar_frozen():
    # M = E = K = 1: bound = lambda_min(E (M + E K^-1 E / 4)^-1) = 1/1.25,
    # default shift is half of that.
    sys = slt.make_second_order([[1.0]], [[1.0]], [[1.0]], [[1.0]],
                                [[1.0]], [[0.0]])
    assert slt.dissipativity_shift_bound(sys) == pytest.approx(0.8, abs=1e-14)
    real = slt.strictly_dissipative(sys)
    assert real.gamma == pytest.approx(0.4)
    assert_allclose(real.calE, [[1.0, 0.4], [0.4, 1.0]], atol=1e-14)
    assert_allclose(real.calA, [[-0.4, 0.6], [-1.0, -0.6]], atol=1e-14)
    assert_allclose(real.calB, [[0.4], [1.0]], atol=1e-14)
    assert_allclose(real.calC, [[1.0, 0.0]])


def test_dissipative_definiteness_and_transfer():
    rng = np.random.default_rng(11)
    sys = random_second_order(rng, 6, m=2, p=3)
    real = slt.strictly_dissipative(sys)
    # calE SPD, symmetric part of calA negative definite
    assert spla.eigvalsh(0.5 * (real.calE + real.calE.T))[0] > 0
    assert spla.eigvalsh(0.5 * (real.calA + real.calA.T))[-1] < 0
    pts = 1j * np.logspace(-1, 1, 5)
    assert_allclose(slt.eval_transfer(real, pts), slt.eval_transfer(sys, pts),
                    rtol=1e-9, atol=1e-12)


def test_dissipative_gamma_range():
    sys = slt.make_second_order([[1.0]], [[1.0]], [[1.0]], [[1.0]],
                                [[1.0]], [[0.0]])
    for gamma in (0.0, 0.8, 1.5, -0.1):
        with pytest.raises(errors.GammaOutOfRange):
            slt.strictly_dissipative(sys, gamma=gamma)
    real = slt.strictly_dissipative(sys, gamma=0.79)
    assert real.gamma == pytest.approx(0.79)


def test_dissipative_requires_spd():
    ident = np.eye(2)
    B = np.ones((2, 1))
    C = np.ones((1, 2))
    bad_sym = slt.SecondOrderSystem(ident, np.array([[1.0, 1.0], [0.0, 1.0]]),
                                    ident, B, C, C)
    with pytest.raises(errors.NotSPD):
        slt.strictly_dissipative(bad_sym)
    indef = slt.SecondOrderSystem(ident, ident, -ident, B, C, C)
    with pytest.raises(errors.NotSPD):
        slt.strictly_dissipative(indef)


def test_dissipative_backtransform_recovers_companion_gramian():
    # Solve the observability equation in both realizations with the dense
    # reference solver; the congruence with T must map one onto the other.
    rng = np.random.default_rng(3)
    sys = random_second_order(rng, 3, m=1, p=2)
    comp = slt.first_companion(sys)
    diss = slt.strictly_dissipative(sys)
    Qc = solve_lyap_dense_oracle(comp.calA.T, comp.calE.T,
                                 comp.calC.T @ comp.calC)
    Qd = solve_lyap_dense_oracle(diss.calA.T, diss.calE.T,
                                 diss.calC.T @ diss.calC)
    T = dissipative_backtransform_matrix(sys, diss.gamma)
    assert_allclose(T.T @ Qd @ T, Qc, rtol=1e-9, atol=1e-12)
    # factor form
    Z = rng.standard_normal((6, 2))
    assert_allclose(slt.gramian_backtransform(Z, sys, diss.gamma), T.T @ Z)
    with pytest.raises(errors.DimensionMismatch):
        slt.gramian_backtransform(np.ones((4, 1)), sys, diss.gamma)


def test_gramian_backtransform_by_blocks_dense_and_sparse():
    # the block formula agrees with the dense 2n x 2n transform, and takes
    # the chain's sparse M and K as they are
    chain = slt.generate_chain(30)
    gamma = slt.strictly_dissipative(chain).gamma
    Z = np.random.default_rng(4).standard_normal((60, 5))
    ref = dissipative_backtransform_matrix(chain, gamma).T @ Z
    for sys in (_dense(chain), chain):
        got = slt.gramian_backtransform(Z, sys, gamma)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_eval_transfer_scalar_frozen():
    # H(s) = 1 / (s^2 + 2 s + 1), so H(1) = 1/4 and H(i) = 1/(2i) = -i/2.
    sys = slt.make_second_order([[1.0]], [[2.0]], [[1.0]], [[1.0]],
                                [[1.0]], [[0.0]])
    assert slt.eval_transfer(sys, 1.0)[0, 0] == pytest.approx(0.25)
    assert slt.eval_transfer(sys, 1j)[0, 0] == pytest.approx(-0.5j)
    H = slt.eval_transfer(sys, np.array([1.0, 2.0, 1j]))
    assert H.shape == (3, 1, 1)
    assert H[1, 0, 0] == pytest.approx(1.0 / 9.0)


def test_eval_transfer_at_pole():
    # Undamped oscillator: poles at +-i exactly.
    sys = slt.make_second_order([[1.0]], [[0.0]], [[1.0]], [[1.0]],
                                [[1.0]], [[0.0]])
    with pytest.raises(errors.SingularAtFrequency):
        slt.eval_transfer(sys, 1j)


def _sparse_oscillator(pattern):
    """An undamped sparse model with the exact pole ``s = 1j`` whose pattern
    takes the band LU (a unit mass on a unit spring) or SuperLU (three unit
    masses, the outer two coupled by a spring: the diagonal and two
    corners fill 5 of the 9 entries of their band)."""
    sp = scipy.sparse.csc_array
    if pattern == "band":
        return slt.make_second_order(sp([[1.0]]), sp([[0.0]]), sp([[1.0]]),
                                     [[1.0]], [[1.0]], [[0.0]])
    K = sp([[1.5, 0.0, 0.5], [0.0, 2.0, 0.0], [0.5, 0.0, 1.5]])  # eigenvalue 1
    return slt.make_second_order(sp(np.eye(3)), sp((3, 3)), K, np.ones((3, 1)),
                                 np.ones((1, 3)), np.zeros((1, 3)))


def test_eval_transfer_at_pole_sparse(monkeypatch):
    # an exactly singular factor, band LU or SuperLU, gives the typed error
    # without a warning, or a NaN block with skip_poles
    bands = count_calls(monkeypatch, system, "_band_lu")
    lus = count_calls(monkeypatch, scipy.sparse.linalg, "splu")
    for pattern, counts in (("band", (3, 0)), ("superlu", (0, 3))):
        sys = _sparse_oscillator(pattern)
        bands.clear()
        lus.clear()  # the singular-mass check of make_second_order
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.SingularAtFrequency):
                slt.eval_transfer(sys, 1j)
            H = slt.eval_transfer(sys, np.array([0.5j, 1j]), skip_poles=True)
        assert (len(bands), len(lus)) == counts
        assert_allclose(H[0], slt.eval_transfer(_dense(sys), 0.5j), rtol=1e-14)
        assert np.isnan(H[1]).all()
    assert slt.eval_transfer(_sparse_oscillator("band"), 0.5j)[0, 0] == \
        pytest.approx(1.0 / 0.75)


def _sparse_model(pattern, n=40):
    """Sparse models whose sweeps take the band LU, except the closed chain's
    (a spring between the first and the last mass), which takes SuperLU."""
    chain = slt.generate_chain(n)
    if pattern == "chain":
        return chain
    if pattern == "closed-chain":
        e = np.zeros((n, 1))
        e[0], e[-1] = 1.0, -1.0
        return slt.make_second_order(chain.M, chain.E,
                                     chain.K + scipy.sparse.csc_array(e @ e.T),
                                     chain.B_u, chain.C_p, chain.C_v)
    rng = np.random.default_rng(31)
    offsets = [0] if pattern == "diagonal" else [-2, -1, 0, 1]  # kl = 2, ku = 1

    def band(scale):  # diagonally dominant, so E's symmetric part is definite
        diags = [4.0 + rng.random(n - abs(k)) if k == 0
                 else rng.uniform(-0.5, 0.5, n - abs(k)) for k in offsets]
        return scale * scipy.sparse.diags_array(diags, offsets=offsets, format="csc")

    return slt.make_second_order(band(1.0), band(0.5), band(2.0),
                                 rng.standard_normal((n, 2)),
                                 rng.standard_normal((3, n)), rng.standard_normal((3, n)))


@pytest.mark.parametrize("pattern", ["chain", "unsymmetric", "diagonal", "closed-chain"])
def test_sparse_sweep_matches_dense(monkeypatch, pattern):
    # X and the dual directions D of a sparse sweep, factored by the band LU
    # or by SuperLU as the pattern decides, agree with the dense model's
    sys = _sparse_model(pattern)
    dense = _dense(sys)
    pts = np.concatenate([1j * np.logspace(-2, 1, 9), [0.3 + 2.0j]])
    bands = count_calls(monkeypatch, system, "_band_lu")
    lus = count_calls(monkeypatch, scipy.sparse.linalg, "splu")
    X = list(_shifted_solves(sys, pts))
    XD = list(_shifted_solves(sys, pts, dual=True))
    on_band = pattern != "closed-chain"
    assert (len(bands), len(lus)) == ((2 * pts.size, 0) if on_band else (0, 2 * pts.size))

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    for x, (x2, d), xr, (_, dr) in zip(X, XD, _shifted_solves(dense, pts),
                                       _shifted_solves(dense, pts, dual=True)):
        assert np.array_equal(x, x2)
        assert rel(x, xr) <= 1e-12 and rel(d, dr) <= 1e-12


def test_transfer_memo_keeps_the_latest_grid(monkeypatch):
    solves = count_calls(monkeypatch, system, "_shifted_solves")
    sys = slt.generate_chain(6)
    a, b = 1j * np.logspace(-2, 0, 7), 1j * np.logspace(-1, 1, 5)
    slt.eval_transfer(sys, a)[:] = 0.0  # the caller's copy, not the memo
    again = slt.eval_transfer(sys, a)
    assert len(solves) == 1
    assert np.array_equal(again, slt.eval_transfer(slt.generate_chain(6), a))
    assert _dense(sys)._memo == {} and replace(sys)._memo == {}
    slt.eval_transfer(sys, b)
    slt.eval_transfer(sys, a)
    assert sum(obj is sys for obj in solves) == 3  # a, b, a


def test_memo_stores_no_exception(monkeypatch):
    # a pole raises on every call, the skipped form is served from the memo;
    # a divergent simulation is stepped and raises again
    solves = count_calls(monkeypatch, system, "_shifted_solves")
    undamped = slt.make_second_order([[1.0]], [[0.0]], [[1.0]], [[1.0]],
                                     [[1.0]], [[0.0]])
    pts = np.array([0.5j, 1j])
    for _ in range(2):
        with pytest.raises(errors.SingularAtFrequency):
            slt.eval_transfer(undamped, pts)
    assert np.isnan(slt.eval_transfer(undamped, pts, skip_poles=True)[1]).all()
    assert len(solves) == 1
    runaway = slt.make_second_order([[1.0]], [[0.0]], [[-0.01]], [[1.0]],
                                    [[1.0]], [[0.0]])
    steps = count_calls(monkeypatch, system, "_trapezoid")
    for _ in range(2):
        with pytest.raises(errors.NonFiniteState):
            slt.simulate(runaway, slt.StepSignal(), np.arange(0.0, 8000.0, 0.5))
    assert len(steps) == 2


def test_shifted_solves_first_order_dual():
    # companion form with J = I: (s calE - calA)^{-1} calB = [x; s x] for
    # x = (s^2 M + s E + K)^{-1} B_u, and D solves the conjugate transpose
    rng = np.random.default_rng(12)
    sys = random_second_order(rng, 4, m=2, p=3)
    real = slt.first_companion(sys)
    pts = np.array([0.3j, 1.0 + 2.0j])
    first = list(_shifted_solves(real, pts, dual=True))
    for s, (X, D), x in zip(pts, first, _shifted_solves(sys, pts)):
        assert_allclose(X, np.vstack([x, s * x]), rtol=1e-12, atol=1e-14)
        Ah = (s * real.calE - real.calA).conj().T
        assert_allclose(Ah @ D, real.calC.conj().T, atol=1e-12)
    H = slt.eval_transfer(real, pts)
    assert_allclose(H, slt.eval_transfer(sys, pts), rtol=1e-12)
    # a pole of the realization: typed error, and no warning
    osc = slt.FirstOrderRealization(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                    np.ones((2, 1)), np.ones((1, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.SingularAtFrequency):
            slt.eval_transfer(osc, 1j)
        assert list(_shifted_solves(osc, [1j], dual=True)) == [None]


def _with_unit_oscillator(rng, n):
    """A random dense model with a decoupled undamped unit mass on a unit
    spring added, so ``s = 1j`` is an exact pole."""
    base = random_second_order(rng, n - 1, m=2, p=3)

    def grow(A, d):
        return spla.block_diag(A, [[d]])

    return slt.make_second_order(grow(base.M, 1.0), grow(base.E, 0.0), grow(base.K, 1.0),
                                 np.vstack([base.B_u, np.ones((1, 2))]),
                                 np.hstack([base.C_p, np.ones((3, 1))]),
                                 np.hstack([base.C_v, np.zeros((3, 1))]))


@pytest.mark.parametrize("form", ["second_order", "first_order"])
def test_stacked_sweep_matches_pointwise_solves(monkeypatch, form):
    # more points than one chunk holds, with the exact pole s = 1j inside
    # the second chunk: only that point fails, and the error names it
    rng = np.random.default_rng(21)
    sys = _with_unit_oscillator(rng, 30)
    if form == "second_order":
        obj, B = sys, sys.B_u

        def operator(s):
            return s * s * sys.M + s * sys.E + sys.K
    else:
        obj = slt.first_companion(sys)
        B = obj.calB

        def operator(s):
            return s * obj.calE - obj.calA
    size = system._CHUNK_BYTES // (32 * B.shape[0] ** 2)  # the stack and a temporary
    pts = 1j * np.geomspace(0.01, 50.0, 2 * size + 3)
    pole = size + 2
    pts[pole] = 1j
    solves = count_calls(monkeypatch, np.linalg, "solve")
    got = list(_shifted_solves(obj, pts))
    # one call per chunk, then the chunk with the pole point by point
    assert [len(A) for A in solves if np.ndim(A) == 3] == [size, size, 3]
    assert sum(np.ndim(A) == 2 for A in solves) == size
    for i, (s, X) in enumerate(zip(pts, got)):
        if i == pole:
            assert X is None
        else:
            assert_allclose(X, np.linalg.solve(operator(s), B), rtol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = slt.eval_transfer(obj, pts, skip_poles=True)
        with pytest.raises(errors.SingularAtFrequency, match=re.escape(f"s={1j} ")):
            slt.eval_transfer(obj, pts)
    assert np.flatnonzero(np.isnan(H).all(axis=(1, 2))).tolist() == [pole]
    assert np.all(np.isfinite(np.delete(H, pole, axis=0)))


def test_dense_sweep_memory_is_bounded_by_the_chunk(monkeypatch):
    # n = 300: a stack of all 200 operators would take 288 MB; a chunk holds
    # one point
    chain = slt.generate_chain(300)
    sys = _dense(chain)
    pts = 1j * np.logspace(-2, 1, 200)
    stacks = count_calls(monkeypatch, np.linalg, "solve")
    tracemalloc.start()
    try:
        H = slt.eval_transfer(sys, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * system._CHUNK_BYTES
    assert [np.shape(A) for A in stacks] == 200 * [(1, 300, 300)]
    assert_allclose(H, slt.eval_transfer(chain, pts), rtol=1e-10,
                    atol=1e-14 * np.max(np.abs(H)))


def test_simulate_scalar_step():
    # x' = -x + u with a unit step: y(t) = 1 - exp(-t).  The trapezoidal rule
    # is second order, so halving the step shrinks the error about 4x.
    real = slt.FirstOrderRealization(np.eye(1), -np.eye(1),
                                     np.ones((1, 1)), np.ones((1, 1)))
    errs = []
    for dt in (2e-3, 1e-3):
        t = np.arange(0.0, 1.0 + dt / 2, dt)
        traj = slt.simulate(real, slt.StepSignal(), t)
        errs.append(abs(traj.outputs[-1, 0] - (1.0 - np.exp(-1.0))))
    assert errs[1] < 1e-6
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_simulate_grid_validation():
    real = slt.FirstOrderRealization(np.eye(1), -np.eye(1),
                                     np.ones((1, 1)), np.ones((1, 1)))
    sig = slt.StepSignal()
    for obj in (real, slt.generate_chain(3)):
        with pytest.raises(errors.InvalidParams):
            slt.simulate(obj, sig, np.array([0.0]))
        with pytest.raises(errors.InvalidParams):
            slt.simulate(obj, sig, np.array([0.0, 0.1, 0.3]))
        with pytest.raises(errors.InvalidParams):
            slt.simulate(obj, sig, np.array([0.0, -0.1, -0.2]))


def test_simulate_second_order_matches_companion():
    # stepping in (x, x') is the trapezoidal rule on every companion form
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 10.0, 201)
    for sys in (random_second_order(rng, 6, m=2, p=3), slt.generate_chain(8)):
        sig = slt.CustomSignal(rng.standard_normal((t.size, sys.m)))
        a = slt.simulate(sys, sig, t, return_states=True)
        assert a.states.shape == (t.size, 2 * sys.n)
        for j in ("identity", "neg_k", rng.standard_normal((sys.n, sys.n))):
            b = slt.simulate(slt.first_companion(sys, j=j), sig, t,
                             return_states=True)
            for got, ref in ((a.outputs, b.outputs), (a.states, b.states)):
                assert_allclose(got, ref, rtol=0,
                                atol=1e-12 * np.max(np.abs(ref)))


def test_simulate_second_order_skips_companion(monkeypatch):
    def no_companion(*args, **kwargs):
        raise AssertionError("simulate built the companion form")

    monkeypatch.setattr("solimbt.system.first_companion", no_companion)
    traj = slt.simulate(slt.generate_chain(4), slt.StepSignal(),
                        np.linspace(0.0, 5.0, 51))
    assert np.all(np.isfinite(traj.outputs))


def _with_csc(sys):
    """``sys`` and the same model with CSC ``M``, ``E``, ``K``."""
    mats = (scipy.sparse.csc_array(A) for A in (sys.M, sys.E, sys.K))
    return sys, slt.make_second_order(*mats, sys.B_u, sys.C_p, sys.C_v)


def test_simulate_second_order_divergence():
    # negative stiffness: a real pole near +1, and one at +0.1 where the
    # position overflows well before the velocity; the dense and the sparse
    # model and the companion form report the same step, without warnings
    near_one = slt.make_second_order(np.eye(2), 0.1 * np.eye(2), -np.eye(2),
                                     np.ones((2, 1)), np.ones((1, 2)),
                                     np.ones((1, 2)))
    slow = slt.make_second_order([[1.0]], [[0.0]], [[-0.01]], [[1.0]],
                                 [[1.0]], [[0.0]])
    for sys, when in ((near_one, "733"), (slow, "7057.5")):
        messages = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for obj in (*_with_csc(sys), slt.first_companion(sys)):
                with pytest.raises(errors.NonFiniteState) as exc:
                    slt.simulate(obj, slt.StepSignal(), np.arange(0.0, 8000.0, 0.5))
                messages.append(str(exc.value))
        assert messages == 3 * [f"state became non-finite at t={when}"]


@pytest.mark.parametrize("rows", [None, 7])
def test_dense_step_matrix_matches_sparse_and_companion(monkeypatch, rows):
    # the dense step matrix, second-order and first-order, against the
    # SuperLU run of the same model, with and without the states; in one
    # block of states, and in blocks of 7 rows
    rng = np.random.default_rng(8)
    t = np.linspace(0.0, 10.0, 401)
    dense, sparse = _with_csc(random_second_order(rng, 6, m=2, p=3))
    sig = slt.CustomSignal(rng.standard_normal((t.size, dense.m)))
    ref = slt.simulate(sparse, sig, t, return_states=True)
    if rows:
        monkeypatch.setattr(system, "_CHUNK_BYTES", 8 * 2 * dense.n * rows)
    for obj in (dense, slt.first_companion(dense)):
        for states in (False, True):
            got = slt.simulate(obj, sig, t, return_states=states)
            assert_allclose(got.outputs, ref.outputs, rtol=0,
                            atol=1e-12 * np.max(np.abs(ref.outputs)))
            if states:
                assert_allclose(got.states, ref.states, rtol=0,
                                atol=1e-12 * np.max(np.abs(ref.states)))
            else:
                assert got.states is None


def test_dense_divergence_is_found_in_any_block(monkeypatch):
    # the step at which the negative-stiffness model of the divergence test
    # overflows, with blocks of states that end before, at and after it; the
    # dense and the sparse model step through the same blocks
    sys = slt.make_second_order(np.eye(2), 0.1 * np.eye(2), -np.eye(2),
                                np.ones((2, 1)), np.ones((1, 2)), np.ones((1, 2)))
    t = np.arange(0.0, 8000.0, 0.5)
    for obj in _with_csc(sys):
        for rows in (1, 733, 1465, 1466, 5000):
            monkeypatch.setattr(system, "_CHUNK_BYTES", 8 * 4 * rows)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(errors.NonFiniteState, match=r"t=733$"):
                    slt.simulate(obj, slt.StepSignal(), t)


def _spy_step_tables(monkeypatch):
    """Record what every call of ``system._step_tables`` returns."""
    tables = []
    step_tables = system._step_tables

    def spy(PhiT):
        tables.append(step_tables(PhiT))
        return tables[-1]

    monkeypatch.setattr(system, "_step_tables", spy)
    return tables


@pytest.mark.parametrize("n, budget", [(1, None), (1, 10_000), (4, None),
                                       (4, 140_000), (20, 2**22)])
def test_blocked_stepping_matches_sparse(monkeypatch, n, budget):
    # groups of L steps of a dense model, second-order and first-order,
    # against the SuperLU run of its CSC copy, which steps row by row:
    # d = 2, 8 and 40 states (40 needs a larger budget for groups of 8
    # steps); 1999 steps, a multiple of no L, so the last group is short;
    # budgets of 10 and 140 kB end each chunk inside a group
    rng = np.random.default_rng(30 + n)
    t = np.linspace(0.0, 40.0, 2000)
    dense, sparse = _with_csc(random_second_order(rng, n, m=2, p=3))
    sig = slt.CustomSignal(rng.standard_normal((t.size, dense.m)))
    ref = slt.simulate(sparse, sig, t, return_states=True)
    if budget:
        monkeypatch.setattr(system, "_CHUNK_BYTES", budget)
    tables = _spy_step_tables(monkeypatch)
    for obj in (dense, slt.first_companion(dense)):
        for states in (False, True):
            got = slt.simulate(obj, sig, t, return_states=states)
            assert_allclose(got.outputs, ref.outputs, rtol=0,
                            atol=1e-12 * np.max(np.abs(ref.outputs)))
            if states:
                assert_allclose(got.states, ref.states, rtol=0,
                                atol=1e-12 * np.max(np.abs(ref.states)))
    assert len(tables) == 4 and all(tab is not None for tab in tables)
    T, Pow = tables[0]
    d = 2 * n
    L = T.shape[0] // d
    rows = (system._CHUNK_BYTES - T.nbytes - Pow.nbytes) // (8 * d)
    assert L >= 8 and Pow.shape == (d, L * d) and (t.size - 1) % L
    if budget in (10_000, 140_000):
        assert rows < t.size - 1 and rows % L


def test_blocked_stepping_reports_the_divergent_step(monkeypatch):
    # x' = 2x grows by 19 per step at h = 0.9: its 256th power overflows, so
    # the default run steps row by row; with groups of 128 steps the powers
    # are finite and the state overflows inside a group.  So does the state
    # of the negative-stiffness model of the divergence test, whose first 64
    # powers are finite.  Each run names the step that the row loop, one row
    # per chunk, names, without warnings
    grow = slt.FirstOrderRealization(np.eye(1), 2.0 * np.eye(1),
                                     np.ones((1, 1)), np.ones((1, 1)))
    near_one = slt.make_second_order(np.eye(2), 0.1 * np.eye(2), -np.eye(2),
                                     np.ones((2, 1)), np.ones((1, 2)),
                                     np.ones((1, 2)))
    short, long = np.arange(0.0, 300.0, 0.9), np.arange(0.0, 8000.0, 0.5)
    default = system._CHUNK_BYTES
    cases = [(grow, short, default, False), (grow, short, 32 * 128**2, True),
             (near_one, long, default, True),
             (slt.first_companion(near_one), long, default, True)]
    tables = _spy_step_tables(monkeypatch)
    for obj, t, budget, blocked in cases:
        messages, grouped = [], []
        for chunk_bytes in (budget, 1):
            monkeypatch.setattr(system, "_CHUNK_BYTES", chunk_bytes)
            tables.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(errors.NonFiniteState) as exc:
                    slt.simulate(obj, slt.StepSignal(), t)
            messages.append(str(exc.value))
            grouped.append(tables[0] is not None)
        assert grouped == [blocked, False]
        assert messages[0] == messages[1]
    assert messages == 2 * ["state became non-finite at t=733"]
    # x' = x at h = 1: Phi = 3 and Gamma = 1 exactly, and the inputs cancel
    # the state from the second step on, but a group's terms A 3^(j-1)
    # overflow from step 17: the group is stepped again and stays finite
    monkeypatch.setattr(system, "_CHUNK_BYTES", default)
    one = slt.FirstOrderRealization(np.eye(1), np.eye(1), np.ones((1, 1)),
                                    np.ones((1, 1)))
    A = 2.0**1000
    u = np.concatenate([[0.0, A], np.tile([-4.0 * A, 4.0 * A], 24)])
    tables.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = slt.simulate(one, slt.CustomSignal(u), np.arange(u.size, dtype=float),
                           return_states=True)
    assert tables[0] is not None
    assert np.array_equal(got.states[:, 0], np.concatenate([[0.0, A], np.zeros(u.size - 2)]))


def test_dense_simulation_memory_without_states():
    # 100,000 steps of a model with 80 states, dense and sparse: the states
    # would take 64 MB, the outputs 2.4 MB and the inputs 0.8 MB
    t = np.linspace(0.0, 1000.0, 100_001)
    ref = slt.simulate(slt.generate_chain(40), slt.StepSignal(), t[:2001]).outputs
    for sys in _with_csc(_dense(slt.generate_chain(40))):
        tracemalloc.start()
        try:
            Y = slt.simulate(sys, slt.StepSignal(), t).outputs
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * system._CHUNK_BYTES + 8 * t.size * 8
        assert_allclose(Y[:2001], ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def test_simulate_singular_step_matrix():
    # M + h/2 E + h^2/4 K = 1 - 16/16 = 0 at h = 0.5: s = 2/h = 4 is a pole;
    # LAPACK and SuperLU both find it
    sys = slt.make_second_order([[1.0]], [[0.0]], [[-16.0]], [[1.0]],
                                [[1.0]], [[0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for obj in (*_with_csc(sys), slt.first_companion(sys)):
            with pytest.raises(errors.NonFiniteState,
                               match=r"singular: s=4 is a pole"):
                slt.simulate(obj, slt.StepSignal(), np.arange(0.0, 5.0, 0.5))


def test_simulate_deterministic_and_states():
    sys = slt.generate_chain(5)
    t = np.linspace(0.0, 20.0, 401)
    a = slt.simulate(sys, slt.StepSignal(), t, return_states=True)
    b = slt.simulate(sys, slt.StepSignal(), t, return_states=True)
    assert np.array_equal(a.outputs, b.outputs)
    assert np.array_equal(a.states, b.states)
    assert a.states.shape == (401, 10)
    assert_allclose(a.states[0], np.zeros(10))
    assert slt.simulate(sys, slt.StepSignal(), t).states is None


def test_simulate_memo(monkeypatch):
    lus = count_calls(monkeypatch, scipy.sparse.linalg, "splu")
    sys = slt.generate_chain(6)
    t = np.linspace(0.0, 10.0, 101)
    step = slt.StepSignal()
    slt.simulate(sys, step, t).outputs[:] = 0.0  # the caller's copy
    again = slt.simulate(sys, step, t)
    assert len(lus) == 1
    assert np.array_equal(again.outputs,
                          slt.simulate(slt.generate_chain(6), step, t).outputs)
    # states are neither stored nor looked up; another signal replaces the entry
    assert slt.simulate(sys, step, t, return_states=True).states is not None
    slt.simulate(sys, step, t)
    assert len(lus) == 3
    slt.simulate(sys, slt.StepSignal(onset=1.0), t)
    slt.simulate(sys, step, t)
    assert len(lus) == 5


def test_large_sparse_chain_responses_stay_sparse():
    # n = 20,000: one dense copy of M would take 3.2 GB, so a response that
    # densified the model anywhere would blow the 64 MB budget
    sys = slt.generate_chain(20000)
    t = np.linspace(0.0, 20.0, 201)
    tracemalloc.start()
    try:
        traj = slt.simulate(sys, slt.StepSignal(), t)
        H = slt.eval_transfer(sys, 1j * np.logspace(-2, 1, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.all(np.isfinite(traj.outputs)) and np.all(np.isfinite(H))
    assert np.max(np.abs(traj.outputs)) > 0


def test_signals():
    t = np.array([0.0, 0.4, 0.5, 1.0])
    u = slt.StepSignal(amplitude=-2.0, onset=0.5).sample(t, 2)
    assert_allclose(u, np.array([[0.0, 0.0], [0.0, 0.0],
                                 [-2.0, -2.0], [-2.0, -2.0]]))
    u = slt.SineSignal(amplitude=2.0, omega=3.0, onset=0.5, offset=0.5).sample(t, 1)
    assert_allclose(u[:2, 0], [0.0, 0.0])
    assert u[2, 0] == pytest.approx(2.0 * (np.sin(1.5) + 0.5))
    assert u[3, 0] == pytest.approx(2.0 * (np.sin(3.0) + 0.5))

    samples = np.vstack([t, 2 * t]).T
    u = slt.CustomSignal(samples).sample(t, 2)
    assert_allclose(u, samples)
    assert_allclose(slt.CustomSignal(t).sample(t, 2), np.vstack([t, t]).T)
    with pytest.raises(errors.DimensionMismatch):
        slt.CustomSignal(np.ones((3, 1))).sample(t, 1)


def test_simulate_divergence():
    # x' = 2x is amplified by (1 + h)/(1 - h) = 19 per step at h = 0.9; the
    # state overflows well before the end of the grid.
    real = slt.FirstOrderRealization(np.eye(1), 2.0 * np.eye(1),
                                     np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(errors.NonFiniteState):
        slt.simulate(real, slt.StepSignal(), np.arange(0.0, 300.0, 0.9))


def test_check_stability(monkeypatch):
    eigensolves = count_calls(monkeypatch, slt.FirstOrderRealization,
                              "pencil_eigenvalues")
    sys = slt.generate_chain(6)
    slt.check_stability(sys).eigenvalues[:] = 0.0  # the caller's copy
    rep = slt.check_stability(sys)
    assert len(eigensolves) == 1  # one eigensolve per system
    assert rep.is_c_stable
    assert rep.max_real_part < 0
    assert rep.eigenvalues.size == 12 and np.all(rep.eigenvalues.real < 0)
    assert rep.marginal.size == 0
    assert rep.is_c_stable == (rep.max_real_part < 0)

    undamped = slt.make_second_order([[1.0]], [[0.0]], [[1.0]], [[1.0]],
                                     [[1.0]], [[0.0]])
    rep = slt.check_stability(undamped)
    assert rep.marginal.size == 2
    assert rep.is_c_stable == (rep.max_real_part < 0)

    # N = 5002: refused before any eigensolve of the 2501-mass chain
    eigensolves.clear()
    with pytest.raises(errors.DimensionTooLarge):
        slt.check_stability(slt.generate_chain(2501))
    assert not eigensolves


def test_pencil_eigenvalues_cached():
    rng = np.random.default_rng(0)
    sys = random_second_order(rng, 4)
    real = slt.first_companion(sys)
    lam1 = real.pencil_eigenvalues()
    lam2 = real.pencil_eigenvalues()
    assert lam1 is lam2
    # dataclasses.replace starts with empty caches
    one = slt.FirstOrderRealization(np.eye(1), -np.eye(1), np.ones((1, 1)),
                                    np.ones((1, 1)))
    assert one.pencil_eigenvalues()[0] == one.standard_form()[0][0, 0] == -1.0
    two = replace(one, calA=-2.0 * np.eye(1))
    assert two.pencil_eigenvalues()[0] == two.standard_form()[0][0, 0] == -2.0
    assert slt.check_stability(two).max_real_part == -2.0


def test_diagonal_calE_solve_matches_general_solve():
    # a chain's companion calE is diagonal: its solver multiplies by the
    # reciprocal diagonal, which agrees with a general solve to the last bits
    # (LAPACK's triangular solve multiplies by the same reciprocals)
    real = slt.first_companion(slt.generate_chain(30))
    assert np.count_nonzero(real.calE) == real.N
    rng = np.random.default_rng(3)
    for k in (1, 2, 61):
        for order in "CF":
            Y = np.asarray(rng.standard_normal((real.N, k)), order=order)
            for trans in "NT":
                assert_allclose(real.solve_calE(Y, trans), spla.solve(real.calE, Y),
                                rtol=1e-15, atol=0.0)


def test_dissipativity_bound_positive_for_spd(dim=5):
    rng = np.random.default_rng(42)
    sys = slt.make_second_order(random_spd(rng, dim), random_spd(rng, dim),
                                random_spd(rng, dim), np.ones((dim, 1)),
                                np.ones((1, dim)), np.zeros((1, dim)))
    assert slt.dissipativity_shift_bound(sys) > 0
