"""Order selection, the eight projector formulas, and first-order BT."""

import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse
from numpy.testing import assert_allclose

import solimbt as slt
from solimbt import errors
from solimbt.gramians import PartitionedFactors
from solimbt.system import _dense

from helpers import stable_generic


def test_select_order_frozen_cases():
    assert slt.select_order(np.array([1.0, 1e-5, 1e-9])) == 1
    assert slt.select_order(np.array([1.0, 0.5, 0.4])) == 3
    assert slt.select_order(np.array([1.0, 2e-4, 0.5e-4]), tol=1e-4) == 2
    assert slt.select_order(np.array([5.0])) == 1


def test_select_order_fixed_and_errors():
    sigma = np.array([1.0, 0.1, 0.01])
    assert slt.select_order(sigma, fixed_r=2) == 2
    with pytest.raises(errors.InvalidParams):
        slt.select_order(sigma, fixed_r=0)
    with pytest.raises(errors.InvalidParams):
        slt.select_order(sigma, fixed_r=4)
    with pytest.raises(errors.EmptySpectrum):
        slt.select_order(np.array([]))


def test_select_order_monotone_in_tol():
    rng = np.random.default_rng(0)
    sigma = np.sort(10.0 ** (-4 * rng.random(30)))[::-1]
    orders = [slt.select_order(sigma, tol=t)
              for t in (1e-1, 1e-2, 1e-4, 1e-8, 1e-12)]
    assert orders == sorted(orders)
    # relative criterion: scaling the spectrum changes nothing
    assert slt.select_order(1e6 * sigma, tol=1e-4) == slt.select_order(sigma, tol=1e-4)


def _chain_parts(n=6):
    sys = slt.generate_chain(n)
    pair = slt.infinite_gramians(slt.first_companion(sys))
    return sys, slt.partition(pair, n)


def test_balancedness_identity():
    # For the formulas whose left/right factors pair through the product the
    # singular values come from, W^T M T (resp. W^T J T) is the identity.
    sys, parts = _chain_parts()
    J = np.eye(sys.n)
    for formula, mid in (("v", sys.M), ("pv", sys.M), ("vpm", sys.M),
                         ("pm", sys.M)):
        res = slt.second_order_projectors(parts, J, sys.M, formula, fixed_r=3)
        assert_allclose(res.W.T @ mid @ res.T, np.eye(3), atol=1e-10)
        assert res.sigma[0] > 0
        assert res.truncated_tail >= 0

    res = slt.second_order_projectors(parts, J, sys.M, "so", fixed_r=3)
    assert_allclose(res.W_p.T @ J @ res.T_p, np.eye(3), atol=1e-10)
    assert_allclose(res.W_v.T @ sys.M @ res.T_v, np.eye(3), atol=1e-10)


def test_one_sided_formula_is_galerkin():
    sys, parts = _chain_parts()
    res = slt.second_order_projectors(parts, np.eye(sys.n), sys.M, "fv",
                                      fixed_r=2)
    assert res.W is res.T


def test_full_order_projection_is_exact():
    # r = n: every formula is a similarity transform, so the transfer
    # function is reproduced exactly.
    n = 4
    sys = slt.generate_chain(n)
    pair = slt.infinite_gramians(slt.first_companion(sys))
    parts = slt.partition(pair, n)
    J = np.eye(n)
    pts = 1j * np.logspace(-2, 1, 10)
    H = slt.eval_transfer(sys, pts)
    scale = np.max([np.linalg.norm(Hk, 2) for Hk in H])
    for formula in slt.FORMULAS:
        res = slt.second_order_projectors(parts, J, sys.M, formula, fixed_r=n)
        if formula == "so":
            rom = slt.so_reconstruct(sys, J, res)
        else:
            rom = slt.apply_projection(sys, res.W, res.T)
        Hr = slt.eval_transfer(rom, pts)
        assert np.max([np.linalg.norm(d, 2) for d in H - Hr]) <= 1e-10 * scale


def test_unknown_formula():
    sys, parts = _chain_parts(3)
    with pytest.raises(errors.InvalidParams):
        slt.second_order_projectors(parts, np.eye(3), sys.M, "xyz")


def test_rank_deficient_product():
    ones = np.ones((2, 2))  # rank-one factors
    parts = PartitionedFactors(R_p=ones, R_v=ones, L_p=ones, L_v=ones)
    with pytest.raises(errors.RankDeficient):
        slt.second_order_projectors(parts, np.eye(2), np.eye(2), "pm",
                                    fixed_r=2)


def test_singular_mass_in_projector():
    ident = np.eye(2)
    parts = PartitionedFactors(R_p=ident, R_v=ident, L_p=ident, L_v=ident)
    for M in (np.zeros((2, 2)), scipy.sparse.csc_array((2, 2))):
        with pytest.raises(errors.SingularM):
            slt.second_order_projectors(parts, ident, M, "vpm", fixed_r=1)


def test_projectors_sparse_mass_match_dense():
    # the chain's CSC M (and a loaded bundle's) gives the ROMs of its dense
    # copy; vpm and pm solve with M^T through SuperLU instead of LAPACK
    sys = slt.generate_chain(20)
    dense = _dense(sys)
    assert scipy.sparse.issparse(sys.M) and isinstance(dense.M, np.ndarray)
    parts = slt.partition(slt.infinite_gramians(slt.first_companion(sys)), sys.n)
    J = np.eye(sys.n)
    for formula in slt.FORMULAS:
        roms = []
        for model in (sys, dense):
            res = slt.second_order_projectors(parts, J, model.M, formula, fixed_r=4)
            roms.append(slt.so_reconstruct(model, J, res) if formula == "so"
                        else slt.apply_projection(model, res.W, res.T))
        for name in ("M", "E", "K", "B_u", "C_p", "C_v"):
            got, ref = getattr(roms[0], name), getattr(roms[1], name)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), \
                (formula, name)


def test_singular_coupling_matrix():
    sys = slt.generate_chain(2)
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    res = slt.BalancingResult(formula="so", r=1, sigma=np.array([1.0]),
                              W_p=e1, T_p=e1, W_v=e2, T_v=e2)
    with pytest.raises(errors.SingularS):
        slt.so_reconstruct(sys, np.eye(2), res)  # W_p^T J T_v = 0


def test_apply_projection_shapes():
    sys = slt.generate_chain(5)
    W = np.eye(5)[:, :2]
    T = np.eye(5)[:, :2]
    rom = slt.apply_projection(sys, W, T)
    assert rom.n == 2 and rom.m == 1 and rom.p == 3


def test_first_order_bt():
    rng = np.random.default_rng(8)
    real = stable_generic(rng, 12, m=2, p=2)
    rom = slt.first_order_bt(real, fixed_r=3)
    assert rom.r == 3
    assert rom.sigma.size == 12
    # balanced truncation leaves an identity calE block
    assert_allclose(rom.realization.calE, np.eye(3), atol=1e-10)
    assert rom.error_bound == pytest.approx(2.0 * rom.sigma[3:].sum())
    # sampled transfer error stays below the bound
    pts = 1j * np.logspace(-2, 2, 100)
    H = slt.eval_transfer(real, pts)
    Hr = slt.eval_transfer(rom.realization, pts)
    worst = np.max([np.linalg.norm(d, 2) for d in H - Hr])
    assert worst <= rom.error_bound * (1 + 1e-8)


def test_first_order_bt_adaptive():
    rng = np.random.default_rng(9)
    real = stable_generic(rng, 10)
    rom = slt.first_order_bt(real, order_tol=1e-2)
    assert 1 <= rom.r <= 10
    tail = rom.sigma[rom.r:].sum()
    assert tail <= 1e-2 * rom.sigma[0]
