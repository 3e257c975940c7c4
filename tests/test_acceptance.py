"""End-to-end acceptance harness.

Every numbered claim the package makes about itself is checked here, one
test per claim, each printing a single ``[PASS]``/``[FAIL]`` line (run with
``pytest -s`` to see them on green runs) before asserting.  The heavyweight
chain benchmarks share module-level caches so the n = 300 Gramians are
solved once.
"""

import time
from functools import lru_cache

import numpy as np
import scipy.linalg as spla

import solimbt as slt
from solimbt import FirstOrderRealization, FrequencyBand, TimeWindow
from solimbt.system import dissipative_backtransform_matrix

from helpers import (contr_residual, min_eig, obs_residual, quadrature_gramian,
                     solve_lyap_dense_oracle, stable_generic)

TWO_PI = 2.0 * np.pi


def _verdict(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _scalar_real(a=-1.0):
    one = np.array([[1.0]])
    return FirstOrderRealization(np.array([[1.0]]), np.array([[a]]),
                                 one, one.copy())


def _rel(X, Y):
    return spla.norm(X - Y) / spla.norm(Y)


@lru_cache(maxsize=1)
def _chain300():
    return slt.generate_chain(300)


@lru_cache(maxsize=1)
def _chain300_flbt():
    """Band plus partitioned band-limited Gramian factors of the big chain."""
    sys = _chain300()
    band = FrequencyBand.from_hz([(1.0, 100.0)])
    real = slt.first_companion(sys)
    pair = slt.frequency_limited_gramians(real, band)
    return band, slt.partition(pair, sys.n)


def _rom_for(sys, parts, J, formula, order_tol=1e-4, fixed_r=None):
    res = slt.second_order_projectors(parts, J, sys.M, formula,
                                      order_tol=order_tol, fixed_r=fixed_r)
    if formula == "so":
        return slt.so_reconstruct(sys, J, res), res
    return slt.apply_projection(sys, res.W, res.T), res


def test_criterion_01_scalar_band_gramian():
    real = _scalar_real()
    t0 = time.perf_counter()
    pair = slt.frequency_limited_gramians(real, FrequencyBand([(1.0, 2.0)]))
    elapsed = time.perf_counter() - t0
    got = float(pair.controllability.matrix()[0, 0])
    target = (np.arctan(2.0) - np.arctan(1.0)) / np.pi
    ok = abs(got - target) <= 1e-10 and elapsed < 1.0
    _verdict(1, "scalar band-limited Gramian matches the arctan value",
             ok, f"got {got:.12f}, want {target:.12f}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_scalar_window_gramian():
    real = _scalar_real()
    t0 = time.perf_counter()
    pair = slt.time_limited_gramians(real, TimeWindow(0.0, 1.0))
    elapsed = time.perf_counter() - t0
    got = float(pair.controllability.matrix()[0, 0])
    target = 0.5 * (1.0 - np.exp(-2.0))
    ok = abs(got - target) <= 1e-10 and elapsed < 1.0
    _verdict(2, "scalar window-limited Gramian matches (1 - e^-2)/2",
             ok, f"got {got:.12f}, want {target:.12f}, {elapsed * 1e3:.0f} ms")


def test_criterion_03_limit_recovery():
    worst_band = worst_win = 0.0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        real = stable_generic(rng, 10)
        inf_pair = slt.infinite_gramians(real)
        band_pair = slt.frequency_limited_gramians(
            real, FrequencyBand([(0.0, 1e6)]))
        win_pair = slt.time_limited_gramians(real, TimeWindow(0.0, 50.0))
        for side in ("controllability", "observability"):
            ref = getattr(inf_pair, side).matrix()
            worst_band = max(worst_band, _rel(getattr(band_pair, side).matrix(), ref))
            worst_win = max(worst_win, _rel(getattr(win_pair, side).matrix(), ref))
    ok = worst_band <= 1e-3 and worst_win <= 1e-10
    _verdict(3, "huge band / long window recover the classical Gramians",
             ok, f"band dev {worst_band:.2e}, window dev {worst_win:.2e}")


def test_criterion_04_sign_solver_vs_dense_oracle():
    worst_rel = worst_res = 0.0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        N = int(rng.integers(10, 41))
        real = stable_generic(rng, N)
        if seed % 2:
            sig = np.diag([1.0, 1.0, -1.0, -1.0])
        else:
            sig = np.block([[np.zeros((2, 2)), np.eye(2)],
                            [np.eye(2), np.zeros((2, 2))]])
        rhs_c = slt.IndefiniteRhs(rng.standard_normal((N, 4)), sig)
        rhs_o = slt.IndefiniteRhs(rng.standard_normal((N, 4)), sig.copy())
        P, Q, _ = slt.solve_lyap_pencil(real, rhs_c, rhs_o)
        X_ref = solve_lyap_dense_oracle(real.calA, real.calE, rhs_c.dense())
        Y_ref = solve_lyap_dense_oracle(real.calA.T, real.calE.T,
                                        rhs_o.dense())
        Pm, Qm = P.matrix(), Q.matrix()
        worst_rel = max(worst_rel, _rel(Pm, X_ref), _rel(Qm, Y_ref))
        nrm = spla.norm(real.calA) * spla.norm(real.calE)
        worst_res = max(
            worst_res,
            contr_residual(real.calA, real.calE, Pm, rhs_c.dense())
            / (spla.norm(rhs_c.dense()) + 2 * nrm * spla.norm(Pm)),
            obs_residual(real.calA, real.calE, Qm, rhs_o.dense())
            / (spla.norm(rhs_o.dense()) + 2 * nrm * spla.norm(Qm)))
    ok = worst_rel <= 1e-8 and worst_res <= 1e-10
    _verdict(4, "sign-function solver agrees with the Kronecker oracle on "
                "indefinite right-hand sides",
             ok, f"rel dev {worst_rel:.2e}, scaled residual {worst_res:.2e}")


def test_criterion_05_quadrature_cross_check():
    band = FrequencyBand([(0.5, 2.5)])
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(250 + seed)
        N = int(rng.integers(10, 21))
        real = stable_generic(rng, N)
        pair = slt.frequency_limited_gramians(real, band)
        Zc = quadrature_gramian(real, band, points_per_interval=2000)
        Zo = quadrature_gramian(real, band, points_per_interval=2000,
                                side="observability")
        worst = max(worst,
                    _rel(Zc @ Zc.T, pair.controllability.matrix()),
                    _rel(Zo @ Zo.T, pair.observability.matrix()))
    ok = worst <= 1e-6
    _verdict(5, "Gauss-Legendre quadrature reproduces the matrix-function "
                "band Gramians", ok, f"rel dev {worst:.2e}")


def test_criterion_06_chain_flbt_all_formulas():
    t0 = time.perf_counter()
    sys = _chain300()
    band, parts = _chain300_flbt()
    J = np.eye(sys.n)
    reports = {}
    for formula in slt.FORMULAS:
        rom, _ = _rom_for(sys, parts, J, formula)
        reports[formula] = slt.frequency_error_report(
            sys, rom, TWO_PI * 0.01, TWO_PI * 1000.0, 150, band=band)
    elapsed = time.perf_counter() - t0

    stable = [f for f, rep in reports.items() if rep.rom_stable]
    bad = []
    for formula in stable:
        rep = reports[formula]
        if not (rep.local_max_rel <= 1e-2
                and rep.local_max_rel <= 0.1 * rep.global_max_rel):
            bad.append(f"{formula}: in-band {rep.local_max_rel:.2e} "
                       f"vs global {rep.global_max_rel:.2e}")
    ok = (len(reports) == 8 and stable and not bad and elapsed < 600.0)
    _verdict(6, "n=300 chain FLBT: every formula yields a ROM and stable "
                "ones are far more accurate in band",
             ok, f"stable {','.join(stable)}; "
                 + ("; ".join(bad) if bad else f"{elapsed:.0f} s"))


def test_criterion_07_chain_tlbt_step_and_sine():
    sys = _chain300()
    window = TimeWindow(0.0, 20.0)
    real = slt.first_companion(sys)
    pair = slt.time_limited_gramians(real, window)
    parts = slt.partition(pair, sys.n)
    J = np.eye(sys.n)
    t = np.arange(0.0, 100.0 + 0.025, 0.05)
    signals = {"step": slt.StepSignal(onset=5.0),
               "sin": slt.SineSignal(omega=1.0, onset=5.0)}

    roms, orders = {}, []
    for formula in slt.FORMULAS:
        rom, res = _rom_for(sys, parts, J, formula)
        roms[formula] = rom
        orders.append(res.r)

    stable, bad = set(), []
    for formula, rom in roms.items():
        for name, sig in signals.items():
            rep = slt.time_error_report(sys, rom, sig, t, window=window)
            if not rep.rom_stable:
                continue
            stable.add(formula)
            if not rep.local_max_abs <= rep.global_max_abs:
                bad.append(f"{formula}/{name}")
    ok = max(orders) <= 10 and stable and not bad
    _verdict(7, "n=300 chain TLBT: orders stay small and in-window errors "
                "never exceed the global ones",
             ok, f"orders {sorted(set(orders))}, stable {sorted(stable)}"
                 + (f", bad {bad}" if bad else ""))


def test_criterion_08_bt_error_bound():
    pts = 1j * np.logspace(-3, 3, 500)
    worst_ratio = 0.0
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        real = stable_generic(rng, 20)
        rom = slt.first_order_bt(real, fixed_r=4)
        H = slt.eval_transfer(real, pts)
        Hr = slt.eval_transfer(rom.realization, pts)
        worst = max(spla.norm(d, 2) for d in H - Hr)
        worst_ratio = max(worst_ratio, worst / rom.error_bound)
    ok = worst_ratio <= 1.0 + 1e-8
    _verdict(8, "sampled truncation error stays below twice the tail of the "
                "Hankel values", ok, f"worst error/bound {worst_ratio:.4f}")


def test_criterion_09_realization_equivalence():
    sys = slt.generate_chain(50)
    comp = slt.first_companion(sys)
    diss = slt.strictly_dissipative(sys)
    pts = 1j * np.logspace(-3, 1, 50)
    Hc = slt.eval_transfer(comp, pts)
    Hd = slt.eval_transfer(diss, pts)
    worst_h = max(spla.norm(a - b, 2) / spla.norm(a, 2)
                  for a, b in zip(Hc, Hd))

    small = slt.generate_chain(5)
    dreal = slt.strictly_dissipative(small)
    comp5 = slt.first_companion(small)
    Qd = solve_lyap_dense_oracle(dreal.calA.T, dreal.calE.T,
                                 dreal.calC.T @ dreal.calC)
    Qc = solve_lyap_dense_oracle(comp5.calA.T, comp5.calE.T,
                                 comp5.calC.T @ comp5.calC)
    T = dissipative_backtransform_matrix(small, dreal.gamma)
    worst_q = _rel(T.T @ Qd @ T, Qc)
    ok = worst_h <= 1e-6 and worst_q <= 1e-8
    _verdict(9, "companion and strictly dissipative realizations agree "
                "(transfer and back-transformed Gramian)",
             ok, f"transfer dev {worst_h:.2e}, Gramian dev {worst_q:.2e}")


def test_criterion_10_full_order_exactness():
    sys = slt.generate_chain(5)
    real = slt.first_companion(sys)
    parts = slt.partition(slt.infinite_gramians(real), sys.n)
    J = np.eye(sys.n)
    pts = 1j * np.logspace(-2, 1, 20)
    H = slt.eval_transfer(sys, pts)
    scale = max(spla.norm(Hk, 2) for Hk in H)
    worst = {}
    for formula in slt.FORMULAS:
        rom, _ = _rom_for(sys, parts, J, formula, fixed_r=sys.n)
        Hr = slt.eval_transfer(rom, pts)
        worst[formula] = max(spla.norm(d, 2) for d in H - Hr) / scale
    ok = all(v <= 1e-8 for v in worst.values())
    _verdict(10, "every formula reproduces the transfer function exactly "
                 "at full order",
             ok, f"worst {max(worst, key=worst.get)}: {max(worst.values()):.2e}")


def test_criterion_11_alpha_shift():
    sys = slt.generate_chain(50)
    alpha = 0.01
    back = slt.alpha_backsubstitute(slt.alpha_shift(sys, alpha), alpha)
    algebra_dev = max(
        np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))
        for a, b in ((back.M, sys.M), (back.E, sys.E), (back.K, sys.K),
                     (back.B_u, sys.B_u), (back.C_p, sys.C_p),
                     (back.C_v, sys.C_v)))

    band = FrequencyBand([(0.05, 0.3)])
    reps = {}
    for a in (0.0, alpha):
        cfg = slt.ReductionConfig(method="flbt", band=band, fixed_order=6,
                                  alpha=a)
        rom = slt.reduce(sys, cfg)
        reps[a] = slt.frequency_error_report(sys, rom, 0.005, 3.0, 200,
                                             band=band)
    e0, ea = reps[0.0].local_max_rel, reps[alpha].local_max_rel
    ok = algebra_dev <= 1e-14 and ea <= 2.0 * e0
    _verdict(11, "alpha-shift round-trips exactly and barely changes the "
                 "in-band ROM error",
             ok, f"algebra dev {algebra_dev:.2e}, in-band rel "
                 f"{ea:.2e} (shifted) vs {e0:.2e} (plain)")


def test_criterion_12_hybrid_pipeline():
    sys = _chain300()
    band, parts = _chain300_flbt()
    J = np.eye(sys.n)
    direct, res = _rom_for(sys, parts, J, "pv")
    rep_direct = slt.frequency_error_report(
        sys, direct, TWO_PI * 0.01, TWO_PI * 1000.0, 150, band=band)

    # samples straddle the band so the pre-reduced model is also trustworthy
    # slightly outside it
    omegas = np.logspace(np.log10(TWO_PI * 0.5), np.log10(TWO_PI * 200.0), 20)
    pre, _ = slt.hybrid_prereduce(sys, omegas)
    H = slt.eval_transfer(sys, 1j * omegas)
    Hp = slt.eval_transfer(pre, 1j * omegas)
    interp_dev = max(spla.norm(a - b, 2) / spla.norm(a, 2)
                     for a, b in zip(H, Hp))

    cfg = slt.ReductionConfig(method="flbt", formula="pv", band=band,
                              fixed_order=res.r, hybrid=(omegas, 1e-12))
    hyb = slt.reduce(sys, cfg)
    rep_hyb = slt.frequency_error_report(
        sys, hyb, TWO_PI * 0.01, TWO_PI * 1000.0, 150, band=band)

    ok = (interp_dev <= 1e-6
          and rep_hyb.local_max_rel
          <= max(10.0 * rep_direct.local_max_rel, 1e-8))
    _verdict(12, "hybrid pre-reduction interpolates the samples and the "
                 "two-step ROM tracks the full-Gramian one",
             ok, f"interp dev {interp_dev:.2e}, in-band rel "
                 f"{rep_hyb.local_max_rel:.2e} (hybrid, order "
                 f"{hyb.details.get('prereduced_order')}) vs "
                 f"{rep_direct.local_max_rel:.2e} (direct)")


def test_criterion_13_modified_gramians():
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(500 + seed)
        real = stable_generic(rng, 12)
        band = FrequencyBand([(0.4, 1.6)])
        window = TimeWindow(0.0, 2.0)
        for lim, mod in ((slt.frequency_limited_gramians(real, band),
                          slt.modified_gramians(real, band=band)),
                         (slt.time_limited_gramians(real, window),
                          slt.modified_gramians(real, window=window))):
            for side in ("controllability", "observability"):
                D = getattr(mod, side).matrix() - getattr(lim, side).matrix()
                scale = max(1.0, spla.norm(getattr(lim, side).matrix(), 2))
                worst = max(worst, -min_eig(D) / scale)

    chain = slt.generate_chain(20)
    band = FrequencyBand([(0.05, 0.3)])
    produced = []
    for formula in slt.FORMULAS:
        cfg = slt.ReductionConfig(method="flbt", formula=formula, band=band,
                                  modified=True, fixed_order=4)
        rom = slt.reduce(chain, cfg)
        produced.append(f"{formula}{'' if rom.stable else '(unstable)'}")
    ok = worst <= 1e-10 and len(produced) == 8
    _verdict(13, "modified Gramians dominate the limited ones and feed "
                 "every formula without error",
             ok, f"worst psd defect {worst:.2e}; ROMs {','.join(produced)}")


def test_criterion_14_property_suites():
    t0 = time.perf_counter()
    tol = 1e-8
    add_dev = split_dev = dom_dev = 0.0
    for seed in range(3):
        rng = np.random.default_rng(700 + seed)
        real = stable_generic(rng, 8)

        b1, b2 = FrequencyBand([(0.3, 0.8)]), FrequencyBand([(1.5, 2.5)])
        both = FrequencyBand([(0.3, 0.8), (1.5, 2.5)])
        P1 = slt.frequency_limited_gramians(real, b1).controllability.matrix()
        P2 = slt.frequency_limited_gramians(real, b2).controllability.matrix()
        P12 = slt.frequency_limited_gramians(real, both).controllability.matrix()
        add_dev = max(add_dev, _rel(P1 + P2, P12))

        Pa = slt.time_limited_gramians(real, TimeWindow(0.0, 1.2)) \
            .controllability.matrix()
        Pb = slt.time_limited_gramians(real, TimeWindow(1.2, 3.0)) \
            .controllability.matrix()
        Pab = slt.time_limited_gramians(real, TimeWindow(0.0, 3.0)) \
            .controllability.matrix()
        split_dev = max(split_dev, _rel(Pa + Pb, Pab))

        Pinf = slt.infinite_gramians(real).controllability.matrix()
        scale = spla.norm(Pinf, 2)
        dom_dev = max(dom_dev,
                      -min_eig(Pinf - P12) / scale,
                      -min_eig(Pinf - Pa) / scale)

    rng = np.random.default_rng(710)
    monotone = True
    for _ in range(20):
        sigma = np.sort(rng.uniform(1e-8, 1.0, size=30))[::-1]
        tols = np.sort(rng.uniform(1e-6, 0.5, size=6))
        rs = [slt.select_order(sigma, tol=tk) for tk in tols]
        monotone &= all(ra >= rb for ra, rb in zip(rs, rs[1:]))
    elapsed = time.perf_counter() - t0
    ok = (add_dev <= tol and split_dev <= tol and dom_dev <= tol
          and monotone and elapsed < 300.0)
    _verdict(14, "band additivity, window splitting, Gramian domination and "
                 "monotone order selection all hold",
             ok, f"devs {add_dev:.2e}/{split_dev:.2e}/{dom_dev:.2e}, "
                 f"monotone={monotone}, {elapsed:.1f} s")
