"""Acceptance gate: seven end-to-end checks with pinned tolerances.

Each criterion is one test that prints a single pass/fail line; `pytest -v`
gives one PASSED/FAILED row per criterion, and `-rA` (or `-s`) also shows
the printed measurement lines for the passing ones.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

import scenegen
from inaclink import (
    LsmControl,
    McConfig,
    PseudorangeSet,
    RicianParams,
    RisArray,
    ScenarioConfig,
    capacity_hardened,
    cascaded_moments,
    ks_distance,
    lsm_solve,
    mc_capacity,
    min_satellites,
    outage_asymptotic,
    outage_closed_form,
    outage_threshold,
    sample_cascaded_gains,
)
from inaclink.errors import RegionError
from inaclink.geometry import OrbitGeometry
from inaclink.montecarlo import outage_events, wilson_half_width
from inaclink.navigation import SPEED_OF_LIGHT, predicted_pseudoranges
from inaclink.sweeps import report_to_csv_text, run_sweep

SEED = 12345


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


def _clt_ks_gap(elements: int, k_r: float, k_g: float) -> float:
    """First-order KS distance between the exact gain law and its CLT law.

    The amplitude is a sum of L i.i.d. products Y = |h||g|.  Its first
    Edgeworth term is -g1 / (6 sqrt(L)) (z^2 - 1) phi(z), with g1 the
    skewness of Y; its largest size, at z = 0, is g1 / (6 sqrt(2 pi L)).
    Squaring and folding a sum this far from 0 leave the KS distance as is.
    The raw moments of Y are products of the unit-power Rician ones,
    E|h|^n = Gamma(1 + n/2) (1 + K)^(-n/2) 1F1(-n/2; 1; -K), from scipy so
    that the check shares no code with inaclink.
    """

    def rician(n: int, k: float) -> float:
        return special.gamma(1.0 + n / 2.0) * (1.0 + k) ** (-n / 2.0) * special.hyp1f1(-n / 2.0, 1.0, -k)

    m1, m2, m3 = (rician(n, k_r) * rician(n, k_g) for n in (1, 2, 3))
    skew = (m3 - 3.0 * m1 * m2 + 2.0 * m1**3) / (m2 - m1 * m1) ** 1.5
    return skew / (6.0 * math.sqrt(2.0 * math.pi * elements))


def test_criterion_1_effective_channel_distribution():
    # KS distance between 1e5 sampled gains and the closed-form CDF, over
    # L x K_r x K_g; bound 0.02 everywhere; 30 s cap.  The CLT law is off
    # the exact one by its Edgeworth gap D, which no trial count removes,
    # so every cell's KS must also lie within the DKW half-width eps of D
    # (alpha = 1e-3; D's own O(1/L) error is well inside eps on this grid).
    t0 = time.perf_counter()
    mc = McConfig(trials=100_000, master_seed=SEED)
    eps = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * mc.trials))
    ks, gap = {}, {}
    for L in (32, 64, 128):
        for k_r in (0.0, 1.0, 10.0):
            for k_g in (0.0, 1.0):
                cell = (L, k_r, k_g)
                ks[cell] = ks_distance(RisArray(L, 1.0), RicianParams(k_r, k_g), mc)
                gap[cell] = _clt_ks_gap(L, k_r, k_g)
    elapsed = time.perf_counter() - t0
    worst_cell = max(ks, key=ks.get)
    worst = ks[worst_cell]
    far_cell = max(ks, key=lambda c: abs(ks[c] - gap[c]))
    far = abs(ks[far_cell] - gap[far_cell])
    ok = worst <= 0.02 and far <= eps and elapsed <= 30.0
    _report(
        1,
        ok,
        f"KS worst {worst:.4f} at {worst_cell} (bound 0.02); "
        f"farthest from D at {far_cell}: KS {ks[far_cell]:.4f}, D {gap[far_cell]:.4f} "
        f"(|KS - D| bound {eps:.4f}); cell (64,1,0) KS {ks[64, 1.0, 0.0]:.4f}, D {gap[64, 1.0, 0.0]:.4f}; "
        f"{elapsed:.1f} s (cap 30)",
    )
    assert worst <= 0.02, f"worst KS {worst} at {worst_cell}"
    assert far <= eps, f"KS {ks[far_cell]} at {far_cell} is {far} from its CLT gap {gap[far_cell]}"
    assert elapsed <= 30.0


def test_criterion_2_outage_closed_form_vs_monte_carlo():
    # 12-point power grids per mode/signal spanning OP from ~0.9 down to
    # ~1e-4; |closed form - MC(1e5)| <= max(0.01, 3 half-widths); 60 s cap.
    t0 = time.perf_counter()
    cfg = ScenarioConfig()
    base = cfg.scenario()
    gains = sample_cascaded_gains(base.ris, base.rician, McConfig(trials=100_000, master_seed=SEED))
    grids = {
        ("CO", "multicast"): np.geomspace(9.633, 19.79, 12),
        ("CO", "unicast"): np.geomspace(28.90, 59.36, 12),
        ("NO", "multicast"): np.geomspace(57.78, 118.7, 12),
        ("NO", "unicast"): np.geomspace(12.84, 26.38, 12),
    }
    worst_excess = -math.inf
    spans_ok = True
    for (mode, signal), powers in grids.items():
        cfs = []
        for p in powers:
            sc = replace(cfg, mode=mode, tx_power_dbm=30.0 + 10.0 * math.log10(p)).scenario()
            cf = outage_closed_form(sc, signal).value
            cfs.append(cf)
            count = int(np.count_nonzero(outage_events(gains, sc, signal)))
            freq = count / gains.size
            hw = wilson_half_width(count, gains.size)
            worst_excess = max(worst_excess, abs(cf - freq) - max(0.01, 3.0 * hw))
        spans_ok = spans_ok and max(cfs) >= 0.89 and min(cfs) <= 1.2e-4
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 0.0 and spans_ok and elapsed <= 60.0
    _report(
        2,
        ok,
        f"worst |cf-mc| minus allowance {worst_excess:+.5f} (must be <= 0); "
        f"grids span [1e-4, 0.9]: {spans_ok}; {elapsed:.1f} s (cap 60)",
    )
    assert worst_excess <= 0.0
    assert spans_ok
    assert elapsed <= 60.0


def test_criterion_3_asymptotic_outage_region():
    # series outage within 5% of the closed form wherever the expansion is
    # valid; a region violation is reported, not silently extrapolated
    def at_threshold(cfg, omega):
        # the power, in dB above cfg's, that puts the multi-cast threshold at omega
        base = outage_threshold(cfg.scenario(), "multicast")
        return replace(cfg, tx_power_dbm=cfg.tx_power_dbm + 10.0 * math.log10(base / omega)).scenario()

    worst_rel = 0.0
    for omega in (1e-4, 1e-3, 5e-3, 7e-3):
        sc = at_threshold(ScenarioConfig(elements=1, k_r=0.0, k_g=0.0), omega)
        a = outage_asymptotic(sc, "multicast").value
        e = outage_closed_form(sc, "multicast").value
        worst_rel = max(worst_rel, abs(a - e) / e)
    out_of_region_reported = False
    try:
        outage_asymptotic(at_threshold(ScenarioConfig(elements=2, k_r=0.0, k_g=0.0), 1e-6), "multicast")
    except RegionError:
        out_of_region_reported = True
    ok = worst_rel <= 0.05 and out_of_region_reported
    _report(
        3,
        ok,
        f"in-region worst rel err {worst_rel:.2e} (bound 5e-2); "
        f"out-of-region reported: {out_of_region_reported}",
    )
    assert worst_rel <= 0.05
    assert out_of_region_reported


def test_criterion_4_capacity_hardening():
    # MC capacity at L = 1024 against the hardened ceilings, and the mean
    # sampled gain against m3^2 at L = 1e4
    mc = McConfig(trials=20_000, master_seed=SEED)
    dbm = 100.0  # 1e7 W: deep in the interference-limited regime for the first decode
    co = ScenarioConfig(elements=1024, tx_power_dbm=dbm).scenario()
    no = ScenarioConfig(mode="NO", elements=1024, tx_power_dbm=dbm).scenario()
    # the mode changes the SINR, not the channel: one draw serves both
    drawn = sample_cascaded_gains(co.ris, co.rician, mc)
    dev_co = abs(mc_capacity(drawn, co, "multicast").mean - math.log2(2.5))
    dev_no = abs(mc_capacity(drawn, no, "unicast").mean - math.log2(10.0))
    ris = RisArray(10_000, 1.0)
    rician = RicianParams(1.0, 0.0)
    gains = sample_cascaded_gains(ris, rician, McConfig(trials=2_000, master_seed=SEED))
    ratio = float(np.mean(gains)) / cascaded_moments(ris, rician).m3 ** 2
    ok = dev_co <= 0.05 and dev_no <= 0.05 and abs(ratio - 1.0) <= 0.02
    _report(
        4,
        ok,
        f"CO multicast dev {dev_co:.4f}, NO unicast dev {dev_no:.4f} (bounds 0.05); "
        f"mean gain / m3^2 = {ratio:.5f} (within 2%)",
    )
    assert dev_co <= 0.05
    assert dev_no <= 0.05
    assert abs(ratio - 1.0) <= 0.02


def test_criterion_5_parameter_trends():
    cfg = ScenarioConfig()
    # (a) outage falls strictly with power, elements, and K factor
    by_p = [
        outage_closed_form(replace(cfg, tx_power_dbm=float(dbm)).scenario(), "multicast").value
        for dbm in 30.0 + 10.0 * np.log10(np.geomspace(9.633, 19.79, 12))  # 9.6 to 19.8 W
    ]
    by_l = [
        outage_closed_form(ScenarioConfig(elements=L).scenario(), "multicast").value
        for L in (64, 96, 128, 192)
    ]
    by_k = [
        outage_closed_form(ScenarioConfig(k_r=k).scenario(), "multicast").value
        for k in (0.0, 1.0, 10.0)
    ]
    strict = all(a > b for a, b in zip(by_p, by_p[1:]))
    strict = strict and all(a > b for a, b in zip(by_l, by_l[1:]))
    strict = strict and all(a > b for a, b in zip(by_k, by_k[1:]))
    # (b) the CO uni-cast capacity overtakes the NO uni-cast ceiling in L
    diffs = [
        capacity_hardened(ScenarioConfig(elements=L).scenario(), "unicast")
        - capacity_hardened(ScenarioConfig(mode="NO", elements=L).scenario(), "unicast")
        for L in (16, 64, 256, 1024, 4096, 16384)
    ]
    crossing = diffs[0] < 0.0 < diffs[-1]
    # (c) constellation sizing trends
    def n_sats(r_m_km, elev_deg):
        return min_satellites(
            OrbitGeometry(r_e=6378e3, r_m=r_m_km * 1e3, elevation=math.radians(elev_deg))
        )

    by_height = [n_sats(r, 45.0) for r in cfg.sweep_r_m_km]
    by_mask = [n_sats(8000.0, e) for e in cfg.sweep_elevation_deg]
    n_low_high = n_sats(500.0, 75.0)
    constellation = (
        all(a >= b for a, b in zip(by_height, by_height[1:]))
        and all(a <= b for a, b in zip(by_mask, by_mask[1:]))
        and n_low_high > 10_000
    )
    # (d) positioning RMSE improves with L, plateaus, diverges without a RIS
    nav = run_sweep(cfg, "nav-accuracy")
    nav_ok = True
    for mode in ("co", "no"):
        col = nav.columns[f"{mode}_rmse_m"]
        nav_ok = (
            nav_ok
            and col[0] == math.inf
            and all(a >= b for a, b in zip(col, col[1:]))
            and math.isfinite(col[-1])
            and col[-1] == col[-2]
        )
    ok = strict and crossing and constellation and nav_ok
    _report(
        5,
        ok,
        f"outage strictly falls in p/L/K: {strict}; capacity crossing: {crossing}; "
        f"constellation trends with N(500 km, 75 deg) = {n_low_high}: {constellation}; "
        f"nav RMSE trend/plateau/divergence: {nav_ok}",
    )
    assert strict
    assert crossing
    assert constellation
    assert nav_ok


def test_criterion_6_noiseless_positioning():
    # 100 random well-posed scenes: exact recovery from noiseless ranges,
    # then a uniform pseudorange offset must land in the clock state only
    ctrl = LsmControl(iters=20, loss=1e-12)
    scenes = scenegen.unique_fix_scenes(seed=7, count=100)
    worst_pos = worst_clk = worst_shift = worst_absorb = 0.0
    worst_iters = 0
    for scene in scenes:
        truth = np.append(scene.true_user, SPEED_OF_LIGHT * scene.clock_bias)
        pr = PseudorangeSet(rho=predicted_pseudoranges(scene, truth))
        fix = lsm_solve(pr, scene, ctrl)
        worst_pos = max(worst_pos, float(np.linalg.norm(fix.position - scene.true_user)))
        worst_clk = max(worst_clk, abs(fix.clock_bias_s - scene.clock_bias))
        worst_iters = max(worst_iters, fix.iterations_used)
        shifted = lsm_solve(PseudorangeSet(rho=pr.rho + 250.0), scene, ctrl)
        worst_shift = max(worst_shift, float(np.linalg.norm(shifted.position - fix.position)))
        worst_absorb = max(worst_absorb, abs(shifted.state[3] - fix.state[3] - 250.0))
    ok = (
        worst_pos <= 1e-3
        and worst_clk <= 1e-12
        and worst_iters <= 10
        and worst_shift <= 1e-6
        and worst_absorb <= 1e-3
    )
    _report(
        6,
        ok,
        f"worst position {worst_pos:.2e} m (bound 1e-3), clock {worst_clk:.2e} s (bound 1e-12), "
        f"iterations {worst_iters} (bound 10); offset leakage {worst_shift:.2e} m (bound 1e-6)",
    )
    assert worst_pos <= 1e-3
    assert worst_clk <= 1e-12
    assert worst_iters <= 10
    assert worst_shift <= 1e-6
    assert worst_absorb <= 1e-3


def test_criterion_7_reproducible_reports(tmp_path):
    from inaclink.cli import main

    cfg = ScenarioConfig()
    direct_a = report_to_csv_text(run_sweep(cfg, "op-vs-elements"))
    direct_b = report_to_csv_text(run_sweep(cfg, "op-vs-elements"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc_a = main(["reproduce", "op-vs-power", "--out", str(a)])
    rc_b = main(["reproduce", "op-vs-power", "--out", str(b)])
    cli_ok = rc_a == 0 and rc_b == 0 and a.read_bytes() == b.read_bytes()
    ok = direct_a == direct_b and cli_ok
    _report(
        7,
        ok,
        f"library rerun identical: {direct_a == direct_b} ({len(direct_a)} bytes); "
        f"CLI rerun identical: {cli_ok} ({a.stat().st_size} bytes)",
    )
    assert direct_a == direct_b
    assert cli_ok
