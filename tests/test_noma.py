"""Superposition analysis: SINRs, outage closed forms and capacity."""

import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inaclink import (
    OutageResult,
    PowerSplit,
    RateTargets,
    RisArray,
    ScenarioConfig,
    capacity_hardened,
    cascaded_moments,
    outage_asymptotic,
    outage_closed_form,
    outage_threshold,
)
from inaclink import noma
from inaclink.errors import (
    ConvergenceError,
    InfeasibleError,
    RegionError,
)
from inaclink.geometry import LinkBudget
from inaclink.montecarlo import mc_capacity, mc_outage, outage_events
from inaclink.noma import MODES, SIGNALS, Scenario, role, sinr


def scenario(mode="CO", **overrides):
    return ScenarioConfig(mode=mode, **overrides).scenario()


def split_scenario(a_m, a_u, mode="CO", **overrides):
    """scenario(mode, **overrides) at the exact split (a_m, a_u), which 1 - a_u may not give."""
    return replace(scenario(mode, **overrides), split=PowerSplit(a_m, a_u))


# --- reference decode order ---------------------------------------------------
# The per-mode formulas that the `role` records and `sinr` replace, kept
# verbatim (renamed) so that the one decode-order model is checked bit for bit.

#: the signal SIC decodes first in each mode, as the paper defines CO and NO
FIRST_DECODED = {"CO": "multicast", "NO": "unicast"}


def _ref_co_multicast(gain, sc):
    a = sc.split.alpha_m_sq * gain * sc.budget.gamma
    b = sc.split.alpha_u_sq * gain * sc.budget.gamma + sc.budget.noise_power
    return a / b


def _ref_co_unicast(gain, sc):
    return sc.split.alpha_u_sq * gain * sc.budget.gamma / sc.budget.noise_power


def _ref_no_unicast(gain, sc):
    a = sc.split.alpha_u_sq * gain * sc.budget.gamma
    b = sc.split.alpha_m_sq * gain * sc.budget.gamma + sc.budget.noise_power
    return a / b


def _ref_no_multicast(gain, sc):
    return sc.split.alpha_m_sq * gain * sc.budget.gamma / sc.budget.noise_power


def _ref_sinr(gains, sc, signal):
    if sc.mode == "CO":
        return _ref_co_multicast(gains, sc) if signal == "multicast" else _ref_co_unicast(gains, sc)
    return _ref_no_multicast(gains, sc) if signal == "multicast" else _ref_no_unicast(gains, sc)


def _ref_outage_threshold(sc, signal):
    eps_m, eps_u = 2.0 ** sc.targets.r_m - 1.0, 2.0 ** sc.targets.r_u - 1.0
    a_m, a_u = sc.split.alpha_m_sq, sc.split.alpha_u_sq
    rho2, gamma = sc.budget.noise_power, sc.budget.gamma
    if sc.mode == "CO":
        first = eps_m * rho2 / ((a_m - a_u * eps_m) * gamma)
        if signal == "multicast":
            return first
        return max(first, eps_u * rho2 / (a_u * gamma))
    first = eps_u * rho2 / ((a_u - a_m * eps_u) * gamma)
    if signal == "unicast":
        return first
    return max(first, eps_m * rho2 / (a_m * gamma))


def _ref_capacity_hardened(sc, signal):
    a_m, a_u = sc.split.alpha_m_sq, sc.split.alpha_u_sq
    g_hard = sc.moments.m3**2 * sc.budget.gamma / sc.budget.noise_power
    if sc.mode == "CO":
        if signal == "multicast":
            return math.log2(1.0 + a_m / a_u)
        return math.log2(1.0 + a_u * g_hard)
    if signal == "unicast":
        return math.log2(1.0 + a_u / a_m)
    return math.log2(1.0 + a_m * g_hard)


def _ref_outage_events(gains, sc, signal):
    t = sc.targets
    if sc.mode == "CO":
        first_fail = np.log2(1.0 + _ref_co_multicast(gains, sc)) < t.r_m
        if signal == "multicast":
            return first_fail
        second_fail = np.log2(1.0 + _ref_co_unicast(gains, sc)) < t.r_u
        return first_fail | (~first_fail & second_fail)
    first_fail = np.log2(1.0 + _ref_no_unicast(gains, sc)) < t.r_u
    if signal == "unicast":
        return first_fail
    second_fail = np.log2(1.0 + _ref_no_multicast(gains, sc)) < t.r_m
    return first_fail | (~first_fail & second_fail)


def _ref_feasible(sc):
    if sc.mode == "CO":
        return sc.split.alpha_m_sq - sc.split.alpha_u_sq * (2.0 ** sc.targets.r_m - 1.0) > 0.0
    return sc.split.alpha_u_sq - sc.split.alpha_m_sq * (2.0 ** sc.targets.r_u - 1.0) > 0.0


class TestDataTypes:
    def test_power_split_validation(self):
        PowerSplit(alpha_m_sq=0.6, alpha_u_sq=0.4)
        with pytest.raises(ValueError):
            PowerSplit(alpha_m_sq=0.6, alpha_u_sq=0.5)
        with pytest.raises(ValueError):
            PowerSplit(alpha_m_sq=1.0, alpha_u_sq=0.0)
        with pytest.raises(ValueError):
            PowerSplit(alpha_m_sq=-0.2, alpha_u_sq=1.2)

    def test_rate_targets(self):
        t = RateTargets(r_m=0.0005, r_u=0.001)
        assert noma._eps(t.r_m) == pytest.approx(0.00034663365384535183, rel=1e-14)
        assert noma._eps(t.r_u) == pytest.approx(0.0006933874625807412, rel=1e-14)
        with pytest.raises(ValueError):
            RateTargets(r_m=0.0, r_u=0.001)
        with pytest.raises(ValueError):
            RateTargets(r_m=0.001, r_u=-1.0)
        for bad in (math.nan, math.inf, 1024.0, 1e300):  # from 1024 on, 2^R - 1 overflows
            with pytest.raises(ValueError):
                RateTargets(r_m=bad, r_u=0.001)
            with pytest.raises(ValueError):
                RateTargets(r_m=0.0005, r_u=bad)
        assert math.isfinite(noma._eps(RateTargets(r_m=0.0005, r_u=1023.999).r_u))

    def test_outage_result_validation(self):
        OutageResult(value=0.5)
        with pytest.raises(ValueError):
            OutageResult(value=1.2)

    def test_mode_and_signal_tuples(self):
        assert MODES == ("CO", "NO")
        assert SIGNALS == ("multicast", "unicast")

    def test_scenario_mode_validation(self):
        sc = scenario()
        with pytest.raises(ValueError):
            type(sc)(
                mode="XX",
                split=sc.split,
                targets=sc.targets,
                budget=sc.budget,
                ris=sc.ris,
                rician=sc.rician,
            )

    def test_moments_follow_ris_and_rician(self):
        sc = scenario()
        assert sc.moments == cascaded_moments(sc.ris, sc.rician)
        smaller = replace(sc, ris=RisArray(num_elements=4))
        assert smaller.moments == cascaded_moments(RisArray(num_elements=4), sc.rician)
        assert smaller.moments.m3 < sc.moments.m3

    def test_moments_stay_lazy(self):
        # K = 117 is past the 1F1 budget: building the scenario and reading its
        # feasibility and thresholds must not sum the series, reading the moments must
        sc = scenario(k_r=117.0)
        assert sc.feasible
        assert outage_threshold(sc, "unicast") > 0.0
        with pytest.raises(ConvergenceError):
            sc.moments
        # a read that fails keeps nothing, so the next read sums the series and fails again
        with pytest.raises(ConvergenceError):
            sc.moments
        # a read that succeeds is kept: the second read returns the first's object
        ok = scenario(k_r=1.0)
        assert ok.moments is ok.moments

    def test_power_scales_gamma_not_the_moments(self):
        sc = scenario()
        sc2 = scenario(tx_power_dbm=46.0 + 10.0 * math.log10(2.0))
        assert sc2.budget.gamma == pytest.approx(2.0 * sc.budget.gamma, rel=1e-13)
        assert sc2.budget.noise_power == sc.budget.noise_power
        assert sc2.moments == sc.moments


class TestSinr:
    def test_interference_limits(self):
        co = scenario("CO")
        no = scenario("NO")
        # gain -> inf: the first-decoded signal saturates at its share ratio
        assert sinr(1e30, co, "multicast") == pytest.approx(0.6 / 0.4, rel=1e-9)
        assert sinr(1e30, no, "unicast") == pytest.approx(0.9 / 0.1, rel=1e-9)

    def test_clean_links_are_linear_in_gain(self):
        co = scenario("CO")
        assert sinr(2.0, co, "unicast") == pytest.approx(2.0 * sinr(1.0, co, "unicast"), rel=1e-13)
        no = scenario("NO")
        assert sinr(2.0, no, "multicast") == pytest.approx(2.0 * sinr(1.0, no, "multicast"), rel=1e-13)

    def test_array_input(self):
        co = scenario("CO")
        gains = np.array([0.0, 1.0, 10.0])
        out = sinr(gains, co, "multicast")
        assert out.shape == (3,)
        assert out[0] == 0.0
        assert np.all(np.diff(out) > 0.0)


class TestDecodeOrder:
    """The `role` records and `sinr` against the per-mode formulas: same bits, not just close."""

    def test_first_decoded(self):
        # each record holds the signal's share, the other's, its decode stage and its rate
        for mode, first in FIRST_DECODED.items():
            sc = split_scenario(0.3, 0.7, mode, multicast_rate_bpshz=0.25, unicast_rate_bpshz=0.5)
            assert role(sc, "multicast")[:4] == (0.3, 0.7, first == "multicast", 0.25)
            assert role(sc, "unicast")[:4] == (0.7, 0.3, first == "unicast", 0.5)

    def test_bad_signal_name(self):
        with pytest.raises(ValueError):
            sinr(1.0, scenario(), "broadcast")

    @given(name=st.one_of(st.text(), st.lists(st.text(), max_size=1)).filter(
        lambda t: t not in MODES and t not in SIGNALS))
    def test_an_unknown_mode_or_signal_is_one_value_error(self, name):
        # every public path that reads a mode or a signal fails with the same
        # class and text, at a feasible and at an infeasible split, and for an
        # unhashable name too
        sc, infeasible = scenario(), split_scenario(0.00001, 0.99999)
        inputs = {f.name: getattr(sc, f.name) for f in fields(sc)}
        gains = np.ones(2)
        calls = {
            f"mode must be one of {MODES}, got {name!r}": [
                lambda: ScenarioConfig(mode=name).scenario(),
                lambda: ScenarioConfig(mode=name, alpha_u_sq=0.5).scenario(),
                lambda: Scenario(**{**inputs, "mode": name}),
                lambda: noma.mode_spec(name),
            ],
            f"signal must be one of {SIGNALS}, got {name!r}": [
                call for s in (sc, infeasible) for call in (
                    lambda s=s: role(s, name),
                    lambda s=s: sinr(1.0, s, name),
                    lambda s=s: outage_threshold(s, name),
                    lambda s=s: outage_closed_form(s, name),
                    lambda s=s: outage_asymptotic(s, name),
                    lambda s=s: capacity_hardened(s, name),
                    lambda s=s: outage_events(gains, s, name),
                    lambda s=s: mc_outage(gains, s, name),
                    lambda s=s: mc_capacity(gains, s, name),
                )
            ],
        }
        for message, paths in calls.items():
            for call in paths:
                with pytest.raises(ValueError) as err:
                    call()
                assert type(err.value) is ValueError and str(err.value) == message

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_the_per_mode_formulas(self, mode):
        gains = np.concatenate([[0.0], np.geomspace(1e-2, 1e6, 200)])
        splits = [(0.6, 0.4), (0.1, 0.9), (0.99, 0.01), (0.01, 0.99), (0.3, 0.7),
                  (0.00001, 0.99999), (0.99999, 0.00001)]
        checked = infeasible = 0
        for L, dbm, (a_m, a_u) in itertools.product((1, 8, 128, 4096), (20.0, 46.0, 60.0), splits):
            sc = split_scenario(a_m, a_u, mode, elements=L, tx_power_dbm=dbm)
            assert sc.feasible == _ref_feasible(sc)
            for signal in SIGNALS:
                assert sinr(gains, sc, signal).tobytes() == _ref_sinr(gains, sc, signal).tobytes()
                assert sinr(float(gains[7]), sc, signal) == _ref_sinr(float(gains[7]), sc, signal)
                assert capacity_hardened(sc, signal) == _ref_capacity_hardened(sc, signal)
                assert np.array_equal(outage_events(gains, sc, signal), _ref_outage_events(gains, sc, signal))
                if sc.feasible:
                    assert outage_threshold(sc, signal) == _ref_outage_threshold(sc, signal)
                    checked += 1
                else:
                    with pytest.raises(InfeasibleError):
                        outage_threshold(sc, signal)
                    infeasible += 1
        assert checked > 0 and infeasible > 0


def _derived(sc):
    """Feasibility and, as exact bits, each signal's capacity, omega and closed-form OP."""
    values = [capacity_hardened(sc, signal) for signal in SIGNALS]
    if sc.feasible:
        values += [outage_threshold(sc, signal) for signal in SIGNALS]
        values += [outage_closed_form(sc, signal).value for signal in SIGNALS]
    return sc.feasible, [v.hex() for v in values]


def _fresh(sc):
    """The same scenario built field by field: nothing sc has derived can reach it."""
    return Scenario(**{f.name: getattr(sc, f.name) for f in fields(sc)})


class TestDerivedValues:
    """Values a scenario derives once: in decode order, monotone in power, and
    never carried into a scenario made from it."""

    @settings(max_examples=150)
    @given(
        mode=st.sampled_from(MODES),
        alpha_u=st.floats(0.01, 0.99),
        other_alpha_u=st.floats(0.01, 0.99),
        r_m=st.floats(1e-4, 1.0),
        r_u=st.floats(1e-4, 1.0),
        dbm=st.floats(20.0, 60.0),
        gain_db=st.floats(3.0, 30.0),
        elements=st.integers(1, 4096),
        k_r=st.floats(0.0, 20.0),
        k_g=st.floats(0.0, 20.0),
    )
    def test_ordered_monotone_and_not_inherited(
        self, mode, alpha_u, other_alpha_u, r_m, r_u, dbm, gain_db, elements, k_r, k_g
    ):
        cfg = ScenarioConfig(
            mode=mode, alpha_u_sq=alpha_u, multicast_rate_bpshz=r_m,
            unicast_rate_bpshz=r_u, tx_power_dbm=dbm, elements=elements, k_r=k_r, k_g=k_g,
        )
        sc = cfg.scenario()
        before = _derived(sc)  # sc keeps these from here on
        louder = replace(sc, budget=replace(cfg, tx_power_dbm=dbm + gain_db).link())
        resplit = replace(sc, split=PowerSplit(alpha_m_sq=1.0 - other_alpha_u, alpha_u_sq=other_alpha_u))
        assert _derived(louder) == _derived(_fresh(louder))
        assert _derived(resplit) == _derived(_fresh(resplit))
        assert _derived(sc) == before
        if not sc.feasible:
            return
        first = FIRST_DECODED[mode]
        (second,) = set(SIGNALS) - {first}
        assert outage_threshold(sc, second) >= outage_threshold(sc, first)
        assert outage_closed_form(sc, second).value >= outage_closed_form(sc, first).value
        for signal in SIGNALS:
            assert outage_closed_form(louder, signal).value <= outage_closed_form(sc, signal).value


class TestOutageThreshold:
    def test_reference_values_co(self):
        sc = scenario("CO")
        assert outage_threshold(sc, "multicast") == pytest.approx(3006.081519398236, rel=1e-12)
        assert outage_threshold(sc, "unicast") == pytest.approx(9017.723192489673, rel=1e-12)

    def test_reference_values_no(self):
        sc = scenario("NO")
        assert outage_threshold(sc, "multicast") == pytest.approx(18032.32108030611, rel=1e-12)
        assert outage_threshold(sc, "unicast") == pytest.approx(4008.1857773027077, rel=1e-12)

    def test_second_stage_takes_the_max(self):
        # nearly all power on the multi-cast signal: the first decode is easy
        # and the uni-cast stage dominates its own threshold
        sc = ScenarioConfig(alpha_u_sq=0.01).scenario()
        first = outage_threshold(sc, "multicast")
        second_only = (2.0 ** sc.targets.r_u - 1.0) * sc.budget.noise_power / (0.01 * sc.budget.gamma)
        assert outage_threshold(sc, "unicast") == pytest.approx(second_only, rel=1e-12)
        assert outage_threshold(sc, "unicast") > first

    def test_first_stage_can_dominate_the_second(self):
        # nearly all power on the uni-cast signal: surviving the first decode
        # is the binding constraint for both signals
        sc = split_scenario(0.01, 0.99)
        assert outage_threshold(sc, "unicast") == outage_threshold(sc, "multicast")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("first_share", [0.3, 0.7])
    def test_an_underflowing_denominator_gives_inf(self, mode, first_share):
        # at the smallest subnormal gamma, a share below 1/2 times gamma rounds
        # to 0: no finite gain decodes that stage, and the second-decoded signal
        # must pass both stages, so its threshold is inf either way
        first = FIRST_DECODED[mode]
        (second,) = set(SIGNALS) - {first}
        shares = {first: first_share, second: 1.0 - first_share}
        sc = replace(scenario(mode), split=PowerSplit(shares["multicast"], shares["unicast"]),
                     budget=LinkBudget(gamma=5e-324, noise_power=1e-13))
        assert sc.feasible
        assert (outage_threshold(sc, first) == math.inf) == (first_share < 0.5)
        assert outage_threshold(sc, second) == math.inf
        for signal in SIGNALS:
            assert outage_closed_form(sc, signal).value == 1.0
            with pytest.raises(RegionError):
                outage_asymptotic(sc, signal)

    def test_scales_inversely_with_power(self):
        sc = scenario("CO")
        w1 = outage_threshold(sc, "multicast")
        w2 = outage_threshold(scenario("CO", tx_power_dbm=46.0 + 10.0 * math.log10(2.0)), "multicast")
        assert w2 == pytest.approx(0.5 * w1, rel=1e-13)

    def test_bad_signal_name(self):
        with pytest.raises(ValueError):
            outage_threshold(scenario(), "broadcast")


class TestOutageClosedForm:
    def test_reference_values(self):
        co, no = scenario("CO"), scenario("NO")
        assert outage_closed_form(co, "multicast").value == pytest.approx(5.255240687063178e-13, rel=1e-9)
        assert outage_closed_form(co, "unicast").value == pytest.approx(0.12158207711552355, rel=1e-10)
        assert outage_closed_form(no, "multicast").value == pytest.approx(0.9999984869384003, rel=1e-12)
        assert outage_closed_form(no, "unicast").value == pytest.approx(2.2495147411483174e-9, rel=1e-9)

    def test_infeasible_split_saturates(self):
        sc = split_scenario(0.00001, 0.99999)
        assert not sc.feasible
        res = outage_closed_form(sc, "multicast")
        assert res.value == 1.0
        with pytest.raises(InfeasibleError):
            outage_threshold(sc, "multicast")

    def test_no_mode_infeasible_split(self):
        sc = ScenarioConfig(mode="NO", alpha_u_sq=0.00001).scenario()
        assert not sc.feasible
        assert outage_closed_form(sc, "unicast").value == 1.0

    def test_monotone_in_power(self):
        ops = [
            outage_closed_form(scenario("CO", tx_power_dbm=30.0 + 10.0 * math.log10(p)), "unicast").value
            for p in np.geomspace(20.0, 60.0, 8)
        ]
        assert all(a > b for a, b in zip(ops, ops[1:]))


class TestOutageAsymptotic:
    #: one Rayleigh-Rayleigh element keeps (m3 + sqrt(w)) / sqrt(2 v3)
    #: below 1 once the threshold is small enough
    LOW_SNR = ScenarioConfig(elements=1, k_r=0.0, k_g=0.0)

    def at_threshold(self, cfg, omega):
        """The scenario of cfg at the power that puts its multi-cast threshold at omega."""
        base = outage_threshold(cfg.scenario(), "multicast")
        return replace(cfg, tx_power_dbm=cfg.tx_power_dbm + 10.0 * math.log10(base / omega)).scenario()

    def test_matches_closed_form_in_region(self):
        for omega in (1e-4, 1e-3, 5e-3, 7e-3):
            sc_t = self.at_threshold(self.LOW_SNR, omega)
            asym = outage_asymptotic(sc_t, "multicast")
            exact = outage_closed_form(sc_t, "multicast")
            assert asym.value == pytest.approx(exact.value, rel=1e-9)

    def test_relative_error_bound_in_region(self):
        for omega in (1e-4, 1e-3, 5e-3, 7e-3):
            sc_t = self.at_threshold(self.LOW_SNR, omega)
            a = outage_asymptotic(sc_t, "multicast").value
            e = outage_closed_form(sc_t, "multicast").value
            assert abs(a - e) / e <= 0.05

    def test_out_of_region_raises(self):
        # already at L = 2 the region condition fails for every threshold
        cfg = ScenarioConfig(elements=2, k_r=0.0, k_g=0.0)
        with pytest.raises(RegionError):
            outage_asymptotic(self.at_threshold(cfg, 1e-6), "multicast")
        with pytest.raises(RegionError):
            outage_asymptotic(scenario(), "multicast")

    def test_exhausted_budget_raises(self, monkeypatch):
        sc_t = self.at_threshold(self.LOW_SNR, 5e-3)
        monkeypatch.setattr(noma, "_SERIES_TERMS", 1)
        with pytest.raises(ConvergenceError):
            outage_asymptotic(sc_t, "multicast")

    def test_zero_threshold_gives_zero(self):
        # 2^R - 1 rounds to 0 at R = 1e-320, so omega = 0; the series' first
        # term and the closed form both return 0 there
        sc = ScenarioConfig(elements=1, k_r=0.0, k_g=0.0, multicast_rate_bpshz=1e-320,
                            unicast_rate_bpshz=1e-320).scenario()
        for signal in SIGNALS:
            assert outage_threshold(sc, signal) == 0.0
            assert outage_closed_form(sc, signal).value == 0.0
            assert outage_asymptotic(sc, signal).value == 0.0

    def test_infeasible_split_saturates(self):
        sc = split_scenario(0.00001, 0.99999)
        assert not sc.feasible
        assert outage_asymptotic(sc, "multicast").value == 1.0

    def test_tiny_moments_keep_the_series_in_range(self):
        # m3 and v3 are ~1e-35 and ~1e-70: m3^k and (2 v3)^(n+1/2) leave the
        # doubles on their own, but in units of sqrt(2 v3) every factor stays in range
        sc = ScenarioConfig(f_c_ghz=0.1, g_t_dbi=60.0, alpha1=1.5, d_ru_m=1.0, bandwidth_mhz=0.1,
                            tx_power_dbm=70.0, spread_gain_db=600.0, elements=1, amplitude=1e-35,
                            k_r=0.001, k_g=0.001, multicast_rate_bpshz=1e-5,
                            unicast_rate_bpshz=1e-5).scenario()
        for signal in SIGNALS:
            exact = outage_closed_form(sc, signal).value
            assert 1e-4 < exact < 1e-3
            assert outage_asymptotic(sc, signal).value == pytest.approx(exact, rel=1e-9)


class TestCapacity:
    def test_interference_limited_constants(self):
        co, no = scenario("CO"), scenario("NO")
        assert capacity_hardened(co, "multicast") == pytest.approx(math.log2(2.5), rel=1e-14)
        assert capacity_hardened(no, "unicast") == pytest.approx(math.log2(10.0), rel=1e-14)
        # independent of transmit power
        assert capacity_hardened(scenario("CO", tx_power_dbm=120.0), "multicast") == pytest.approx(
            math.log2(2.5), rel=1e-14
        )

    def test_clean_link_reference_values(self):
        assert capacity_hardened(scenario("CO"), "unicast") == pytest.approx(
            0.0011724073472088076, rel=1e-10
        )
        assert capacity_hardened(scenario("NO"), "multicast") == pytest.approx(
            0.0002931911699452266, rel=1e-10
        )

    def test_clean_link_gains_two_bits_per_power_quadrupling(self):
        # 1e7 W is 100 dBm, and four times the power is 10 log10(4) dB more
        quadrupled = 100.0 + 10.0 * math.log10(4.0)
        diff = capacity_hardened(scenario("CO", tx_power_dbm=quadrupled), "unicast") - capacity_hardened(
            scenario("CO", tx_power_dbm=100.0), "unicast"
        )
        assert 1.9 < diff < 2.0001
        diff = capacity_hardened(scenario("NO", tx_power_dbm=quadrupled), "multicast") - capacity_hardened(
            scenario("NO", tx_power_dbm=100.0), "multicast"
        )
        assert 1.9 < diff < 2.0001

