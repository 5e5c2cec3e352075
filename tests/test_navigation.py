"""Pseudorange synthesis, Gauss-Newton positioning, DOP, ranging noise."""

import math

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from inaclink import (
    LsmControl,
    NavScene,
    PseudorangeSet,
    default_scene,
    dilution_of_precision,
    lsm_solve,
    range_noise_from_snr,
    synthesize_pseudoranges,
)
from inaclink import navigation
from inaclink.errors import DegenerateGeometryError
from inaclink.navigation import SPEED_OF_LIGHT, design_row, predicted_pseudoranges


def noiseless_measurements(scene):
    truth = np.append(scene.true_user, SPEED_OF_LIGHT * scene.clock_bias)
    return PseudorangeSet(rho=predicted_pseudoranges(scene, truth), sigma=np.zeros(4))


def _reference_lsm_solve(pr, scene, ctrl=LsmControl()):
    """The row-by-row Gauss-Newton loop that `lsm_solve` must match bit for bit.

    Returns (state, iterations_used, final_cost).
    """
    x = ctrl.x0.copy()
    anchors = scene.anchors()
    iterations = ctrl.iters
    cost = math.inf
    for k in range(1, ctrl.iters + 1):
        b = pr.rho - predicted_pseudoranges(scene, x)
        cost = float(b @ b)
        if cost < ctrl.loss:
            iterations = k
            break
        u = np.vstack([design_row(anchor, x[:3]) for anchor in anchors])
        dx, _, rank, _ = np.linalg.lstsq(u, b, rcond=None)
        if rank < 4:
            raise DegenerateGeometryError("design matrix is rank deficient")
        x = x + dx
    else:
        b = pr.rho - predicted_pseudoranges(scene, x)
        cost = float(b @ b)
    return x, iterations, cost


class TestNavScene:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            NavScene(
                sat_positions=np.zeros((2, 3)),
                inac_sat_position=np.zeros(3),
                ris_position=np.zeros(3),
                true_user=np.zeros(3),
                clock_bias=0.0,
            )
        with pytest.raises(ValueError):
            NavScene(
                sat_positions=np.zeros((3, 3)),
                inac_sat_position=np.zeros(2),
                ris_position=np.zeros(3),
                true_user=np.zeros(3),
                clock_bias=0.0,
            )

    def test_anchor_stack_puts_ris_last(self):
        scene = default_scene()
        anchors = scene.anchors()
        assert anchors.shape == (4, 3)
        np.testing.assert_array_equal(anchors[:3], scene.sat_positions)
        np.testing.assert_array_equal(anchors[3], scene.ris_position)

    def test_relay_leg_length(self):
        scene = default_scene()
        assert scene.r_tau_r == pytest.approx(
            float(np.linalg.norm(scene.inac_sat_position - scene.ris_position)), rel=0
        )

    def test_translated(self):
        scene = default_scene()
        t = np.array([10.0, -20.0, 5.0])
        moved = scene.translated(t)
        np.testing.assert_allclose(moved.true_user, scene.true_user + t)
        np.testing.assert_allclose(moved.sat_positions, scene.sat_positions + t)
        assert moved.clock_bias == scene.clock_bias
        # relative geometry unchanged
        assert moved.r_tau_r == pytest.approx(scene.r_tau_r, rel=1e-12)


class TestSynthesis:
    def test_noiseless_rows(self):
        scene = default_scene()
        rng = np.random.default_rng(0)
        pr = synthesize_pseudoranges(scene, 0.0, rng)
        clock_m = SPEED_OF_LIGHT * scene.clock_bias
        for i in range(3):
            expected = np.linalg.norm(scene.sat_positions[i] - scene.true_user) + clock_m
            assert pr.rho[i] == pytest.approx(expected, rel=1e-15)
        relayed = scene.r_tau_r + np.linalg.norm(scene.ris_position - scene.true_user) + clock_m
        assert pr.rho[3] == pytest.approx(relayed, rel=1e-15)

    def test_noise_scale(self):
        scene = default_scene()
        draws = np.array(
            [synthesize_pseudoranges(scene, 5.0, np.random.default_rng(i)).rho for i in range(400)]
        )
        clean = synthesize_pseudoranges(scene, 0.0, np.random.default_rng(0)).rho
        spread = np.std(draws - clean, axis=0)
        np.testing.assert_allclose(spread, 5.0, rtol=0.15)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            synthesize_pseudoranges(default_scene(), -1.0, np.random.default_rng(0))

    def test_pseudorange_set_validation(self):
        with pytest.raises(ValueError):
            PseudorangeSet(rho=np.zeros(3), sigma=np.zeros(4))
        with pytest.raises(ValueError):
            PseudorangeSet(rho=np.array([1.0, 2.0, 3.0, np.inf]), sigma=np.zeros(4))
        with pytest.raises(ValueError):
            PseudorangeSet(rho=np.zeros(4), sigma=-1.0)
        pr = PseudorangeSet(rho=np.zeros(4), sigma=2.0)
        np.testing.assert_array_equal(pr.sigma, np.full(4, 2.0))


class TestDesignRow:
    def test_unit_direction_plus_clock_column(self):
        anchor = np.array([1e7, 2e6, -3e6])
        point = np.array([6378000.0, 100.0, -200.0])
        row = design_row(anchor, point)
        assert row.shape == (4,)
        assert np.linalg.norm(row[:3]) == pytest.approx(1.0, rel=1e-13)
        assert row[3] == 1.0

    def test_matches_finite_difference(self):
        anchor = np.array([2.1e7, -5e6, 1.2e7])
        point = np.array([6.3e6, 1e5, -2e5])
        row = design_row(anchor, point)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = 1.0
            num = (
                np.linalg.norm(point + e - anchor) - np.linalg.norm(point - e - anchor)
            ) / 2.0
            assert row[axis] == pytest.approx(num, abs=1e-6)

    def test_anchor_straight_above(self):
        row = design_row([0.0, 0.0, 2.6378e7], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(row, [0.0, 0.0, -1.0, 1.0], atol=0)

    def test_coincident_point_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            design_row([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


class TestSolver:
    def test_noiseless_cold_start_recovers_truth(self):
        scene = default_scene()
        fix = lsm_solve(noiseless_measurements(scene), scene)
        assert np.linalg.norm(fix.position - scene.true_user) < 1e-4
        assert abs(fix.clock_bias_s - scene.clock_bias) < 1e-12
        assert fix.iterations_used <= 10
        assert fix.final_cost < 1e-6

    def test_warm_start_converges_immediately(self):
        scene = default_scene()
        truth = np.append(scene.true_user, SPEED_OF_LIGHT * scene.clock_bias)
        fix = lsm_solve(noiseless_measurements(scene), scene, LsmControl(x0=truth))
        assert fix.iterations_used == 1
        assert fix.final_cost == 0.0

    def test_uniform_offset_moves_only_the_clock(self):
        # the clock column is all ones, so a common bias is absorbed exactly
        scene = default_scene()
        pr = noiseless_measurements(scene)
        base = lsm_solve(pr, scene)
        shifted = lsm_solve(PseudorangeSet(rho=pr.rho + 250.0, sigma=pr.sigma), scene)
        assert np.linalg.norm(shifted.position - base.position) < 1e-5
        assert shifted.state[3] - base.state[3] == pytest.approx(250.0, abs=1e-5)

    def test_translation_equivariance(self):
        scene = default_scene().translated([1000.0, -2000.0, 500.0])
        fix = lsm_solve(noiseless_measurements(scene), scene)
        assert np.linalg.norm(fix.position - scene.true_user) < 1e-3

    def test_iteration_cap_is_reported(self):
        scene = default_scene()
        pr = synthesize_pseudoranges(scene, 100.0, np.random.default_rng(11))
        fix = lsm_solve(pr, scene, LsmControl(iters=3, loss=1e-6))
        assert fix.iterations_used == 3
        assert math.isfinite(fix.final_cost)
        assert not fix.converged

    def test_noiseless_cold_start_converges(self):
        scene = default_scene()
        assert lsm_solve(noiseless_measurements(scene), scene).converged

    def test_start_on_an_anchor_is_degenerate(self):
        scene = default_scene()
        ctrl = LsmControl(x0=np.append(scene.ris_position, 0.0))
        with pytest.raises(DegenerateGeometryError, match="coincides with the anchor"):
            lsm_solve(noiseless_measurements(scene), scene, ctrl)

    def test_residual_cost_at_truth_is_noise_power(self):
        scene = default_scene()
        truth = np.append(scene.true_user, SPEED_OF_LIGHT * scene.clock_bias)
        sigma = 5.0
        rng = np.random.default_rng(2024)
        costs = []
        for _ in range(500):
            pr = synthesize_pseudoranges(scene, sigma, rng)
            b = pr.rho - predicted_pseudoranges(scene, truth)
            costs.append(float(b @ b))
        # E[cost] = 4 sigma^2
        se = np.std(costs, ddof=1) / math.sqrt(len(costs))
        assert np.mean(costs) == pytest.approx(4.0 * sigma**2, abs=4.0 * se)

    def test_coincident_satellites_are_degenerate(self):
        sat = np.array([2.6378e7, 0.0, 0.0])
        scene = NavScene(
            sat_positions=np.vstack([sat, sat, sat]),
            inac_sat_position=np.array([2.0e7, 1.7e7, 0.0]),
            ris_position=np.array([6378005.0, 8.0, 3.0]),
            true_user=np.array([6378000.0, 0.0, 0.0]),
            clock_bias=2.5e-4,
        )
        with pytest.raises(DegenerateGeometryError, match="rank deficient"):
            lsm_solve(noiseless_measurements(scene), scene)

    def test_lapack_failure_raises_linalg_error(self, monkeypatch):
        # gelsd's info > 0 (the SVD did not converge) is numpy's LinAlgError, as in lstsq
        dgelsd = navigation.lapack_lite.dgelsd

        def failing(*args):
            res = dgelsd(*args)
            return res if args[11] == -1 else {**res, "info": 1}  # args[11]: lwork, -1 queries

        monkeypatch.setattr(navigation.lapack_lite, "dgelsd", failing)
        scene = default_scene()
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            lsm_solve(noiseless_measurements(scene), scene)

    def test_control_validation(self):
        with pytest.raises(ValueError):
            LsmControl(iters=0)
        with pytest.raises(ValueError):
            LsmControl(loss=0.0)
        with pytest.raises(ValueError):
            LsmControl(x0=np.zeros(3))


class TestBitIdentity:
    """`lsm_solve` against the row-by-row loop: same bytes, not just close."""

    CASES = [
        pytest.param(lambda: default_scene(), LsmControl(), id="default"),
        pytest.param(lambda: default_scene().translated([1000.0, -2000.0, 500.0]), LsmControl(), id="translated"),
        pytest.param(lambda: default_scene(), LsmControl(iters=12), id="iters-12"),
    ]

    @pytest.mark.parametrize("make_scene, ctrl", CASES)
    def test_matches_the_row_by_row_loop(self, make_scene, ctrl):
        scene = make_scene()
        snr_db = np.linspace(-30.0, 10.0, 200)
        capped = early = 0
        for seed, snr in enumerate(snr_db):
            sigma = range_noise_from_snr(10.0 ** (snr / 10.0), 30e6)
            pr = synthesize_pseudoranges(scene, sigma, np.random.default_rng(seed))
            state, iterations, cost = _reference_lsm_solve(pr, scene, ctrl)
            fix = lsm_solve(pr, scene, ctrl)
            assert fix.state.tobytes() == state.tobytes()
            assert fix.iterations_used == iterations
            assert fix.final_cost == cost
            assert fix.converged == (cost < ctrl.loss)
            if fix.converged:
                early += iterations < ctrl.iters
            else:
                capped += 1
        assert capped > 0 and early > 0


_component = st.floats(-1.0, 1.0)


def _four(elements):
    return st.lists(elements, min_size=4, max_size=4)


class TestGelsdStep:
    """Each in-place gelsd step against `np.linalg.lstsq` on random geometry."""

    # no shrink phase: a broken step fails on most examples, and shrinking
    # twenty-one floats through two Gauss-Newton steps runs for minutes
    @settings(max_examples=200, phases=[Phase.explicit, Phase.generate])
    @given(
        directions=_four(st.tuples(_component, _component, _component).filter(
            lambda v: math.hypot(*v) > 0.1)),
        distances=_four(st.floats(1e2, 3e7)),
        residual=_four(_component.filter(lambda v: abs(v) > 0.1)),
        log10_scale=st.floats(-3.0, 6.0),
    )
    def test_two_steps_match_lstsq_bit_for_bit(self, directions, distances, residual, log10_scale):
        # anchors placed so the design rows at x0 are the drawn unit directions
        # (and the ones column): a full-rank 4x4 U, and a residual of the drawn scale
        x0 = np.array([6378000.0, 0.0, 0.0, 70000.0])
        units = np.array(directions) / np.linalg.norm(directions, axis=1)[:, None]
        u = np.column_stack([units, np.ones(4)])
        assume(np.linalg.cond(u) < 1e8)
        anchors = x0[:3] - np.array(distances)[:, None] * units
        scene = NavScene(sat_positions=anchors[:3], inac_sat_position=anchors[3] + 1e6,
                         ris_position=anchors[3], true_user=x0[:3], clock_bias=0.0)
        rho = predicted_pseudoranges(scene, x0) + 10.0 ** log10_scale * np.array(residual)
        pr = PseudorangeSet(rho=rho, sigma=np.zeros(4))
        # the second step runs on the design buffer gelsd overwrote in the first
        ctrl = LsmControl(iters=2, loss=1e-300, x0=x0)
        state, iterations, cost = _reference_lsm_solve(pr, scene, ctrl)
        fix = lsm_solve(pr, scene, ctrl)
        assert fix.state.tobytes() == state.tobytes()
        assert (fix.iterations_used, fix.final_cost) == (iterations, cost)


class TestDop:
    def test_default_scene_values(self):
        gdop, pdop = dilution_of_precision(default_scene())
        assert gdop == pytest.approx(6.6671, abs=2e-3)
        assert pdop == pytest.approx(5.2783, abs=2e-3)
        assert gdop > pdop

    def test_predicts_error_amplification(self):
        # RMS state error over repeated solves ~ sigma * GDOP
        scene = default_scene()
        truth = np.append(scene.true_user, SPEED_OF_LIGHT * scene.clock_bias)
        sigma = 0.01
        rng = np.random.default_rng(424242)
        ctrl = LsmControl(iters=20, loss=1e-12)
        state_sq = pos_sq = 0.0
        reps = 1000
        for _ in range(reps):
            pr = synthesize_pseudoranges(scene, sigma, rng)
            fix = lsm_solve(pr, scene, ctrl)
            err = fix.state - truth
            state_sq += float(err @ err)
            pos_sq += float(err[:3] @ err[:3])
        gdop, pdop = dilution_of_precision(scene)
        assert math.sqrt(state_sq / reps) / (sigma * gdop) == pytest.approx(1.0, abs=0.1)
        assert math.sqrt(pos_sq / reps) / (sigma * pdop) == pytest.approx(1.0, abs=0.1)


class TestRangeNoise:
    BW = 30e6
    FLOOR = SPEED_OF_LIGHT / (2.0 * 30e6)

    def test_floor_binds_at_high_snr(self):
        assert range_noise_from_snr(10.0, self.BW) == self.FLOOR
        assert range_noise_from_snr(0.5, self.BW) == self.FLOOR  # exact boundary

    def test_inverse_sqrt_law_below_the_floor(self):
        assert range_noise_from_snr(0.125, self.BW) == pytest.approx(2.0 * self.FLOOR, rel=1e-13)
        s1 = range_noise_from_snr(0.02, self.BW)
        s2 = range_noise_from_snr(0.08, self.BW)
        assert s1 / s2 == pytest.approx(2.0, rel=1e-12)

    def test_custom_floor(self):
        assert range_noise_from_snr(1e6, self.BW, floor=0.01) == 0.01
        assert range_noise_from_snr(1e6, self.BW) == self.FLOOR

    def test_absent_link(self):
        assert range_noise_from_snr(0.0, self.BW) == math.inf

    def test_monotone_in_snr(self):
        sigmas = [range_noise_from_snr(s, self.BW) for s in np.geomspace(1e-4, 1e2, 25)]
        assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            range_noise_from_snr(-1.0, self.BW)
        with pytest.raises(ValueError):
            range_noise_from_snr(1.0, 0.0)
