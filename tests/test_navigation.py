"""Pseudorange synthesis, Gauss-Newton positioning, DOP, ranging noise."""

import math

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import scenegen
from inaclink import (
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
from inaclink.navigation import SPEED_OF_LIGHT, predicted_pseudoranges


def noiseless_measurements(scene):
    truth = np.append(scene.true_user, SPEED_OF_LIGHT * scene.clock_bias)
    return PseudorangeSet(rho=predicted_pseudoranges(scene, truth))


def shifted(scene, t):
    """The whole scene moved by the vector t."""
    return NavScene(sat_positions=scene.sat_positions + t, inac_sat_position=scene.inac_sat_position + t,
                    ris_position=scene.ris_position + t, true_user=scene.true_user + t,
                    clock_bias=scene.clock_bias)


def design_row(anchor, point):
    """Gradient row of one predicted pseudorange at the linearization point.

    [(x0 - xa)/r, (y0 - ya)/r, (z0 - za)/r, 1]: the unit vector from the anchor
    to the point plus the clock column, with r as a 1-D `np.linalg.norm` takes
    it.  For the RIS-relayed measurement the anchor is the RIS itself (its
    satellite leg is constant and drops out of the gradient).
    """
    diff = np.asarray(point, dtype=float) - np.asarray(anchor, dtype=float)
    r = float(np.linalg.norm(diff))
    if r == 0.0:
        raise DegenerateGeometryError("linearization point coincides with the anchor")
    return np.append(diff / r, 1.0)


def _reference_dop(scene):
    """(GDOP, PDOP) from the design rows stacked one by one."""
    u = np.vstack([design_row(anchor, scene.true_user) for anchor in scene.anchors()])
    q = np.linalg.inv(u.T @ u)
    return math.sqrt(np.trace(q)), math.sqrt(np.trace(q[:3, :3]))


def _reference_lsm_solve(pr, scene, iters, loss):
    """The row-by-row Gauss-Newton loop that `lsm_solve` must match bit for bit.

    Starts at the origin and stops on a cost below `loss` or after `iters`
    steps, all set here, so it shares no setting with `lsm_solve`.
    Returns (state, iterations_used, final_cost).
    """
    x = np.zeros(4)
    anchors = scene.anchors()
    iterations = iters
    cost = math.inf
    for k in range(1, iters + 1):
        b = pr.rho - predicted_pseudoranges(scene, x)
        cost = float(b @ b)
        if cost < loss:
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


class TestInputsAreCopied:
    """Each value object keeps a read-only copy of its input arrays: a write
    through the caller's array cannot get round the checks made at
    construction, nor leave what the scene keeps stale."""

    SCENE_ARRAYS = ("sat_positions", "inac_sat_position", "ris_position", "true_user")

    def test_a_write_to_the_callers_arrays_leaves_the_scene_as_built(self):
        built = default_scene()
        inputs = {name: np.array(getattr(built, name)) for name in self.SCENE_ARRAYS}
        scene = NavScene(**inputs, clock_bias=built.clock_bias)

        def snapshot():
            pr = synthesize_pseudoranges(scene, 2.0, np.random.default_rng(0))
            return ([getattr(scene, name).tobytes() for name in self.SCENE_ARRAYS],
                    scene.anchors().tobytes(), scene.r_tau_r, pr.rho.tobytes())

        before = snapshot()
        for arr in inputs.values():
            arr[...] = 1e300  # would overflow every range, had the scene kept these arrays
        assert snapshot() == before
        truth = np.append(scene.true_user, SPEED_OF_LIGHT * scene.clock_bias)
        assert np.isfinite(predicted_pseudoranges(scene, truth)).all()

    def test_a_write_to_the_callers_rho_changes_nothing(self):
        rho = synthesize_pseudoranges(default_scene(), 2.0, np.random.default_rng(0)).rho.copy()
        pr = PseudorangeSet(rho=rho)
        before = pr.rho.tobytes()
        rho[0] = math.nan  # would fail the finite check, had the set kept this array
        assert pr.rho.tobytes() == before

    @pytest.mark.parametrize("name", SCENE_ARRAYS)
    def test_the_scene_arrays_are_read_only(self, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(default_scene(), name)[0] = 1e300

    def test_anchors_and_rho_are_read_only(self):
        scene = default_scene()
        with pytest.raises(ValueError, match="read-only"):
            scene.anchors()[0, 0] = 1e300
        pr = synthesize_pseudoranges(scene, 2.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="read-only"):
            pr.rho[0] = math.nan


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

    def test_model_at_the_truth_plus_four_draws(self):
        # the noise is sigma times the generator's next four normals, added to the model's bytes
        scene = default_scene()
        truth = np.append(scene.true_user, SPEED_OF_LIGHT * scene.clock_bias)
        for seed in range(20):
            pr = synthesize_pseudoranges(scene, 3.5, np.random.default_rng(seed))
            want = predicted_pseudoranges(scene, truth) + 3.5 * np.random.default_rng(seed).standard_normal(4)
            assert pr.rho.tobytes() == want.tobytes()

    def test_negative_sigma_rejected(self):
        for sigma in (-1.0, math.nan):
            with pytest.raises(ValueError, match="noise_sigma must be >= 0"):
                synthesize_pseudoranges(default_scene(), sigma, np.random.default_rng(0))

    def test_pseudorange_set_validation(self):
        with pytest.raises(ValueError):
            PseudorangeSet(rho=np.zeros(3))
        with pytest.raises(ValueError):
            PseudorangeSet(rho=np.array([1.0, 2.0, 3.0, np.inf]))


class TestDesignRow:
    """The oracle's rows are the range model's gradient, so `lsm_solve`, which
    matches the oracle bit for bit, steps along the true Jacobian."""

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


class TestSolver:
    def test_noiseless_cold_start_recovers_truth(self):
        scene = default_scene()
        fix = lsm_solve(noiseless_measurements(scene), scene)
        assert np.linalg.norm(fix.position - scene.true_user) < 1e-4
        assert abs(fix.clock_bias_s - scene.clock_bias) < 1e-12
        assert fix.iterations_used <= 10
        assert fix.final_cost < 1e-6

    def test_warm_start_converges_immediately(self):
        # the solver starts at the origin: a scene whose truth is there starts on it
        base = default_scene()
        moved = shifted(base, -base.true_user)
        scene = NavScene(sat_positions=moved.sat_positions, inac_sat_position=moved.inac_sat_position,
                         ris_position=moved.ris_position, true_user=moved.true_user, clock_bias=0.0)
        assert not scene.true_user.any()
        fix = lsm_solve(noiseless_measurements(scene), scene)
        assert fix.iterations_used == 1
        assert fix.final_cost == 0.0

    def test_uniform_offset_moves_only_the_clock(self):
        # the clock column is all ones, so a common bias is absorbed exactly
        scene = default_scene()
        pr = noiseless_measurements(scene)
        base = lsm_solve(pr, scene)
        offset = lsm_solve(PseudorangeSet(rho=pr.rho + 250.0), scene)
        assert np.linalg.norm(offset.position - base.position) < 1e-5
        assert offset.state[3] - base.state[3] == pytest.approx(250.0, abs=1e-5)

    def test_translation_equivariance(self):
        scene = shifted(default_scene(), [1000.0, -2000.0, 500.0])
        fix = lsm_solve(noiseless_measurements(scene), scene)
        assert np.linalg.norm(fix.position - scene.true_user) < 1e-3

    def test_iteration_cap_is_reported(self):
        scene = default_scene()
        pr = synthesize_pseudoranges(scene, 100.0, np.random.default_rng(11))
        fix = lsm_solve(pr, scene, 3)
        assert fix.iterations_used == 3
        assert math.isfinite(fix.final_cost)
        assert not fix.converged

    def test_noiseless_cold_start_converges(self):
        scene = default_scene()
        assert lsm_solve(noiseless_measurements(scene), scene).converged

    def test_start_on_an_anchor_is_degenerate(self):
        # the scene moved so that its RIS sits on the solver's start, the origin
        scene = shifted(default_scene(), -default_scene().ris_position)
        assert not scene.ris_position.any()
        with pytest.raises(DegenerateGeometryError, match="coincides with the anchor"):
            lsm_solve(noiseless_measurements(scene), scene)

    def test_a_range_that_overflows_keeps_the_clock_column(self):
        # every anchor 1e200 m from the start at the origin: each |d| overflows
        # to inf; U's clock entries stay 1 (not inf / inf), so gelsd sees the
        # rank-1 U the row-by-row loop builds
        scene = shifted(default_scene(), [-1e200, 0.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateGeometryError, match="rank deficient"):
                lsm_solve(noiseless_measurements(scene), scene)

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
        # an iteration cap that the loop cannot use fails before it, not in range();
        # a bool is an int to Python, but True is no count of steps
        scene = default_scene()
        pr = noiseless_measurements(scene)
        for iters in (0, -1, np.int64(0), 1.5, 2.0, "3", None, True, False, np.bool_(True)):
            with pytest.raises(ValueError, match="iters must be an integer >= 1"):
                lsm_solve(pr, scene, iters)
        assert lsm_solve(pr, scene, np.int64(3)).iterations_used == 3


class TestBitIdentity:
    """`lsm_solve` against the row-by-row loop: same bytes, not just close."""

    #: lsm_solve's stop, written out: the oracle takes no setting from the solver
    LOSS = 1e-6

    CASES = [
        pytest.param(lambda: default_scene(), 20, id="default"),
        pytest.param(lambda: shifted(default_scene(), [1000.0, -2000.0, 500.0]), 20, id="translated"),
        pytest.param(lambda: default_scene(), 12, id="iters-12"),
        # one step, then a pass that only scores it: no fix can stop early
        pytest.param(lambda: default_scene(), 1, id="iters-1"),
    ]

    @pytest.mark.parametrize("make_scene, iters", CASES)
    def test_matches_the_row_by_row_loop(self, make_scene, iters):
        scene = make_scene()
        snr_db = np.linspace(-30.0, 10.0, 200)
        capped = early = 0
        for seed, snr in enumerate(snr_db):
            sigma = range_noise_from_snr(10.0 ** (snr / 10.0), 30e6)
            pr = synthesize_pseudoranges(scene, sigma, np.random.default_rng(seed))
            state, iterations, cost = _reference_lsm_solve(pr, scene, iters, self.LOSS)
            fix = lsm_solve(pr, scene, iters)
            assert fix.state.tobytes() == state.tobytes()
            assert fix.iterations_used == iterations
            assert fix.final_cost == cost
            assert fix.converged == (cost < self.LOSS)
            if fix.converged:
                early += iterations < iters
            else:
                capped += 1
        assert capped > 0
        assert early > 0 or iters == 1


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
        # anchors placed so the design rows at the solver's start, the origin,
        # are the drawn unit directions (and the ones column): a full-rank 4x4
        # U, and a residual of the drawn scale
        units = np.array(directions) / np.linalg.norm(directions, axis=1)[:, None]
        u = np.column_stack([units, np.ones(4)])
        assume(np.linalg.cond(u) < 1e8)
        anchors = -np.array(distances)[:, None] * units
        scene = NavScene(sat_positions=anchors[:3], inac_sat_position=anchors[3] + 1e6,
                         ris_position=anchors[3], true_user=np.zeros(3), clock_bias=0.0)
        rho = predicted_pseudoranges(scene, np.zeros(4)) + 10.0 ** log10_scale * np.array(residual)
        pr = PseudorangeSet(rho=rho)
        # the second step runs on the design buffer gelsd overwrote in the first;
        # a stop that no cost gets below makes both steps run
        state, iterations, cost = _reference_lsm_solve(pr, scene, 2, 1e-300)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(navigation, "_LOSS", 1e-300)
            fix = lsm_solve(pr, scene, 2)
        assert fix.state.tobytes() == state.tobytes()
        assert (fix.iterations_used, fix.final_cost) == (iterations, cost)


class TestFloatSumOrder:
    """`lsm_solve` takes each direct range on Python floats in the order
    numpy's norm(axis=1) sums its squares, which is add.reduce's over a
    length-3 row: (a0^2 + a1^2) + a2^2.  A numpy that sums in another order
    fails here, before any fix moves by a bit."""

    def test_add_reduce_sums_each_row_left_to_right(self):
        rng = np.random.default_rng(20)
        reordered = 0
        for _ in range(2000):
            block = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-3.0, 8.0, (3, 1))
            sums = np.add.reduce(block * block, axis=1).tolist()
            norms = np.linalg.norm(block, axis=1).tolist()
            for (a0, a1, a2), total, norm in zip(block.tolist(), sums, norms):
                assert total == (a0 * a0 + a1 * a1) + a2 * a2
                assert math.sqrt((a0 * a0 + a1 * a1) + a2 * a2) == norm
                reordered += total != a0 * a0 + (a1 * a1 + a2 * a2)
        assert reordered > 0  # the rows tell the two orders apart

    def test_the_solver_sums_each_direct_range_in_that_order(self, monkeypatch):
        # pseudoranges that are the model at the start, the origin, as
        # predicted_pseudoranges takes it (norm(axis=1)), and a stop that accepts
        # the first residual: its cost is 0 only if the solver's own sum runs in
        # the same order
        monkeypatch.setattr(navigation, "_LOSS", math.inf)
        rng = np.random.default_rng(20)
        start = np.zeros(4)
        for _ in range(500):
            sats = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-3.0, 8.0, (3, 1))
            scene = NavScene(sat_positions=sats, inac_sat_position=sats[0] + 1.0, ris_position=sats[1],
                             true_user=np.zeros(3), clock_bias=0.0)
            pr = PseudorangeSet(rho=predicted_pseudoranges(scene, start))
            fix = lsm_solve(pr, scene, 1)
            assert fix.final_cost == 0.0


def cone_scene():
    """Every anchor 45 degrees off the user's +x axis: the x column of U is
    -1/sqrt(2) times the clock column, so U^T U is singular."""
    user = np.array([6378000.0, 0.0, 0.0])
    s = math.sqrt(0.5)
    far = [user + 2e7 * np.array(v) for v in ((s, s, 0.0), (s, -s, 0.0), (s, 0.0, s), (s, 0.0, -s))]
    return NavScene(sat_positions=np.vstack(far[:3]), inac_sat_position=far[3],
                    ris_position=user + 10.0 * np.array([s, 0.0, -s]), true_user=user, clock_bias=2.5e-4)


class TestDop:
    def test_default_scene_values(self):
        gdop, pdop = dilution_of_precision(default_scene())
        assert gdop == pytest.approx(6.6671, abs=2e-3)
        assert pdop == pytest.approx(5.2783, abs=2e-3)
        assert gdop > pdop

    def test_matches_the_row_by_row_oracle(self):
        # structured scenes, and anchors anywhere around a random user: the
        # second set also tells sqrt(d . d) from norm(axis=1)'s sum apart
        rng = np.random.default_rng(16)
        scenes = [default_scene(), *(scenegen.structured_scene(rng) for _ in range(200))]
        for _ in range(300):
            user = rng.standard_normal(3) * 10.0 ** rng.uniform(0.0, 7.0)
            anchors = user + rng.standard_normal((4, 3)) * 10.0 ** rng.uniform(1.0, 7.5, (4, 1))
            scenes.append(NavScene(sat_positions=anchors[:3], inac_sat_position=anchors[3] + 1e6,
                                   ris_position=anchors[3], true_user=user, clock_bias=0.0))
        other_norm = 0
        for scene in scenes:
            dop = dilution_of_precision(scene)
            assert dop == _reference_dop(scene)
            diff = scene.true_user - scene.anchors()
            u = np.column_stack([diff / np.linalg.norm(diff, axis=1)[:, None], np.ones(4)])
            q = np.linalg.inv(u.T @ u)
            other_norm += dop != (math.sqrt(np.trace(q)), math.sqrt(np.trace(q[:3, :3])))
        assert other_norm > 0

    def test_user_on_an_anchor_is_degenerate(self):
        scene = default_scene()
        on_ris = NavScene(sat_positions=scene.sat_positions, inac_sat_position=scene.inac_sat_position,
                          ris_position=scene.true_user, true_user=scene.true_user, clock_bias=0.0)
        with pytest.raises(DegenerateGeometryError, match="user coincides with an anchor"):
            dilution_of_precision(on_ris)

    def test_singular_geometry_is_degenerate(self):
        with pytest.raises(DegenerateGeometryError, match="singular"):
            dilution_of_precision(cone_scene())

    @pytest.mark.parametrize("diagonal", [[-1.0] * 4, [0.0] * 4, [math.nan] * 4, [math.inf] * 4,
                                          [-3.0, 1.0, 1.0, 5.0]])  # the last: only PDOP's trace
    def test_a_trace_with_no_square_root_is_degenerate(self, monkeypatch, diagonal):
        # an inverse of a near-singular U^T U can come back with any diagonal
        monkeypatch.setattr(navigation.np.linalg, "inv", lambda m: np.diag(diagonal))
        with pytest.raises(DegenerateGeometryError, match="near singular"):
            dilution_of_precision(default_scene())

    def test_predicts_error_amplification(self, monkeypatch):
        # RMS state error over repeated solves ~ sigma * GDOP, each solved to a
        # stop far below sigma^2
        monkeypatch.setattr(navigation, "_LOSS", 1e-12)
        scene = default_scene()
        truth = np.append(scene.true_user, SPEED_OF_LIGHT * scene.clock_bias)
        sigma = 0.01
        rng = np.random.default_rng(424242)
        state_sq = pos_sq = 0.0
        reps = 1000
        for _ in range(reps):
            pr = synthesize_pseudoranges(scene, sigma, rng)
            fix = lsm_solve(pr, scene)
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
        with pytest.raises(ValueError):
            range_noise_from_snr(math.nan, self.BW)
        with pytest.raises(ValueError):
            range_noise_from_snr(1.0, math.nan)
        with pytest.raises(ValueError):
            range_noise_from_snr(1e12, self.BW, floor=math.nan)
        with pytest.raises(ValueError):
            range_noise_from_snr(1e12, self.BW, floor=-1.0)
