"""Monte Carlo oracle: determinism contract, estimates, distribution distance."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import inaclink
from inaclink import (
    McConfig,
    RicianParams,
    RisArray,
    ScenarioConfig,
    cascaded_moments,
    ks_distance,
    mc_capacity,
    mc_outage,
    outage_closed_form,
    sample_cascaded_gains,
)
from inaclink import montecarlo
from inaclink.errors import InfeasibleError
from inaclink.montecarlo import McEstimate, outage_events, sample_cascaded_gains_by_array, wilson_half_width

RIS64 = RisArray(num_elements=64, amplitude=1.0)
RICIAN = RicianParams(k_r=1.0, k_g=0.0)


def _v1_rician_amplitudes(z1, z2, k):
    """Sampler v1's transform, kept verbatim as an oracle for v2."""
    s = math.sqrt(k / (k + 1.0))
    sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    return np.hypot(s + sigma * z1, sigma * z2)


def _v1_gains(ris, rp, mc):
    """Sampler v1's gains over the same normals, in one serial block."""
    L = ris.num_elements
    u = montecarlo._uniform_block(mc.master_seed, 0, mc.trials, 4 * L)
    z = ndtri(u)
    amp_h = _v1_rician_amplitudes(z[:, :L], z[:, L : 2 * L], rp.k_r)
    amp_g = _v1_rician_amplitudes(z[:, 2 * L : 3 * L], z[:, 3 * L :], rp.k_g)
    total = ris.amplitude * np.sum(amp_h * amp_g, axis=1)
    return total * total


class TestSamplerVersion:
    def test_version_is_two_and_exported(self):
        assert montecarlo.SAMPLER_VERSION == 2
        assert inaclink.SAMPLER_VERSION == 2

    @pytest.mark.parametrize("L", [1, 32, 128])
    @pytest.mark.parametrize("k_r, k_g", [(0.0, 0.0), (1.0, 0.0), (10.0, 1.0)])
    def test_v2_gains_lie_within_rounding_of_v1(self, L, k_r, k_g):
        # v2 squares each link and takes one square root per element where v1
        # took two hypot calls; the worst gap measured is 1.1e-15 relative
        ris, rp = RisArray(L, 1.0), RicianParams(k_r=k_r, k_g=k_g)
        mc = McConfig(trials=2_000, master_seed=12345)
        v1 = _v1_gains(ris, rp, mc)
        v2 = sample_cascaded_gains(ris, rp, mc)
        assert np.max(np.abs(v2 - v1) / v1) <= 4e-15


class TestDeterminism:
    def test_bit_identical_across_calls(self):
        mc = McConfig(trials=500, master_seed=99)
        a = sample_cascaded_gains(RIS64, RICIAN, mc)
        b = sample_cascaded_gains(RIS64, RICIAN, mc)
        assert np.array_equal(a, b)

    def test_batch_size_does_not_change_the_stream(self, monkeypatch):
        # the first run is one block on a pool of one; blocks of 7 trials at
        # L = 64 make 43 blocks, sampled concurrently when more than one CPU
        # is usable
        mc = McConfig(trials=300, master_seed=7)
        workers = montecarlo._WORKERS
        monkeypatch.setattr(montecarlo, "_WORKERS", 1)
        b = sample_cascaded_gains(RIS64, RICIAN, mc)
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        monkeypatch.setattr(montecarlo, "_BLOCK_DOUBLES", 7 * 4 * 64)
        a = sample_cascaded_gains(RIS64, RICIAN, mc)
        assert np.array_equal(a, b)

    def test_more_workers_than_cores_keep_the_stream(self, monkeypatch):
        # blocks write disjoint slices of one array; with 8 workers and a
        # short switch interval, a lost or misplaced block would show against
        # the one block of a pool of one
        mc = McConfig(trials=400, master_seed=11)
        monkeypatch.setattr(montecarlo, "_WORKERS", 1)
        reference = sample_cascaded_gains(RIS64, RICIAN, mc)
        monkeypatch.setattr(montecarlo, "_WORKERS", 8)
        # 3-trial blocks at L = 64
        monkeypatch.setattr(montecarlo, "_BLOCK_DOUBLES", 3 * 4 * 64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = sample_cascaded_gains(RIS64, RICIAN, mc)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(threaded, reference)

    def test_one_block_call_is_split_across_cpus(self, monkeypatch):
        # 500 trials at L = 128 fit in one block of 2^18 uniforms; with two
        # usable CPUs the call is still split in two, bit-identical to a pool of one
        ris, mc = RisArray(128, 1.0), McConfig(trials=500, master_seed=12345)
        monkeypatch.setattr(montecarlo, "_WORKERS", 1)
        reference = sample_cascaded_gains(ris, RICIAN, mc)
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo, "_WORKERS", 2)
        split = sample_cascaded_gains(ris, RICIAN, mc)
        assert np.array_equal(split, reference)
        # a pool never outnumbers the blocks: one trial, one thread
        sample_cascaded_gains(ris, RICIAN, McConfig(trials=1))
        # and the blocks of every divisor group of a grid share one pool
        sample_cascaded_gains_by_array([RisArray(L) for L in (5, 48, 64)], RICIAN, mc)
        assert pools == [2, 1, 2]

    def test_each_block_holds_at_most_2mb_of_uniforms_and_each_cpu_gets_one(self, monkeypatch, doubles_read):
        monkeypatch.setattr(montecarlo, "_WORKERS", 2)
        for L, trials, sizes in [
            # 2^18 uniforms are 256 trials at L = 256
            (256, 5_000, [256] * 19 + [136]),
            # a call that fits in one block still gets a block per CPU
            (256, 301, [151, 150]),
            # or one per trial, where there are fewer trials than CPUs
            (256, 1, [1]),
            # a trial of more than 2^18 uniforms is a block alone
            (2**17, 3, [1, 1, 1]),
        ]:
            doubles_read.clear()
            sample_cascaded_gains(RisArray(L, 1.0), RICIAN, McConfig(trials=trials))
            assert sorted(doubles_read) == sorted(4 * L * n for n in sizes), (L, trials)

    def test_trial_i_is_a_fixed_substream(self):
        # extending the run must not disturb earlier trials
        short = sample_cascaded_gains(RIS64, RICIAN, McConfig(trials=50, master_seed=3))
        long = sample_cascaded_gains(RIS64, RICIAN, McConfig(trials=200, master_seed=3))
        assert np.array_equal(short, long[:50])

    def test_seed_changes_the_stream(self):
        a = sample_cascaded_gains(RIS64, RICIAN, McConfig(trials=100, master_seed=1))
        b = sample_cascaded_gains(RIS64, RICIAN, McConfig(trials=100, master_seed=2))
        assert not np.array_equal(a, b)

    def test_a_failed_block_stops_every_worker(self, monkeypatch):
        # each block at L = 1e17 fails to allocate its uniforms; every worker
        # stops at its first failure, not after the 20 000 one-trial blocks
        calls = []
        block = montecarlo._uniform_block

        def counted(*args):
            calls.append(args)
            return block(*args)

        monkeypatch.setattr(montecarlo, "_uniform_block", counted)
        monkeypatch.setattr(montecarlo, "_WORKERS", 4)
        with pytest.raises(InfeasibleError, match="one trial at L = 100000000000000000 needs"):
            sample_cascaded_gains(RisArray(10**17), RICIAN, McConfig(trials=20_000))
        assert 1 <= len(calls) <= 4

    def test_many_workers_take_each_block_once(self, monkeypatch, doubles_read):
        # 16 workers on one-trial blocks with a 1 us switch interval: a block
        # taken twice or skipped would change the gains or the blocks read
        mc = McConfig(trials=2_000)
        monkeypatch.setattr(montecarlo, "_WORKERS", 1)
        reference = sample_cascaded_gains(RisArray(8), RICIAN, mc)
        doubles_read.clear()
        monkeypatch.setattr(montecarlo, "_WORKERS", 16)
        monkeypatch.setattr(montecarlo, "_BLOCK_DOUBLES", 32)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            gains = sample_cascaded_gains(RisArray(8), RICIAN, mc)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(gains, reference)
        assert doubles_read == [32] * 2_000

    def test_a_failed_call_keeps_no_record_per_block(self, monkeypatch):
        # at L = 2^16 a block is one trial: 200 000 blocks, each cut only
        # when a worker takes it, so the peak is the result and little more
        def failing(*args):
            raise MemoryError

        monkeypatch.setattr(montecarlo, "_uniform_block", failing)
        trials = 200_000
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleError, match="one trial at L = 65536 needs"):
                sample_cascaded_gains(RisArray(2**16), RICIAN, McConfig(trials=trials))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * trials <= 2**20

    def test_an_interrupt_stops_every_worker(self):
        # 100 blocks of 64 trials at L = 1024 on 2 workers.  The first block
        # read sends SIGINT to the process; each read waits 20 ms, so the
        # interrupt lands while both workers hold a block.  The blocks read
        # are counted at interpreter exit, after every worker has stopped.
        script = textwrap.dedent("""
            import atexit, itertools, os, signal, time
            from inaclink import McConfig, RicianParams, RisArray, montecarlo

            reads, block = itertools.count(), montecarlo._uniform_block

            def interrupting(*args):
                if next(reads) == 0:
                    os.kill(os.getpid(), signal.SIGINT)
                time.sleep(0.02)
                return block(*args)

            atexit.register(lambda: print(next(reads), flush=True))
            montecarlo._uniform_block, montecarlo._WORKERS = interrupting, 2
            montecarlo.sample_cascaded_gains(RisArray(1024), RicianParams(1.0, 0.0), McConfig(trials=6400))
        """)
        src = str(Path(inaclink.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": path})
        assert "KeyboardInterrupt" in res.stderr, res.stderr
        assert 1 <= int(res.stdout) <= 2

    @pytest.mark.parametrize("trials", [10**17, 2**63, 10**30])
    def test_a_trial_count_no_host_can_hold_fails_before_any_block(self, doubles_read, trials):
        # 8e17 bytes are past any address space; numpy sizes no array of 2^63 items
        with pytest.raises(InfeasibleError, match=f"^{trials} trials need one double each"):
            sample_cascaded_gains(RIS64, RICIAN, McConfig(trials=trials))
        assert doubles_read == []

    def test_ks_distance_reads_each_uniform_once(self, doubles_read):
        ks_distance(RisArray(32, 1.0), RICIAN, McConfig(trials=10_000))
        assert sum(doubles_read) == 4 * 32 * 10_000

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0)
        with pytest.raises(ValueError):
            McConfig(master_seed=2**64)
        # a float seed of 1.5 keyed seed 1's stream; a float or bool count failed in numpy
        for bad in (1.5, 2.5, True, "3"):
            with pytest.raises(ValueError, match="master_seed must be an integer"):
                McConfig(master_seed=bad)
            with pytest.raises(ValueError, match="trials must be an integer"):
                McConfig(trials=bad)
        McConfig(trials=np.int64(3), master_seed=np.uint64(2**64 - 1))
        a = sample_cascaded_gains(RIS64, RICIAN, McConfig(trials=20, master_seed=np.uint64(7)))
        assert np.array_equal(a, sample_cascaded_gains(RIS64, RICIAN, McConfig(trials=20, master_seed=7)))


#: element counts of which several divide others (48 = 2 * 24 = 3 * 16 ...)
#: and several divide none of the larger ones (5, 7, 9, 96 against 48 ...)
_ELEMENTS = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24, 32, 48, 96])
_AMPLITUDES = st.sampled_from([1.0, 0.5, 0.3])


class TestByArray:
    """One pass over several arrays equals one sample_cascaded_gains call per array."""

    @settings(max_examples=60)
    @given(
        arrays=st.lists(st.builds(RisArray, _ELEMENTS, _AMPLITUDES), min_size=1, max_size=6),
        trials=st.one_of(st.just(1), st.integers(2, 1_500)),
        seed=st.integers(0, 2**32),
        split=st.sampled_from([None, (1, 1), (3, 1), (3, 4 * 32 * 5), (8, 10)]),
    )
    # fewer trials than workers: one block per trial
    @example(arrays=[RisArray(96), RisArray(48), RisArray(5)], trials=3, seed=1, split=(8, 4 * 5 * 12))
    # duplicates, and two arrays that differ only in amplitude
    @example(arrays=[RisArray(16), RisArray(16), RisArray(16, 0.5), RisArray(4)], trials=1, seed=0, split=None)
    def test_gains_equal_separate_calls(self, arrays, trials, seed, split):
        mc = McConfig(trials=trials, master_seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            # the reference: one block per call on a pool of one
            mp.setattr(montecarlo, "_WORKERS", 1)
            separate = {ris: sample_cascaded_gains(ris, RICIAN, mc) for ris in arrays}
        with pytest.MonkeyPatch.context() as mp:
            if split is not None:
                # more workers than cores, blocks of a few trials (or of one)
                workers, block_doubles = split
                mp.setattr(montecarlo, "_WORKERS", workers)
                mp.setattr(montecarlo, "_BLOCK_DOUBLES", block_doubles)
            together = sample_cascaded_gains_by_array(arrays, RICIAN, mc)
        assert together.keys() == separate.keys()
        for ris, gains in separate.items():
            assert np.array_equal(together[ris], gains), ris

    def test_a_dividing_grid_reads_the_largest_draw_alone(self, doubles_read):
        grid = [RisArray(L) for L in (4, 8, 16, 32, 64)]
        sample_cascaded_gains_by_array(grid, RICIAN, McConfig(trials=300))
        assert sum(doubles_read) == 4 * 64 * 300

    def test_a_grid_that_does_not_divide_draws_one_stream_per_group(self, doubles_read):
        # 64 takes 32 and 16; 48 takes 24; 5 stands alone
        grid = [RisArray(L) for L in (5, 16, 24, 32, 48, 64)]
        sample_cascaded_gains_by_array(grid, RICIAN, McConfig(trials=300))
        assert sum(doubles_read) == 4 * (64 + 48 + 5) * 300

    def test_no_arrays_draw_nothing(self, doubles_read):
        assert sample_cascaded_gains_by_array([], RICIAN, McConfig(trials=10)) == {}
        assert doubles_read == []

    @pytest.mark.parametrize("elements, trials", [
        ((128,), 100_000),
        ((16, 64, 256, 1024, 4096, 16384), 2_000),
    ], ids=["L128", "cap-grid"])
    def test_blocks_in_flight_bound_the_memory_peak(self, elements, trials):
        # at most _WORKERS blocks are in flight, each holding its uniforms
        # (the normals overwrite them) and its transform's temporaries
        bound = 4 * montecarlo._WORKERS * 8 * montecarlo._BLOCK_DOUBLES
        tracemalloc.start()
        try:
            gains = sample_cascaded_gains_by_array([RisArray(L) for L in elements], RICIAN, McConfig(trials=trials))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(g.nbytes for g in gains.values()) <= bound


class TestSampledMoments:
    def test_single_element_amplitude_mean(self):
        # L = 1, Rayleigh-Rayleigh: E[|h||g|] = pi/4
        mc = McConfig(trials=100_000, master_seed=12345)
        amps = np.sqrt(sample_cascaded_gains(RisArray(1, 1.0), RicianParams(0, 0), mc))
        se = np.std(amps, ddof=1) / math.sqrt(amps.size)
        assert np.mean(amps) == pytest.approx(math.pi / 4.0, abs=4.0 * se)

    def test_mean_gain_matches_analytic_mean(self):
        # E[X] = m3^2 + v3 for the squared co-phased sum
        mc = McConfig(trials=20_000, master_seed=12345)
        gains = sample_cascaded_gains(RIS64, RICIAN, mc)
        cm = cascaded_moments(RIS64, RICIAN)
        se = np.std(gains, ddof=1) / math.sqrt(gains.size)
        assert np.mean(gains) == pytest.approx(cm.m3**2 + cm.v3, abs=4.0 * se)

    def test_mean_gain_matches_analytic_mean_below_unit_amplitude(self):
        # the sum scales by beta, so v3 by beta^2; a v3 scaled by beta alone
        # would sit 6.5 standard errors above this mean at beta = 0.5
        ris = RisArray(num_elements=64, amplitude=0.5)
        mc = McConfig(trials=20_000, master_seed=12345)
        gains = sample_cascaded_gains(ris, RICIAN, mc)
        cm = cascaded_moments(ris, RICIAN)
        se = np.std(gains, ddof=1) / math.sqrt(gains.size)
        assert np.mean(gains) == pytest.approx(cm.m3**2 + cm.v3, abs=4.0 * se)

    def test_amplitude_scaling_is_exact(self):
        mc = McConfig(trials=200, master_seed=5)
        full = sample_cascaded_gains(RisArray(16, 1.0), RICIAN, mc)
        half = sample_cascaded_gains(RisArray(16, 0.5), RICIAN, mc)
        assert np.array_equal(half, 0.25 * full)

    def test_gain_hardening_at_large_arrays(self):
        # relative spread collapses as L grows: mean/m3^2 -> 1
        mc = McConfig(trials=2_000, master_seed=12345)
        ris = RisArray(num_elements=10_000, amplitude=1.0)
        gains = sample_cascaded_gains(ris, RICIAN, mc)
        cm = cascaded_moments(ris, RICIAN)
        assert np.mean(gains) / cm.m3**2 == pytest.approx(1.0, abs=0.02)
        # delta method: std(S^2)/E[S^2] ~ 2 sqrt(v3)/m3 for S ~ N(m3, v3)
        spread = np.std(gains) / np.mean(gains)
        assert spread == pytest.approx(2.0 * math.sqrt(cm.v3) / cm.m3, rel=0.05)

    def test_gain_hardening_trend(self):
        # std/mean falls at every step of L and tracks 2 sqrt(v3)/m3 within
        # 10%: the delta method itself is off by at most 2.5% (at L = 16, from
        # the exact normal-law ratio 2c sqrt(1 + c^2/2)/(1 + c^2), c = sqrt(v3)/m3),
        # and a 2000-trial spread has a standard error of about 1.6%, so about
        # 5 standard errors fit in the rest
        mc = McConfig(trials=2_000, master_seed=12345)
        arrays = [RisArray(num_elements=L, amplitude=1.0) for L in (16, 64, 256, 1024, 4096)]
        gains = sample_cascaded_gains_by_array(arrays, RICIAN, mc)
        spreads = [np.std(gains[ris]) / np.mean(gains[ris]) for ris in arrays]
        assert all(a > b for a, b in zip(spreads, spreads[1:])), spreads
        for ris, spread in zip(arrays, spreads):
            cm = cascaded_moments(ris, RICIAN)
            assert spread == pytest.approx(2.0 * math.sqrt(cm.v3) / cm.m3, rel=0.10), ris


class TestOutageAndCapacity:
    def test_mc_outage_matches_closed_form(self):
        cfg = ScenarioConfig()
        sc = cfg.scenario()
        est = mc_outage(sample_cascaded_gains(sc.ris, sc.rician, cfg.mc_config()), sc, "unicast")
        cf = outage_closed_form(sc, "unicast").value
        assert abs(est.mean - cf) <= max(0.01, 3.0 * est.half_width)

    def test_outage_events_consistent_with_mc_outage(self):
        cfg = ScenarioConfig(trials=5_000)
        sc = cfg.scenario()
        mc = cfg.mc_config()
        gains = sample_cascaded_gains(sc.ris, sc.rician, mc)
        freq = np.count_nonzero(outage_events(gains, sc, "unicast")) / mc.trials
        assert mc_outage(gains, sc, "unicast").mean == freq

    def test_second_decode_includes_first_stage_failures(self):
        # reduced power (15 W) so the first decode actually fails in some trials
        cfg = ScenarioConfig(trials=5_000, tx_power_dbm=30.0 + 10.0 * math.log10(15.0))
        sc = cfg.scenario()
        gains = sample_cascaded_gains(sc.ris, sc.rician, cfg.mc_config())
        first = outage_events(gains, sc, "multicast")
        second = outage_events(gains, sc, "unicast")
        assert np.count_nonzero(first) > 0
        assert np.all(second[first])  # SIC failure fails the second decode too

    def test_vanishing_power_forces_outage(self):
        cfg = ScenarioConfig(trials=1_000, tx_power_dbm=-90.0)  # 1e-12 W
        sc = cfg.scenario()
        est = mc_outage(sample_cascaded_gains(sc.ris, sc.rician, cfg.mc_config()), sc, "multicast")
        assert est.mean == 1.0

    def test_mc_capacity_tracks_hardened_limit_at_scale(self):
        from inaclink import capacity_hardened

        cfg = ScenarioConfig(elements=1024, trials=2_000, tx_power_dbm=100.0)  # 1e7 W
        sc = cfg.scenario()
        est = mc_capacity(sample_cascaded_gains(sc.ris, sc.rician, cfg.mc_config()), sc, "multicast")
        assert est.mean == pytest.approx(capacity_hardened(sc, "multicast"), abs=0.05)
        assert est.half_width > 0.0

    def test_estimate_rejects_a_negative_or_nan_half_width(self):
        for half_width in (-1e-12, math.nan):
            with pytest.raises(ValueError, match="half_width"):
                McEstimate(mean=math.nan, half_width=half_width)

    def test_single_trial_has_zero_half_width(self):
        cfg = ScenarioConfig(trials=1)
        sc = cfg.scenario()
        est = mc_capacity(sample_cascaded_gains(sc.ris, sc.rician, cfg.mc_config()), sc, "unicast")
        assert est.half_width == 0.0


class TestWilson:
    def test_reference_values(self):
        assert wilson_half_width(50, 1000) == pytest.approx(0.013591778925750997, rel=1e-12)
        assert wilson_half_width(0, 1000) == pytest.approx(0.0019133792427775617, rel=1e-12)

    def test_zero_count_still_informative(self):
        assert wilson_half_width(0, 10_000) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_half_width(0, 0)
        # more successes than trials, or fewer than none, name both values
        for successes, n in ((5, 3), (-1, 3)):
            with pytest.raises(ValueError, match=rf"successes={successes}, n={n}"):
                wilson_half_width(successes, n)


class TestKsDistance:
    def test_needs_enough_trials(self):
        with pytest.raises(ValueError):
            ks_distance(RIS64, RICIAN, McConfig(trials=9_999))

    def test_clt_accuracy_at_moderate_array(self):
        mc = McConfig(trials=100_000, master_seed=12345)
        assert ks_distance(RisArray(100, 1.0), RICIAN, mc) <= 0.01

    def test_distance_shrinks_as_the_array_grows(self):
        mc = McConfig(trials=100_000, master_seed=12345)
        d = [ks_distance(RisArray(L, 1.0), RICIAN, mc) for L in (2, 8, 32, 128)]
        assert all(a > b for a, b in zip(d, d[1:]))
        assert d[0] > 0.05  # the CLT is visibly wrong at L = 2
        assert d[-1] < 0.01
