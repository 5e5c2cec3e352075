"""Host-speed probes scale each op by the probes around it."""

import time

import pytest

import hostspeed
import run


@pytest.fixture
def instant_kernel(monkeypatch):
    monkeypatch.setitem(hostspeed.KERNELS, "none", lambda: 0.0)
    monkeypatch.setitem(hostspeed.NOMINAL_S, "none", 0.1)
    monkeypatch.setattr(hostspeed, "PROBE_EVERY_S", 0.5)


def test_scale_uses_the_mean_of_the_two_probes_around_the_op(instant_kernel):
    host = hostspeed.Probe(("none",))
    host.times = [0.1, 0.3]
    assert host.scale(1.0, 0) == pytest.approx(0.5)


def test_a_probe_follows_every_probe_interval_of_op_time(instant_kernel):
    host = hostspeed.Probe(("none",))
    host.measure()
    step = hostspeed.PROBE_EVERY_S / 2
    assert [host.after_op(step) for _ in range(5)] == [0, 0, 1, 1, 2]
    assert len(host.times) == 3


class _Sleeper:
    """A workload whose ops sleep; its outputs always pass."""

    probe_kernels = ("none",)

    def run(self, op):
        time.sleep(op)

    def check(self, op, out):
        return True


def test_every_op_is_scaled_between_two_probes(instant_kernel):
    ops = [0.2, 0.2, 0.2, 0.01]
    passes = run.measure(_Sleeper(), ops, 2)
    for p in passes:
        assert len(p.scaled) == len(ops)
        assert all(s > 0 for s in p.scaled)
    assert passes[0].openings == [0, 0, 0, 1]
    assert passes[1].openings[0] == 1
