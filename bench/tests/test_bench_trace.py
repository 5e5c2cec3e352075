"""Trace coverage: every layer the metric map ties to a workload is seen.

A traced pass over a small slice of each workload must call every tied
function, so a change to how a module imports one cannot silently blind
the trace.
"""

import pytest

import tracing
from inaclink import montecarlo, sweeps
from workloads import CliSuite, KsGrid, Op, PointQueries

#: the cli-suite's commands on a light config, so the test stays quick
LIGHT_CLI_CONFIG = """\
mc.trials = 2000
nav.repetitions = 3
sweep.tx_power_dbm = 40,46
sweep.elements_op = 8,16
sweep.elements_cap = 16
sweep.alpha_u_sq = 0.6
sweep.r_m_km = 20000
sweep.elevation_deg = 30
sweep.nav_elements = 0,16
"""


def _traced_metrics(workload, ops):
    tracer = tracing.Tracer()
    with tracer:
        tracer.request_id = "setup"
        workload.prepare()
        for op in ops:
            tracer.request_id = op.op_id
            try:
                workload.run(op)
            except Exception:  # known seed failures still count their calls
                pass
    return tracer, tracer.metrics()


def _slices(tmp_path):
    ks = KsGrid(tmp_path / "ks")
    cli = CliSuite(tmp_path / "cli")
    cli.config_text = LIGHT_CLI_CONFIG
    pq = PointQueries(tmp_path / "pq")
    pq_ops = pq.ops(0)
    return [
        (ks, [Op("ks:32:1:0", (32, 1.0, 0.0))]),
        (cli, cli.ops(0)),
        (pq, [op for op in pq_ops if op.op_id[0] == "a"][:60] + [op for op in pq_ops if op.op_id[0] == "f"][:6]),
    ]


@pytest.mark.parametrize("index", [0, 1, 2], ids=["ks-grid", "cli-suite", "point-queries"])
def test_tied_layers_are_traced(index, tmp_path):
    workload, ops = _slices(tmp_path)[index]
    tracer, metrics = _traced_metrics(workload, ops)
    assert tracing.blind_layers(workload.tied_layers, metrics) == []
    spans = tracer.spans
    assert all(end >= start for _, start, end, _, _ in spans)
    assert {rid for *_, rid in spans} >= {"setup", ops[0].op_id}


def test_self_time_excludes_children(tmp_path):
    ks = KsGrid(tmp_path)
    tracer, metrics = _traced_metrics(ks, [Op("ks:32:0:0", (32, 0.0, 0.0))])
    spans = tracer.spans
    (ks_index,) = [i for i, span in enumerate(spans) if span[0] == "montecarlo.ks_distance"]
    children = {spans[i][0]: spans[i][2] - spans[i][1] for i in range(len(spans)) if spans[i][3] == ks_index}
    assert set(children) == {"montecarlo.sample_cascaded_gains", "channel.cascaded_moments",
                             "channel.effective_gain_cdf"}
    inclusive = metrics["montecarlo.ks_distance.s"]
    assert metrics["montecarlo.ks_distance.self_s"] == pytest.approx(inclusive - sum(children.values()), abs=1e-9)
    assert metrics["montecarlo.sample_cascaded_gains.draws"] == 100_000 * 32
    assert metrics["montecarlo.sample_cascaded_gains.bytes_computed"] == 8 * 4 * 32 * 100_000


def test_uninstall_restores_every_alias():
    original = montecarlo.sample_cascaded_gains
    tracer = tracing.Tracer()
    with tracer:
        assert sweeps.sample_cascaded_gains is not original
        assert sweeps.sample_cascaded_gains is montecarlo.sample_cascaded_gains
    assert sweeps.sample_cascaded_gains is original
    assert montecarlo.sample_cascaded_gains is original
