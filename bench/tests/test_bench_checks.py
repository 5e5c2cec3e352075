"""The benchmark's inputs are seeded and its checks catch a nudged output."""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from workloads import _A_ERROR, REFERENCE_DIR, CliSuite, KsGrid, PointQueries


@pytest.mark.parametrize("workload", [KsGrid, CliSuite, PointQueries])
def test_seed_fixes_the_inputs(workload, tmp_path):
    w = workload(tmp_path)
    assert w.ops(7) == w.ops(7)
    assert w.ops(7) != w.ops(8)


@pytest.mark.parametrize("seed", [3, 4])
def test_point_queries_mix_is_fixed(seed):
    pq = PointQueries(Path("."))
    ops = pq.ops(seed)
    kinds = [op.op_id[0] for op in ops]
    assert kinds.count("a") == 1800 and kinds.count("f") == 200
    assert len({op.op_id for op in ops}) == len(ops)
    assert len({op.op_id for op in ops} & pq.known_failures()) == 70
    early = [op for op in ops if op.op_id[0] == "f" and op.inputs[-1] < 20]
    assert len(early) in (56, 57)


def test_ks_value_over_its_bound_fails():
    ref = json.loads((REFERENCE_DIR / "ks_grid.json").read_text())
    grid = KsGrid(Path("."))
    for op in grid.ops(0):
        d = ref["distance"][op.op_id]
        bound = 0.01 if op.inputs == (64, 1.0, 0.0) else 0.02
        assert grid.check(op, d) == (op.op_id not in ref["failed"])
        assert not grid.check(op, bound * (1 + 1e-6))
        assert grid.check(op, bound)
    assert ref["failed"] == ["ks:64:1:0"]


def _rows(name):
    text = (REFERENCE_DIR / "cli" / name).read_text()
    return list(csv.reader(io.StringIO(text)))


def _text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(rows)
    return buf.getvalue()


def _nudge_8th_digit(text):
    value = float(text)
    digits = f"{value:.12e}"
    mantissa, exponent = digits.split("e")
    eighth = int(mantissa[8])
    return f"{mantissa[:8]}{(eighth + 5) % 10}{mantissa[9:]}e{exponent}"


def test_reference_passes_its_own_check():
    for path in (REFERENCE_DIR / "cli").glob("*.csv"):
        assert checks.compare_csv(path.read_text(), path.read_text()) == []


def test_analytic_cell_changed_in_8th_digit_fails():
    rows = _rows("reproduce-op-vs-power.csv")
    col = rows[0].index("unicast_closed_form")
    row = next(i for i in range(1, len(rows)) if 1e-3 < float(rows[i][col]) < 1.0)
    ref = _text(rows)
    rows[row][col] = _nudge_8th_digit(rows[row][col])
    assert checks.compare_csv(_text(rows), ref) == [f"{row - 1}:unicast_closed_form"]


def test_deep_tail_cell_changed_in_8th_digit_fails():
    rows = _rows("reproduce-op-vs-elements.csv")
    cells = [(i, j) for i in range(1, len(rows)) for j, name in enumerate(rows[0])
             if name.endswith("_closed_form") and 0.0 < float(rows[i][j]) < 1e-50]
    assert cells
    ref = _text(rows)
    for i, j in cells:
        nudged = [list(r) for r in rows]
        nudged[i][j] = _nudge_8th_digit(rows[i][j])
        assert checks.compare_csv(_text(nudged), ref) == [f"{i - 1}:{rows[0][j]}"]


def test_mc_cell_moved_by_10_half_widths_fails():
    rows = _rows("reproduce-op-vs-power.csv")
    col, hw_col = rows[0].index("unicast_mc"), rows[0].index("unicast_mc_half_width")
    ref = _text(rows)
    hw = float(rows[4][hw_col])
    mean = float(rows[4][col])
    rows[4][col] = repr(mean + 1.0 * hw)
    assert checks.compare_csv(_text(rows), ref) == []  # a new stream may move it this far
    rows[4][col] = repr(mean + 10.0 * hw)
    assert checks.compare_csv(_text(rows), ref) == ["3:unicast_mc"]


def test_quantity_table_mc_row_moved_fails():
    rows = _rows("simulate.csv")
    names = [r[0] for r in rows]
    i, j = names.index("unicast_op_mc"), names.index("unicast_op_mc_half_width")
    ref = _text(rows)
    rows[i][1] = repr(float(rows[i][1]) + 10.0 * float(rows[j][1]))
    assert checks.compare_csv(_text(rows), ref) == ["0:unicast_op_mc"]


def test_na_reference_cell_accepts_a_value_but_not_a_missing_one():
    ref = "x,a\r\n1,NA\r\n"
    assert checks.compare_csv("x,a\r\n1,0.5\r\n", ref) == []
    assert checks.compare_csv("x,a\r\n1,NA\r\n", "x,a\r\n1,0.5\r\n") == ["0:a"]


def test_exact_close_is_relative_in_value():
    assert checks.exact_close(0.123456789, 0.123456789 * (1 + 5e-10))
    assert not checks.exact_close(0.123456789, 0.12345679)
    assert checks.exact_close(1e-200, 1e-200 * (1 + 5e-10))
    assert not checks.exact_close(1e-200, 1e-200 * (1 + 1e-8))
    assert not checks.exact_close(float("nan"), 1.0)
    assert checks.exact_close(float("inf"), float("inf"))


def _pq_slice(pq, n_analytic, n_fixes):
    """The first requests of each kind in a seed-0 pass, without the seed's known failures."""
    known = pq.known_failures()
    ops = [op for op in pq.ops(0) if op.op_id not in known]
    return ([op for op in ops if op.op_id[0] == "a"][:n_analytic]
            + [op for op in ops if op.op_id[0] == "f"][:n_fixes])


def test_point_query_output_nudged_fails(tmp_path):
    pq = PointQueries(tmp_path)
    pq.prepare()
    for op in _pq_slice(pq, 40, 10):
        out = pq.run(op)
        assert pq.check(op, out)
        i = next(k for k, v in enumerate(out) if v is not None and v != 0.0 and k < len(out) - (op.op_id[0] == "f"))
        nudged = list(out)
        nudged[i] = float(_nudge_8th_digit(repr(out[i])))
        assert not pq.check(op, tuple(nudged)), (op, i)


def test_deep_tail_closed_form_op_nudged_fails(tmp_path):
    pq = PointQueries(tmp_path)
    pq.prepare()
    ops = [op for op in pq.ops(0) if not op.inputs[_A_ERROR] and op.op_id[0] == "a"
           and 0.0 < op.inputs[_A_ERROR + 2] < 1e-100][:20]
    assert ops
    for op in ops:
        out = pq.run(op)
        assert pq.check(op, out)
        nudged = list(out)
        nudged[1] = float(_nudge_8th_digit(repr(out[1])))
        assert not pq.check(op, tuple(nudged)), op


def test_fix_state_is_checked_at_the_scale_of_the_position(tmp_path):
    pq = PointQueries(tmp_path)
    pq.prepare()
    (op,) = _pq_slice(pq, 0, 1)
    out = pq.run(op)
    sigma, x, y, z, clock, iterations = out
    small = min((1, 2, 3), key=lambda k: abs(out[k]))
    assert abs(out[small]) < abs(x)
    moved = list(out)
    moved[small] += 1e-9
    assert pq.check(op, tuple(moved))
    nudged = list(out)
    nudged[1] = float(_nudge_8th_digit(repr(x)))
    assert not pq.check(op, tuple(nudged))
    nudged = list(out)
    nudged[0] = float(_nudge_8th_digit(repr(sigma)))
    assert not pq.check(op, tuple(nudged))
    assert not pq.check(op, (*out[:-1], iterations + 1))


def test_run_prints_the_contract_json(capsys):
    assert run.main(["--workload", "point-queries", "--seconds", "1", "--seed", "5"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 < result["failed"] < result["attempted"]
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_run_without_the_library_fails(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in Path(run.BENCH_DIR).glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ks-grid"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
