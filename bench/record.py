"""Record the output references the benchmark checks against.

Run from the repository root on the commit whose outputs are the reference:

    python3 bench/record.py

It writes, under bench/reference/:

    cli/<command>.csv     the cli-suite's CSV output of each command
    ks_grid.json          KS distance of every criterion-1 cell, and the
                          cells whose bound the commit already misses
    point_queries.json    the point-queries catalogue: seeded inputs and
                          the outputs (or the error) of each request

Recording again is a change to the benchmark, made only where a change to
the program moves its outputs on purpose (a new sampler stream, say).
"""

from __future__ import annotations

import json
import shutil

from numpy.random import Generator, Philox

import run

CATALOGUE_SEED = 20230516
CATALOGUE_ANALYTIC, CATALOGUE_FIXES = 3600, 400
#: share of Rician links drawn as strong LoS, K in [10, 1000] (10 to 30 dB)
STRONG_LOS_SHARE = 0.04


def _float(x):
    """12 significant digits: far inside the 1e-9 check, and short in JSON."""
    return None if x is None else float(f"{x:.12g}")


def _draw_k(rng: Generator) -> float:
    if rng.random() < STRONG_LOS_SHARE:
        return round(10.0 ** rng.uniform(1.0, 3.0), 2)
    return round(rng.uniform(0.0, 10.0), 3)


def catalogue_inputs(seed: int = CATALOGUE_SEED) -> tuple[list, list]:
    """Analytic points (mode, signal, L, dBm, K_r, K_g) and fixes (SNR dB, noise key)."""
    rng = Generator(Philox(key=seed))
    analytic = []
    for _ in range(CATALOGUE_ANALYTIC):
        mode = ("CO", "NO")[int(rng.integers(2))]
        signal = ("multicast", "unicast")[int(rng.integers(2))]
        elements = int(min(16384, max(1, round(2.0 ** rng.uniform(0.0, 14.0)))))
        dbm = round(rng.uniform(30.0, 56.0), 2)
        analytic.append([mode, signal, elements, dbm, _draw_k(rng), _draw_k(rng)])
    fixes = [[round(rng.uniform(-30.0, 10.0), 2), int(rng.integers(2**63))] for _ in range(CATALOGUE_FIXES)]
    return analytic, fixes


def _analytic_outcome(pq, inputs) -> list:
    try:
        out = pq.analytic(*inputs)
    except Exception as exc:  # the seed's failure is the reference
        return [type(exc).__name__, None, None, None, None]
    return [None, *(_float(v) for v in out)]


def _fix_outcome(pq, inputs) -> list:
    try:
        *values, iterations = pq.fix(*inputs)
    except Exception as exc:  # the seed's failure is the reference
        return [type(exc).__name__, None, None, None, None, None, None]
    return [None, *(_float(v) for v in values), iterations]


def record_point_queries(workdir) -> dict:
    from workloads import ANALYTIC_FIELDS, FIX_FIELDS, PointQueries

    pq = PointQueries(workdir)
    pq.prepare()
    analytic, fixes = catalogue_inputs()
    return {
        "catalogue_seed": CATALOGUE_SEED,
        "analytic_fields": ANALYTIC_FIELDS,
        "fix_fields": FIX_FIELDS,
        "analytic": [inputs + _analytic_outcome(pq, inputs) for inputs in analytic],
        "fix": [inputs + _fix_outcome(pq, inputs) for inputs in fixes],
    }


def record_cli(workdir, out_dir) -> None:
    from workloads import CliSuite

    suite = CliSuite(workdir)
    suite.prepare()
    out_dir.mkdir(parents=True, exist_ok=True)
    for op in suite.ops(0):
        suite.run(op)
        shutil.copyfile(suite.out_path(op), out_dir / f"{op.op_id}.csv")


def record_ks_grid(workdir) -> dict:
    import checks
    from workloads import KsGrid

    grid = KsGrid(workdir)
    grid.prepare()
    distances = {op.op_id: grid.run(op) for op in grid.ops(0)}
    return {
        "distance": {k: distances[k] for k in sorted(distances)},
        "failed": sorted(op.op_id for op in grid.ops(0) if not checks.ks_passes(op.inputs, distances[op.op_id])),
    }


def _write_json(path, data: dict, rows: tuple[str, ...] = ()) -> None:
    """JSON with one line per row of the named lists, for readable diffs."""
    parts = []
    for key, value in data.items():
        if key in rows:
            body = ",\n".join("    " + json.dumps(row) for row in value)
            parts.append(f"  {json.dumps(key)}: [\n{body}\n  ]")
        else:
            parts.append(f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
    path.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")


def main() -> None:
    run.use_checkout_library()
    from workloads import REFERENCE_DIR

    workdir = run.WORK_DIR / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    provenance = run.environment()
    record_cli(workdir, REFERENCE_DIR / "cli")
    _write_json(REFERENCE_DIR / "point_queries.json", {"provenance": provenance, **record_point_queries(workdir)},
                rows=("analytic", "fix"))
    _write_json(REFERENCE_DIR / "ks_grid.json", {"provenance": provenance, **record_ks_grid(workdir)})


if __name__ == "__main__":
    main()
