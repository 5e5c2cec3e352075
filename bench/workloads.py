"""The three benchmark workloads: inputs from a seed, the operations, checks.

Every workload is a list of operations for one pass, made from the workload
seed.  The library receives only the generated inputs; the seeds inside
them (the Monte Carlo master seed, the nav noise key) are fixed, so every
output has a reference recorded from the seed commit under reference/.

    ks-grid        criterion 1's KS sweep, 18 cells at 1e5 trials; the seed
                   orders the cells
    cli-suite      in-process `inaclink.cli.main` for analyze, simulate,
                   position, constellation and the seven reproduce figures;
                   the seed orders the commands
    point-queries  one closed-loop caller; the seed draws 90% analytic
                   points and 10% position fixes from the recorded catalogue,
                   stratified so that every pass has the same make-up
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from numpy.random import Generator, Philox

from inaclink import cli, config, montecarlo, navigation, noma, sweeps
from inaclink.errors import RegionError

import checks

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: the default scenario, trimmed so that one pass of the eleven commands
#: takes a few seconds and a run repeats it: cap-vs-elements stops at
#: L = 1024 (its single L = 16384 point would swamp the suite), and a quarter
#: of the default trials and nav repetitions keeps the defaults' mix of
#: sampler and solver work
CLI_CONFIG_TEXT = """\
mc.trials = 5000
nav.repetitions = 50
sweep.elements_cap = 16,64,256,1024
"""

#: catalogue rows: the inputs, then the seed's error (or null), then its outputs
ANALYTIC_FIELDS = ("mode", "signal", "elements", "tx_power_dbm", "k_r", "k_g",
                   "error", "omega", "op_closed_form", "op_asymptotic", "capacity_hardened")
FIX_FIELDS = ("snr_db", "noise_key", "error", "sigma_m", "x_m", "y_m", "z_m", "clock_m", "iterations")
_A_ERROR, _F_ERROR = ANALYTIC_FIELDS.index("error"), FIX_FIELDS.index("error")


def _rng(seed: int) -> Generator:
    return Generator(Philox(key=seed))


@dataclass(frozen=True)
class Op:
    """One operation: its id (also the trace request id) and its inputs."""

    op_id: str
    inputs: tuple


class Workload:
    """Shared shape: `ops` for one pass, `run` one op, `check` its output."""

    name = ""
    config_text = ""
    #: nominal seconds of one pass on a 2-core box; a run makes
    #: round(seconds / pass_seconds) passes whatever the machine's speed, so
    #: the per-op median always draws on as many repeats
    pass_seconds = 1.0
    #: host-speed kernels (hostspeed.py) that match the workload's kind of work
    probe_kernels: tuple[str, ...] = ("bulk", "scalar")
    #: traced functions the metric map ties to this workload; each must be called
    tied_layers: tuple[str, ...] = ("config.load_config", "config.validate", "config.scenario")

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.config_path = workdir / f"{self.name}.conf"

    def prepare(self) -> None:
        """Write the workload config, load and validate it, build its first scenario."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(self.config_text, encoding="utf-8")
        self.cfg = config.load_config(str(self.config_path))
        self.cfg.scenario()

    def known_failures(self) -> set[str]:
        """Op ids whose check already failed on the seed commit."""
        return set()

    def needed_draws(self, ops: list[Op]) -> int:
        """Sum of trials x L over the distinct gain vectors one pass needs."""
        return 0


class KsGrid(Workload):
    name = "ks-grid"
    config_text = "mc.trials = 100000\n"
    pass_seconds = 30.0
    probe_kernels = ("bulk",)
    tied_layers = Workload.tied_layers + (
        "montecarlo.sample_cascaded_gains", "montecarlo.ks_distance",
        "channel.cascaded_moments", "channel.effective_gain_cdf",
    )

    def ops(self, seed: int) -> list[Op]:
        # criterion 1's grid: L x K_r x K_g
        cells = [(L, k_r, k_g) for L in (32, 64, 128) for k_r in (0.0, 1.0, 10.0) for k_g in (0.0, 1.0)]
        order = _rng(seed).permutation(len(cells))
        return [Op(f"ks:{cells[i][0]}:{cells[i][1]:g}:{cells[i][2]:g}", cells[i]) for i in order]

    def run(self, op: Op):
        L, k_r, k_g = op.inputs
        cell = replace(self.cfg, elements=L, k_r=k_r, k_g=k_g)
        return montecarlo.ks_distance(cell.ris_array(), cell.rician_params(), cell.mc_config())

    def check(self, op: Op, out) -> bool:
        return checks.ks_passes(op.inputs, out)

    def known_failures(self) -> set[str]:
        ref = json.loads((REFERENCE_DIR / "ks_grid.json").read_text(encoding="utf-8"))
        return set(ref["failed"])

    def needed_draws(self, ops: list[Op]) -> int:
        # each cell is one sampler call
        return sum(self.cfg.trials * op.inputs[0] for op in ops)


class CliSuite(Workload):
    name = "cli-suite"
    config_text = CLI_CONFIG_TEXT
    pass_seconds = 5.0
    tied_layers = Workload.tied_layers + (
        "montecarlo.sample_cascaded_gains", "montecarlo.outage_events",
        "montecarlo.mc_outage", "montecarlo.mc_capacity",
        "noma.outage_threshold", "noma.outage_closed_form", "noma.outage_asymptotic", "noma.capacity_hardened",
        "navigation.lsm_solve", "navigation.synthesize_pseudoranges",
        "geometry.link_budget", "geometry.min_satellites",
        "sweeps.run_sweep", "sweeps.report_to_csv_text", "cli.main",
    )

    def ops(self, seed: int) -> list[Op]:
        commands = [("analyze",), ("simulate",), ("position",), ("constellation",),
                    *(("reproduce", fig) for fig in sweeps.FIGURE_IDS)]
        order = _rng(seed).permutation(len(commands))
        return [Op("-".join(commands[i]), commands[i]) for i in order]

    def out_path(self, op: Op) -> Path:
        return self.workdir / f"{op.op_id}.csv"

    def run(self, op: Op):
        argv = [*op.inputs, "--config", str(self.config_path), "--out", str(self.out_path(op))]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"inaclink {' '.join(op.inputs)} exited {code}")
        return code

    def check(self, op: Op, out) -> bool:
        text = self.out_path(op).read_text(encoding="utf-8")
        ref = (REFERENCE_DIR / "cli" / f"{op.op_id}.csv").read_text(encoding="utf-8")
        return not checks.compare_csv(text, ref)

    def needed_draws(self, ops: list[Op]) -> int:
        # one gain vector per distinct (L, seed): simulate's four identical
        # draws count once, so removing redundant draws raises
        # needed_draws_per_s; the draws of every sampler call are the traced
        # montecarlo.sample_cascaded_gains.draws
        cfg = self.cfg
        per_command = {
            "simulate": [cfg.elements],
            "reproduce-op-vs-power": [cfg.elements],
            "reproduce-op-vs-elements": list(cfg.sweep_elements_op),
            "reproduce-cap-vs-power": [cfg.elements],
            "reproduce-cap-vs-elements": list(cfg.sweep_elements_cap),
            "reproduce-outage-vs-split": [cfg.elements],
        }
        return sum(cfg.trials * L for op in ops for L in per_command.get(op.op_id, []))


class PointQueries(Workload):
    name = "point-queries"
    config_text = "# default scenario; each request overrides mode, L, power and K\n"
    pass_seconds = 0.6
    probe_kernels = ("scalar",)
    tied_layers = Workload.tied_layers + (
        "channel.cascaded_moments", "channel.effective_gain_cdf", "specialfn.kummer_1f1_half",
        "noma.outage_threshold", "noma.outage_closed_form", "noma.outage_asymptotic", "noma.capacity_hardened",
        "navigation.lsm_solve", "navigation.synthesize_pseudoranges", "geometry.link_budget",
    )

    def prepare(self) -> None:
        super().prepare()
        self.scene = self.cfg.nav_scene()

    @cached_property
    def catalogue(self) -> dict:
        return json.loads((REFERENCE_DIR / "point_queries.json").read_text(encoding="utf-8"))

    def ops(self, seed: int) -> list[Op]:
        # half of the recorded catalogue, 1800 analytic points and 200 fixes:
        # one row of each neighbouring pair, so that every seed gives a pass
        # of the same make-up (70 of the seed commit's 1F1 failures; as many
        # fixes that converge early, which take half the time of the rest)
        rng = _rng(seed)
        analytic, fixes = self.catalogue["analytic"], self.catalogue["fix"]
        elements, iterations, snr = (ANALYTIC_FIELDS.index("elements"), FIX_FIELDS.index("iterations"),
                                     FIX_FIELDS.index("snr_db"))
        points = _one_of_each_pair(rng, analytic, lambda row: (bool(row[_A_ERROR]), row[elements]))
        chosen = _one_of_each_pair(rng, fixes, lambda row: (row[iterations], row[snr]))
        ops = [Op(f"a{i}", tuple(analytic[i])) for i in points]
        ops += [Op(f"f{i}", tuple(fixes[i])) for i in chosen]
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op: Op):
        if op.op_id[0] == "a":
            return self.analytic(*op.inputs[:_A_ERROR])
        return self.fix(*op.inputs[:_F_ERROR])

    def analytic(self, mode, signal, elements, tx_power_dbm, k_r, k_g):
        """What `inaclink analyze` computes for one signal at one operating point."""
        point = replace(self.cfg, mode=mode, elements=elements, tx_power_dbm=tx_power_dbm, k_r=k_r, k_g=k_g)
        sc = point.scenario()
        omega = noma.outage_threshold(sc, signal)
        op_cf = noma.outage_closed_form(sc, signal).value
        try:
            op_asym = noma.outage_asymptotic(sc, signal).value
        except RegionError:
            op_asym = None
        return omega, op_cf, op_asym, noma.capacity_hardened(sc, signal)

    def fix(self, snr_db, noise_key):
        """One position fix on the default scene with sigma from the SNR."""
        sigma = navigation.range_noise_from_snr(10.0 ** (snr_db / 10.0), self.cfg.bandwidth_hz)
        pr = navigation.synthesize_pseudoranges(self.scene, sigma, _rng(noise_key))
        fix = navigation.lsm_solve(pr, self.scene)
        return (sigma, *(float(v) for v in fix.state), fix.iterations_used)

    def check(self, op: Op, out) -> bool:
        if op.op_id[0] == "a":
            error, ref = op.inputs[_A_ERROR], op.inputs[_A_ERROR + 1:]
            if error:
                return _valid_analytic(out)
            return all(_same_or_valid(v, r) for v, r in zip(out, ref))
        error, ref = op.inputs[_F_ERROR], op.inputs[_F_ERROR + 1:]
        if error:
            return all(math.isfinite(v) for v in out)
        sigma, *state, iterations = out
        return checks.exact_close(sigma, ref[0]) and checks.fix_close(state, ref[1:-1]) and iterations == ref[-1]

    def known_failures(self) -> set[str]:
        return {f"a{i}" for i, row in enumerate(self.catalogue["analytic"]) if row[_A_ERROR]} | {
            f"f{i}" for i, row in enumerate(self.catalogue["fix"]) if row[_F_ERROR]}


def _one_of_each_pair(rng: Generator, rows: list, key) -> list[int]:
    """Indices of one row, drawn by `rng`, from each neighbouring pair of the rows sorted by `key`."""
    order = sorted(range(len(rows)), key=lambda i: key(rows[i]))
    return [int(pair[rng.integers(2)]) for pair in zip(order[::2], order[1::2])]


def _same_or_valid(value, ref) -> bool:
    """Exact agreement, or for a seed NA (asymptotic out of region) NA or an OP."""
    if ref is None:
        return value is None or 0.0 <= value <= 1.0
    return value is not None and checks.exact_close(value, ref)


def _valid_analytic(out) -> bool:
    omega, op_cf, op_asym, cap = out
    return (
        math.isfinite(omega) and omega >= 0.0
        and 0.0 <= op_cf <= 1.0
        and (op_asym is None or 0.0 <= op_asym <= 1.0)
        and math.isfinite(cap) and cap >= 0.0
    )


WORKLOADS = {w.name: w for w in (KsGrid, CliSuite, PointQueries)}
