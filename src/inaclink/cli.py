"""Command-line interface.

Subcommands:
    analyze                  closed-form analysis of the configured point
    simulate                 Monte Carlo vs analytic at the configured point
    position                 one synthetic positioning run
    constellation            minimal-constellation sweep
    reproduce <figure-id>    one of the named figure sweeps

Flags: --config PATH (key=value file; defaults apply when omitted),
--seed U64 and --trials N (override the config's Monte Carlo settings),
--out PATH (write CSV there instead of stdout).

Exit codes: 0 success, 2 configuration error (an unreadable --config or
scene file, a bad value, an --out or stdout that cannot be written), 3
numeric/region error (a NumericError of the library).  Any other exception
is a bug and is not reported under either class.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
from numpy.random import Generator, Philox

from . import navigation, noma
from .config import ScenarioConfig, load_config, parse_config_text
from .errors import ConfigError, InfeasibleError, NumericError
from .geometry import slant_range
from .montecarlo import mc_capacity, mc_outage, sample_cascaded_gains
from .sweeps import FIGURE_IDS, SweepReport, _asymptotic_or_none, emit_csv, run_sweep

__all__ = ["main"]

_POSITION_SEED_SALT = 0x706F7369


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inaclink",
        description="Link-level analysis of a NOMA-RIS-aided MEO satellite INAC network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="key=value config file")
        p.add_argument("--seed", type=int, metavar="U64", help="Monte Carlo master seed override")
        p.add_argument("--out", metavar="PATH", help="write CSV here (default: stdout)")
        p.add_argument("--trials", type=int, metavar="N", help="Monte Carlo trial count override")

    add_common(sub.add_parser("analyze", help="closed-form analysis at the configured point"))
    add_common(sub.add_parser("simulate", help="Monte Carlo cross-check at the configured point"))
    add_common(sub.add_parser("position", help="synthesize pseudoranges and solve for position"))
    con = sub.add_parser("constellation", help="minimal-constellation sizing sweep")
    con.set_defaults(figure_id="constellation")
    add_common(con)
    rep = sub.add_parser("reproduce", help="run one of the named figure sweeps")
    rep.add_argument("figure_id", choices=FIGURE_IDS, metavar="figure-id",
                     help=f"one of: {', '.join(FIGURE_IDS)}")
    add_common(rep)
    return parser


def _load_config(args) -> ScenarioConfig:
    """The command's config with --seed/--trials applied, validated once."""
    overrides = {name: value for name in ("seed", "trials")
                 if (value := getattr(args, name)) is not None}
    if args.config:
        return load_config(args.config, **overrides)
    return parse_config_text("", **overrides)


def _table(rows: list[tuple[str, object]]) -> SweepReport:
    """A two-column quantity,value report; a str value is written as is."""
    return SweepReport("quantity", [name for name, _ in rows],
                       {"value": [value for _, value in rows]})


def _cmd_analyze(cfg: ScenarioConfig) -> SweepReport:
    sc = cfg.scenario()
    cm = sc.moments
    rows: list[tuple[str, object]] = [
        ("mode", cfg.mode),
        ("slant_range_m", slant_range(cfg.orbit())),
        ("gamma", sc.budget.gamma),
        ("noise_power_w", sc.budget.noise_power),
        ("m1", cm.m1), ("v1", cm.v1),
        ("m2", cm.m2), ("v2", cm.v2),
        ("m3", cm.m3), ("v3", cm.v3),
        ("hardened_gain", cm.m3 ** 2),
    ]
    for sig in noma.SIGNALS:
        rows.append((f"{sig}_omega", noma.outage_threshold(sc, sig)))
        rows.append((f"{sig}_op_closed_form", noma.outage_closed_form(sc, sig).value))
        rows.append((f"{sig}_op_asymptotic", _asymptotic_or_none(sc, sig)))
        rows.append((f"{sig}_capacity_hardened", noma.capacity_hardened(sc, sig)))
    rows.append(("diversity_m3_prediction", cm.m3))
    return _table(rows)


def _cmd_simulate(cfg: ScenarioConfig) -> SweepReport:
    sc = cfg.scenario()
    mc = cfg.mc_config()
    gains = sample_cascaded_gains(sc.ris, sc.rician, mc)
    rows: list[tuple[str, object]] = [
        ("mode", cfg.mode),
        ("trials", mc.trials),
        ("seed", mc.master_seed),
    ]
    for sig in noma.SIGNALS:
        est = mc_outage(gains, sc, sig)
        rows.append((f"{sig}_op_closed_form", noma.outage_closed_form(sc, sig).value))
        rows.append((f"{sig}_op_mc", est.mean))
        rows.append((f"{sig}_op_mc_half_width", est.half_width))
        cap = mc_capacity(gains, sc, sig)
        rows.append((f"{sig}_capacity_hardened", noma.capacity_hardened(sc, sig)))
        rows.append((f"{sig}_capacity_mc", cap.mean))
        rows.append((f"{sig}_capacity_mc_half_width", cap.half_width))
    return _table(rows)


def _cmd_position(cfg: ScenarioConfig) -> SweepReport:
    scene = cfg.nav_scene()
    sc = cfg.scenario()
    snr = noma.sinr(sc.moments.m3 ** 2, sc, "multicast")
    if not snr > 0.0:
        raise InfeasibleError("the RIS-relayed link has zero SNR: its pseudorange cannot be measured")
    sigma = navigation.range_noise_from_snr(float(snr), cfg.bandwidth_hz)
    rng = Generator(Philox(key=cfg.seed ^ _POSITION_SEED_SALT))
    pr = navigation.synthesize_pseudoranges(scene, sigma, rng)
    try:
        # at a vanishing SNR (a subnormal link gain, say) the ranges reach ~1e154 m,
        # and the solver's squared distances overflow a double
        with np.errstate(over="raise", invalid="raise"):
            fix = navigation.lsm_solve(pr, scene)
            pos_err = float(np.linalg.norm(fix.position - scene.true_user))
    except FloatingPointError as exc:
        raise InfeasibleError(f"the position fix overflows a double at sigma_m = {sigma:.3g}") from exc
    gdop, pdop = navigation.dilution_of_precision(scene)
    rows: list[tuple[str, object]] = [
        ("sigma_m", sigma),
        ("gdop", gdop),
        ("pdop", pdop),
        ("solved_x_m", fix.state[0]),
        ("solved_y_m", fix.state[1]),
        ("solved_z_m", fix.state[2]),
        ("solved_clock_m", fix.state[3]),
        ("iterations_used", fix.iterations_used),
        ("final_cost_m2", fix.final_cost),
        ("position_error_m", pos_err),
        ("clock_error_s", fix.clock_bias_s - scene.clock_bias),
    ]
    return _table(rows)


_COMMANDS = {"analyze": _cmd_analyze, "simulate": _cmd_simulate, "position": _cmd_position}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command in _COMMANDS:
            report = _COMMANDS[args.command](cfg)
        else:
            report = run_sweep(cfg, args.figure_id)
        try:
            emit_csv(report, sys.stdout if args.out is None else args.out)
        except OSError as exc:
            where = "stdout" if args.out is None else f"--out {args.out}"
            raise ConfigError(f"cannot write {where}: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
