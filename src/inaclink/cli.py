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

Exit codes: 0 success, 2 configuration error, 3 numeric/region error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace

import numpy as np
from numpy.random import Generator, Philox

from . import navigation, noma
from .config import ScenarioConfig, load_config
from .errors import ConfigError, NumericError
from .geometry import slant_range
from .montecarlo import mc_capacity, mc_outage, sample_cascaded_gains
from .sweeps import FIGURE_IDS, run_sweep, report_to_csv_text

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
    add_common(sub.add_parser("constellation", help="minimal-constellation sizing sweep"))
    rep = sub.add_parser("reproduce", help="run one of the named figure sweeps")
    rep.add_argument("figure_id", choices=FIGURE_IDS, metavar="figure-id",
                     help=f"one of: {', '.join(FIGURE_IDS)}")
    add_common(rep)
    return parser


def _load_config(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    return cfg.validate()


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _table_text(rows: list[tuple[str, object]]) -> str:
    from .sweeps import _fmt  # shared numeric formatting

    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["quantity", "value"])
    for name, value in rows:
        writer.writerow([name, value if isinstance(value, str) else _fmt(value)])
    return buf.getvalue()


def _cmd_analyze(cfg: ScenarioConfig, out: str | None) -> None:
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
        try:
            rows.append((f"{sig}_op_asymptotic", noma.outage_asymptotic(sc, sig).value))
        except NumericError:
            rows.append((f"{sig}_op_asymptotic", "NA"))
        rows.append((f"{sig}_capacity_hardened", noma.capacity_hardened(sc, sig)))
    rows.append(("diversity_m3_prediction", cm.m3))
    _write(_table_text(rows), out)


def _cmd_simulate(cfg: ScenarioConfig, out: str | None) -> None:
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
    _write(_table_text(rows), out)


def _cmd_position(cfg: ScenarioConfig, out: str | None) -> None:
    scene = cfg.nav_scene()
    sc = cfg.scenario()
    gain = sc.moments.m3 ** 2
    snr = (
        noma.sinr_co_multicast(gain, sc)
        if cfg.mode == "CO"
        else noma.sinr_no_multicast(gain, sc)
    )
    sigma = navigation.range_noise_from_snr(float(snr), cfg.bandwidth_hz)
    rng = Generator(Philox(key=cfg.seed ^ _POSITION_SEED_SALT))
    pr = navigation.synthesize_pseudoranges(scene, sigma, rng)
    fix = navigation.lsm_solve(pr, scene)
    gdop, pdop = navigation.dilution_of_precision(scene)
    pos_err = float(np.linalg.norm(fix.position - scene.true_user))
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
    _write(_table_text(rows), out)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "analyze":
            _cmd_analyze(cfg, args.out)
        elif args.command == "simulate":
            _cmd_simulate(cfg, args.out)
        elif args.command == "position":
            _cmd_position(cfg, args.out)
        elif args.command == "constellation":
            report = run_sweep(cfg, "constellation")
            _write(report_to_csv_text(report), args.out)
        else:
            report = run_sweep(cfg, args.figure_id)
            _write(report_to_csv_text(report), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ValueError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
