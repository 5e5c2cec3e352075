"""Command-line interface.

Subcommands, each writing the report that sweeps.run_sweep builds under its
name (reproduce: under the figure id):
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
numeric/region error (a NumericError of the library), 130 interrupted
(Ctrl-C, with the one line "interrupted").  Any other exception is a bug
and is not reported under any of these.
"""

from __future__ import annotations

import argparse
import sys

from .config import ScenarioConfig, load_config, parse_config_text
from .errors import ConfigError, NumericError
from .sweeps import FIGURE_IDS, emit_csv, run_sweep

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inaclink",
        description="Link-level analysis of a NOMA-RIS-aided MEO satellite INAC network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="key=value config file")
        p.add_argument("--seed", type=int, metavar="U64", help="Monte Carlo master seed override")
        p.add_argument("--out", metavar="PATH", help="write CSV here (default: stdout)")
        p.add_argument("--trials", type=int, metavar="N", help="Monte Carlo trial count override")
        return p

    for name, help_text in (("analyze", "closed-form analysis at the configured point"),
                            ("simulate", "Monte Carlo cross-check at the configured point"),
                            ("position", "synthesize pseudoranges and solve for position"),
                            ("constellation", "minimal-constellation sizing sweep")):
        add_command(name, help_text).set_defaults(figure_id=name)
    add_command("reproduce", "run one of the named figure sweeps").add_argument(
        "figure_id", choices=FIGURE_IDS, metavar="figure-id", help=f"one of: {', '.join(FIGURE_IDS)}")
    return parser


def _load_config(args) -> ScenarioConfig:
    """The command's config with --seed/--trials applied, validated once."""
    overrides = {name: value for name in ("seed", "trials")
                 if (value := getattr(args, name)) is not None}
    if args.config:
        return load_config(args.config, **overrides)
    return parse_config_text("", **overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = run_sweep(_load_config(args), args.figure_id)
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
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
