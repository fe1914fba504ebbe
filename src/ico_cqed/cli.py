"""Command-line front end.

Subcommands: ``sweep`` runs a JSON-configured sweep, ``figure`` emits the
data behind a packaged preset, ``verify`` runs the randomized closed-form
versus matrix-propagator comparison.  Exit codes: 0 success, 1 usage error,
2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError
from .sweep import (
    FIGURE_PRESETS,
    Table,
    config_from_dict,
    figure_meta,
    figure_table,
    meta_json,
    run_sweep,
    sweep_meta,
)
from .verify import MAX_DRAWS, run_verification


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad arguments; this CLI reserves 2 for
    verification failures, so usage errors are remapped to status 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ico-cqed",
        description=(
            "Two-level atom crossing two cavities in a coherently controlled "
            "order: parameter sweeps, figure-style presets, and the analytic "
            "vs matrix verification run."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_p = sub.add_parser("sweep", help="run a sweep described by a JSON config file")
    sweep_p.add_argument("--config", required=True, type=Path, help="JSON config path")
    sweep_p.add_argument(
        "--out",
        type=Path,
        help="CSV output path (stdout if omitted); a <out>.meta.json sidecar "
        "with the resolved config is written next to it",
    )

    figure_p = sub.add_parser("figure", help="emit the data behind one packaged preset")
    figure_p.add_argument(
        "id",
        metavar="ID",
        help=f"preset id, one of: {', '.join(sorted(FIGURE_PRESETS))}",
    )
    figure_p.add_argument("--out", type=Path, help="CSV output path (stdout if omitted)")

    verify_p = sub.add_parser(
        "verify", help="compare the closed forms against the matrix propagator"
    )
    verify_p.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")
    verify_p.add_argument(
        "--draws", type=int, default=200, help=f"random draws (default 200, at most {MAX_DRAWS})"
    )
    return parser


def _emit(table: Table, meta: dict, out: Path | None) -> None:
    csv_text = table.to_csv()
    if out is None:
        sys.stdout.write(csv_text)
        return
    out.write_text(csv_text)
    sidecar = Path(str(out) + ".meta.json")
    sidecar.write_text(meta_json(meta))


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        raw = args.config.read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {args.config} ({exc})")
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # bad JSON, an int of over 4,300 digits, or nesting deeper than the stack
        raise ConfigError(f"config: invalid JSON in {args.config} ({exc})")
    cfg = config_from_dict(data)
    _emit(run_sweep(cfg), sweep_meta(cfg), args.out)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    table = figure_table(args.id)
    _emit(table, figure_meta(args.id), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(args.seed, args.draws)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "figure":
            return _cmd_figure(args)
        return _cmd_verify(args)
    except (ValueError, OSError) as exc:
        # ConfigError and the library's other input errors are ValueErrors.
        print(f"ico-cqed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
