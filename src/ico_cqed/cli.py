"""Command-line front end.

Subcommands: ``sweep`` runs a JSON-configured sweep, ``figure`` emits the
data behind a packaged preset, ``verify`` runs the randomized closed-form
versus matrix-propagator comparison.  Exit codes: 0 success, 1 usage error,
2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
    verification failures, so usage errors are remapped to status 1.  A
    refusal is one stderr line, as a library refusal is: no usage line."""

    def error(self, message: str):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@functools.cache
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
    sweep_p.set_defaults(run=_cmd_sweep)

    figure_p = sub.add_parser("figure", help="emit the data behind one packaged preset")
    figure_p.add_argument(
        "id",
        metavar="ID",
        help=f"preset id, one of: {', '.join(sorted(FIGURE_PRESETS))}",
    )
    figure_p.set_defaults(run=_cmd_figure)
    for command in (sweep_p, figure_p):
        command.add_argument("--out", type=Path, help="CSV output path (stdout if omitted); "
                             "a <out>.meta.json sidecar with the resolved config is written "
                             "next to it, but none for an open stream (/dev/stdout, say)")

    verify_p = sub.add_parser(
        "verify", help="compare the closed forms against the matrix propagator"
    )
    verify_p.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")
    verify_p.add_argument(
        "--draws", type=int, default=200, help=f"random draws (default 200, at most {MAX_DRAWS})"
    )
    verify_p.set_defaults(run=_cmd_verify)
    return parser


def _open_file(path: Path, links: int = 40) -> bool:
    """Whether path, or a link it runs through (40 at most), is /proc/<pid>/fd/N or /dev/fd/N."""
    link = Path(os.path.realpath(path.parent), path.name)
    if link.parent.name == "fd" and str(link).startswith(("/proc/", "/dev/")):
        return True
    return links > 0 and link.is_symlink() and _open_file(link.parent / link.readlink(), links - 1)


def _emit(table: Table, meta: dict, out: Path | None) -> None:
    csv_text = table.to_csv()
    if out is None:
        sys.stdout.write(csv_text)
        return
    # An open stream (--out /dev/stdout, say) is appended to, as by >>, with no sidecar,
    # and a path that exists but is no regular file (a FIFO, a device) is written into:
    # neither is truncated, replaced or removed.  Any other file goes first to a sibling
    # of its real path named by the process id (no one else's file), and into place once
    # all are written: a failed write keeps an earlier run's pair, and a link stays a link.
    stream = _open_file(out)
    files = {out: csv_text, **({} if stream else {Path(f"{out}.meta.json"): meta_json(meta)})}
    moves, placed = [], []
    try:
        for path, text in files.items():
            if stream or not path.is_file() and path.exists():
                with open(path, "a") as file:
                    file.write(text)
                continue
            real = Path(os.path.realpath(path)) if path.is_symlink() else path
            temp = Path(f"{real}.{os.getpid()}.tmp")
            moves.append((path, temp, real))
            temp.write_text(text)
        for path, temp, real in moves:
            os.replace(temp, real)
            placed.append(real)
    except OSError as exc:
        # a CSV already moved goes too: no CSV is left without its sidecar
        for leftover in [*(temp for _, temp, _ in moves), *placed]:
            leftover.unlink(missing_ok=True)
        raise ConfigError(f"out: cannot write {path} ({exc})")


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
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        # ConfigError and the library's other input errors are ValueErrors.
        print(f"ico-cqed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
