"""Command-line interface: backtest reports, error regressions, axiom demo.

Exit codes: 0 success, 1 invalid input or usage, 2 internal error.  One
function, ``_report_files``, decides which four report files a backtest writes
and what each holds: three tables of a row per spec and a column per asset, and
``metadata.txt``.  All four are built in full and written to unique temp files
in the output directory before any is renamed over its target, so a run failing
before the renames (bad input, a directory at a target path, a failed write)
leaves the old files byte for byte and no temp file.  Each rename is atomic,
and runs sharing an output directory take turns: each holds an exclusive flock
on the directory from its first temp write to its last rename, so their renames
never interleave.  The set is still not atomic: a reader can see a mixed set
while the renames run.  Output is byte-deterministic: fixed cell formats,
sorted rows and columns, no timestamps.  The ``regress`` and ``axioms`` commands are
in ``commands``, which ``main`` loads only to run one of them.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from pathlib import Path
from typing import NoReturn, Sequence

from . import __version__
from .backtest import DEFAULT_GRID, RiskSpec, SuiteReport, run_suite
from .errors import InputError
from .ingestion import ReturnMethod, _read_panel
from .measures import QuantileConvention


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this CLI reserves 2 for
    # internal errors, so usage problems are rerouted to exit 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


def build_parser() -> _Parser:
    # a literal, not the module docstring: ``python -OO`` strips docstrings
    parser = _Parser(
        prog="histrisk", description="Command-line interface: backtest reports, error regressions, axiom demo."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bt = sub.add_parser("backtest", help="run the VaR/TCE backtest suite and write report tables")
    src = bt.add_mutually_exclusive_group(required=True)
    src.add_argument("--prices", nargs="+", metavar="PATH", help="price CSV files (date,price)")
    src.add_argument("--returns", nargs="+", metavar="PATH", help="return CSV files (date,return)")
    bt.add_argument("--method", choices=["simple", "log"], default="simple",
                    help="price-to-return conversion (default: simple)")
    bt.add_argument("--spec", action="append", metavar="N:ALPHA",
                    help="window length and level, e.g. 100:0.99; repeatable")
    bt.add_argument("--default-grid", action="store_true",
                    help="include the built-in 13-pair duration/level grid")
    bt.add_argument("--convention", choices=["largest", "smallest"], default="largest",
                    help="quantile convention backing the VaR (default: largest)")
    bt.add_argument("--violation", choices=["strict", "nonstrict"], default="strict",
                    help="violation event: return < -VaR (strict) or <= (default: strict)")
    bt.add_argument("--format", choices=["csv", "md"], default="csv",
                    help="table format (default: csv)")
    bt.add_argument("--out", default=".", metavar="DIR", help="output directory (default: .)")

    rg = sub.add_parser("regress", help="regress backtest errors on duration and level")
    rg.add_argument("table", metavar="TABLE", help="error table written by the backtest command")
    rg.add_argument("--assets", action="append", metavar="NAME[,NAME...]",
                    help="restrict to these asset columns; repeatable")

    sub.add_parser("axioms", help="print worked examples of the VaR/TCE axiom checks")
    return parser


def _parse_spec_flag(raw: str) -> tuple[int, float]:
    parts = raw.split(":")
    if len(parts) == 2:
        try:
            return int(parts[0]), float(parts[1])
        except ValueError:
            pass
    raise InputError(f"invalid --spec {raw!r}: expected N:ALPHA, e.g. 100:0.99")


def _build_specs(args: argparse.Namespace) -> list[RiskSpec]:
    conv = QuantileConvention(args.convention)
    strict = args.violation == "strict"
    pairs: list[tuple[int, float]] = []
    if args.spec:
        pairs.extend(_parse_spec_flag(raw) for raw in args.spec)
    if args.default_grid or not args.spec:
        pairs.extend(DEFAULT_GRID)
    return [RiskSpec(n, alpha, conv, strict) for n, alpha in pairs]


def _render_csv(grid: Sequence[Sequence[str]]) -> str:
    import csv  # imported here: only CSV output needs the writer

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(grid)
    return buf.getvalue()


def _render_md(grid: Sequence[Sequence[str]]) -> str:
    # a pipe inside a cell is written \|, GFM's escape for it, so it does not split the cell
    lines = ["| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |" for row in grid]
    lines.insert(1, "|" + "|".join(["---"] * len(grid[0])) + "|")
    return "\n".join(lines) + "\n"


def _write_all(out_dir: Path, files: dict[str, str]) -> None:
    """Write every file to a unique temp file in out_dir, then rename the temps over the targets.

    An exclusive flock on out_dir itself, held from the first temp write to the
    last rename, makes runs sharing out_dir take turns, and adds no file to it.
    """
    # imported here: only a backtest writes files
    import fcntl

    lock = os.open(out_dir, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for name in files:
            if (out_dir / name).is_dir():
                raise IsADirectoryError(f"cannot write {out_dir / name}: it is a directory")
        temps: list[Path] = []
        try:
            for name, content in files.items():
                # exclusive create honours the umask, unlike tempfile.mkstemp's 0600
                tmp = out_dir / f".{name}.{os.urandom(8).hex()}.tmp"
                with open(tmp, "x", encoding="utf-8", newline="") as handle:
                    temps.append(tmp)
                    handle.write(content)
            for tmp, name in zip(temps, files):
                os.replace(tmp, out_dir / name)
        finally:
            for tmp in temps:
                tmp.unlink(missing_ok=True)
    finally:
        os.close(lock)  # and with it the lock


def _input_names(paths: Sequence[Path]) -> str:
    """The file names of ``paths``, sorted and shell-quoted: the metadata's ``inputs``."""
    import shlex  # imported here, as in _report_files

    return " ".join(map(shlex.quote, sorted(path.name for path in paths)))


def _report_files(report: SuiteReport, args: argparse.Namespace, inputs: str) -> dict[str, str]:
    """The four report files of a backtest whose ``_input_names`` are ``inputs``, keyed by file name.

    Each table is a grid of a header row, then a row per spec and a column per asset, and each report row
    fills the cell at its positions; a pair with no row reads ``skipped``.  Each spec label and asset id is
    formatted once.  ``run_suite``'s rows hold the very specs of ``report.specs``, so a row's spec is looked
    up by identity: a RiskSpec's generated hash costs about 2 us, more than the rest of a cell.
    """
    # imported here: at module load, shlex raised the peak RSS of a 10 x 5,000
    # return backtest by 0.15-0.29 MB (2-CPU x86 host, five checkout paths)
    import shlex

    labels = [spec.label() for spec in report.specs]
    # row 0 and column 0 of a grid hold the header and the labels, so the positions count from 1
    position = {id(spec): j for j, spec in enumerate(report.specs, 1)}
    column = {asset: i for i, asset in enumerate(report.asset_ids, 1)}
    grids = {
        name: [["spec", *report.asset_ids], *([label] + ["skipped"] * len(column) for label in labels)]
        for name in ("tce_nonexistence", "var_errors", "tce_errors")
    }
    for row in report.var_rows:
        grids["var_errors"][position[id(row.spec)]][column[row.asset_id]] = f"{row.relative_error + 0.0:+.6f}"
    for row in report.tce_rows:
        j, i = position[id(row.spec)], column[row.asset_id]
        grids["tce_nonexistence"][j][i] = f"{row.nonexistence_rate + 0.0:.6f}"
        grids["tce_errors"][j][i] = "NA" if row.mean_error is None else f"{row.mean_error + 0.0:+.6f}"
    render = _render_csv if args.format == "csv" else _render_md
    files = {f"{name}.{args.format}": render(grid) for name, grid in grids.items()}

    first = report.specs[0]
    quoted = {asset: shlex.quote(asset) for asset in report.asset_ids}
    lines = [
        f"tool = histrisk {__version__}",
        "command = backtest",
        f"convention = {first.conv.value}",
        f"violation = {'strict' if first.strict_violation else 'nonstrict'}",
        f"return_method = {args.method if args.prices else 'precomputed'}",
        f"format = {args.format}",
        "assets = " + " ".join(quoted.values()),
        f"inputs = {inputs}",
        "specs = " + " ".join(labels),
    ]
    lines += [
        f"skipped = {quoted[skip.asset_id]} {labels[position[id(skip.spec)] - 1]} {skip.kind}: {skip.reason}"
        for skip in report.skips
    ]
    files["metadata.txt"] = "\n".join(lines) + "\n"
    return files


def _shown(path: Path) -> str:
    """``path`` as text, each byte of it that is not UTF-8 shown as ``\\xff``, so a stdout with strict errors prints it."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def _cmd_backtest(args: argparse.Namespace) -> int:
    specs = _build_specs(args)
    # one Path per input: the name check, the reader and the metadata's input names share it
    paths = [Path(path) for path in args.prices or args.returns]
    for path in paths:
        # the UTF-8 report files hold each file's name (metadata) and stem (asset id)
        try:
            path.name.encode("utf-8")
        except UnicodeEncodeError:
            raise InputError(f"{_shown(path)}: file name is not valid UTF-8") from None
    # the reader holds the Paths to its last read; only the names' one line outlives it (with every series
    # read first, the 1,000 Paths alive through run_suite raised universe_screen's peak RSS by 0.2-0.4 MB,
    # and a list of their names by 0.08-0.12 MB)
    inputs = _input_names(paths)
    report = run_suite(_read_panel(paths, ReturnMethod(args.method) if args.prices else None), specs)
    del paths

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = _report_files(report, args, inputs)
    _write_all(out_dir, files)
    for name in files:
        print(f"wrote {_shown(out_dir / name)}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "backtest":
            return _cmd_backtest(args)
        from .commands import _cmd_axioms, _cmd_regress  # imported here: a backtest runs neither

        return _cmd_regress(args) if args.command == "regress" else _cmd_axioms(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps everything else to 2
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """The program entry: exit with ``main``'s code on the process's arguments.

    ``gc.freeze()`` first moves every live object out of the collector's reach,
    so interpreter shutdown skips its cyclic sweep over the heap that NumPy and
    histrisk build at import: the exit after a backtest of 10 x 5,000 returns
    fell from 31 to 8 ms on a 2-CPU x86 host.  Shutdown still runs atexit
    handlers and flushes stdio, and reference counts still free every object.
    ``main`` itself freezes nothing, since in-process callers run it many times
    and would pin their cyclic garbage.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
