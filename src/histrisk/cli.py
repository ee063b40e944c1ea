"""Command-line interface: backtest reports, error regressions, axiom demo.

Exit codes: 0 success, 1 invalid input or usage, 2 internal error.  All four
report files are rendered and written to unique temp files in the output
directory before any is renamed over its target, so a run failing before the
renames (bad input, a directory at a target path, a failed write) leaves the
old files byte for byte and no temp file.  Each rename is atomic, the set is
not: runs sharing an output directory can interleave their renames.  Output is
byte-deterministic: fixed cell formats, sorted rows and columns, no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .backtest import DEFAULT_GRID, ReturnSeries, RiskSpec, SuiteReport, parse_label, run_suite
from .errors import InputError
from .ingestion import ReturnMethod, parse_prices, parse_returns, to_returns
from .measures import (
    DiscreteDistribution,
    QuantileConvention,
    axiom_report,
    convolve_independent,
    tce_discrete,
    var_discrete,
)
from .stats import ols2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this CLI reserves 2 for
    # internal errors, so usage problems are rerouted to exit 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="histrisk", description=__doc__.splitlines()[0])
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


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise InputError(f"{path}: line {line}: {exc}") from None


def _load_series(args: argparse.Namespace) -> list[ReturnSeries]:
    method = ReturnMethod(args.method)
    out: list[ReturnSeries] = []
    for path in map(Path, args.prices or args.returns):
        text = _read_text(path)
        if args.prices:
            out.append(to_returns(parse_prices(text, path.stem), method))
        else:
            out.append(parse_returns(text, path.stem))
    return out


def _fmt_rate(value: float) -> str:
    return f"{value + 0.0:.6f}"


def _fmt_error(value: float) -> str:
    return f"{value + 0.0:+.6f}"


def _render_csv(corner: str, columns: Sequence[str], rows: Sequence[tuple[str, Sequence[str]]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([corner, *columns])
    for label, cells in rows:
        writer.writerow([label, *cells])
    return buf.getvalue()


def _render_md(corner: str, columns: Sequence[str], rows: Sequence[tuple[str, Sequence[str]]]) -> str:
    lines = [
        "| " + " | ".join([corner, *columns]) + " |",
        "|" + "|".join(["---"] * (len(columns) + 1)) + "|",
    ]
    for label, cells in rows:
        lines.append("| " + " | ".join([label, *cells]) + " |")
    return "\n".join(lines) + "\n"


def _write_all(out_dir: Path, files: dict[str, str]) -> None:
    """Write every file to a unique temp file in out_dir, then rename the temps over the targets."""
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


def _render_tables(report: SuiteReport) -> dict[str, list[tuple[str, list[str]]]]:
    """Cell grids for the three tables, keyed by table basename; a pair with no row reads ``skipped``."""
    cells = {
        "tce_nonexistence": {(r.asset_id, r.spec): _fmt_rate(r.nonexistence_rate) for r in report.tce_rows},
        "var_errors": {(r.asset_id, r.spec): _fmt_error(r.relative_error) for r in report.var_rows},
        "tce_errors": {
            (r.asset_id, r.spec): "NA" if r.mean_error is None else _fmt_error(r.mean_error)
            for r in report.tce_rows
        },
    }
    return {
        name: [(spec.label(), [grid.get((asset, spec), "skipped") for asset in report.asset_ids])
               for spec in report.specs]
        for name, grid in cells.items()
    }


def _render_metadata(report: SuiteReport, args: argparse.Namespace) -> str:
    first = report.specs[0]
    lines = [
        f"tool = histrisk {__version__}",
        "command = backtest",
        f"convention = {first.conv.value}",
        f"violation = {'strict' if first.strict_violation else 'nonstrict'}",
        f"return_method = {args.method if args.prices else 'precomputed'}",
        f"format = {args.format}",
        "assets = " + " ".join(report.asset_ids),
        "inputs = " + " ".join(sorted(Path(p).name for p in (args.prices or args.returns))),
        "specs = " + " ".join(spec.label() for spec in report.specs),
    ]
    for skip in report.skips:
        lines.append(f"skipped = {skip.asset_id} {skip.spec.label()} {skip.kind}: {skip.reason}")
    return "\n".join(lines) + "\n"


def _cmd_backtest(args: argparse.Namespace) -> int:
    specs = _build_specs(args)
    series = _load_series(args)
    report = run_suite(series, specs)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    render = _render_csv if args.format == "csv" else _render_md
    tables = _render_tables(report)
    files = {f"{name}.{args.format}": render("spec", report.asset_ids, rows) for name, rows in tables.items()}
    files["metadata.txt"] = _render_metadata(report, args)
    _write_all(out_dir, files)
    for name in files:
        print(f"wrote {out_dir / name}")
    return 0


def _parse_error_table(text: str) -> tuple[list[str], list[tuple[int, float, list[str]]]]:
    """Read an error table: asset column names plus (duration, level, cells) rows."""
    reader = csv.reader(io.StringIO(text.lstrip("\ufeff")))
    header = next(reader, None)
    if header is None:
        raise InputError("error table is empty")
    if header and header[0].startswith("|"):
        raise InputError("error table is Markdown; regress reads the CSV tables of 'backtest --format csv'")
    if len(header) < 2:
        raise InputError("error table must have a spec column and at least one asset column")
    assets = [cell.strip() for cell in header[1:]]
    repeated = sorted({name for name in assets if assets.count(name) > 1})
    if repeated:
        raise InputError(f"duplicate asset columns: {', '.join(repeated)}")
    rows: list[tuple[int, float, list[str]]] = []
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise InputError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
        try:
            duration, level = parse_label(row[0].strip())
        except InputError as exc:
            raise InputError(f"line {line_no}: {exc}") from None
        rows.append((duration, level, [cell.strip() for cell in row[1:]]))
    if not rows:
        raise InputError("error table has no data rows")
    return assets, rows


def _collect_regression_rows(
    assets: list[str],
    rows: list[tuple[int, float, list[str]]],
    selected: list[str],
) -> dict[str, list[tuple[float, float, float]]]:
    index = {name: i for i, name in enumerate(assets)}
    out: dict[str, list[tuple[float, float, float]]] = {name: [] for name in selected}
    for duration, level, cells in rows:
        for name in selected:
            token = cells[index[name]]
            if token in ("skipped", "NA", ""):
                continue
            try:
                error = float(token)
            except ValueError:
                raise InputError(f"unparseable cell {token!r} in column {name!r}") from None
            out[name].append((error, float(duration), level))
    return out


def _print_regression_block(name: str, rows: list[tuple[float, float, float]]) -> None:
    summary = ols2(rows)
    print(f"[{name}] rows={len(rows)}")
    print(f"  intercept     = {summary.intercept:+.6f}")
    print(f"  coef_duration = {summary.coef_duration:+.6f}")
    print(f"  coef_level    = {summary.coef_level:+.6f}")
    print(f"  multiple_r    = {summary.multiple_r:.6f}")
    print(f"  p_duration    = {summary.p_duration:.6f}")
    print(f"  p_level       = {summary.p_level:.6f}")
    print(f"  residual_df   = {summary.residual_df}")


def _cmd_regress(args: argparse.Namespace) -> int:
    assets, rows = _parse_error_table(_read_text(Path(args.table)))
    if args.assets:
        selected = list(dict.fromkeys(name for raw in args.assets for name in raw.split(",") if name))
        unknown = [name for name in selected if name not in assets]
        if unknown:
            raise InputError(f"unknown asset columns: {', '.join(sorted(unknown))}")
    else:
        selected = assets
    per_asset = _collect_regression_rows(assets, rows, selected)
    for name in selected:
        _print_regression_block(name, per_asset[name])
    if len(selected) > 1:
        pooled = [row for name in selected for row in per_asset[name]]
        _print_regression_block("pooled: " + ",".join(selected), pooled)
    return 0


def _cmd_axioms(args: argparse.Namespace) -> int:
    level = 0.95

    two_outcome = DiscreteDistribution([2.0, -1.0], [0.95, 0.05])
    heavy_tail = DiscreteDistribution([2.0, -1.0, -1000.0], [0.95, 0.01, 0.04])
    print("two positions with the same 95% VaR but very different tails")
    print("(values in millions; negative = loss):")
    print(f"  VaR(two-outcome)  = {var_discrete(two_outcome, level):.6f}")
    print(f"  TCE(two-outcome)  = {tce_discrete(two_outcome, level):.6f}")
    print(f"  VaR(heavy-tail)   = {var_discrete(heavy_tail, level):.6f}")
    print(f"  TCE(heavy-tail)   = {tce_discrete(heavy_tail, level):.6f}")
    print()

    small_loan = DiscreteDistribution([0.0, -1.0], [0.96, 0.04])
    concentrated = DiscreteDistribution([0.0, -2.0], [0.96, 0.04])
    diversified = convolve_independent(small_loan, small_loan)
    var_div = var_discrete(diversified, level)
    var_conc = var_discrete(concentrated, level)
    var_single = var_discrete(small_loan, level)
    print("diversification counterexample: two independent 1.0 loans vs one 2.0 loan,")
    print("each defaulting with probability 0.04:")
    print(f"  VaR(diversified) = {var_div:.6f}")
    print(f"  VaR(concentrated) = {var_conc:.6f}")
    print(f"  TCE(diversified) = {tce_discrete(diversified, level):.6f}")
    print(f"  TCE(concentrated) = {tce_discrete(concentrated, level):.6f}")
    subadditive = var_div <= var_single + var_single
    print(f"  VaR subadditive on the diversified portfolio: {'true' if subadditive else 'false'}")
    print()

    demo = [-0.03, -0.02, -0.01, 0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06]
    flags = axiom_report(demo, 0.9, shift=0.01, scale=2.0)
    print("empirical axiom checks on a 10-day sample (shift 0.01, scale 2.0, level 0.9):")
    print(f"  translation invariance: {'true' if flags.translation_invariant else 'false'}")
    print(f"  positive homogeneity: {'true' if flags.positively_homogeneous else 'false'}")
    print(f"  monotone in level: {'true' if flags.monotone_in_level else 'false'}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "backtest":
            return _cmd_backtest(args)
        if args.command == "regress":
            return _cmd_regress(args)
        return _cmd_axioms(args)
    except (_UsageError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps everything else to 2
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
