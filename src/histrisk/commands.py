"""The ``regress`` and ``axioms`` commands, loaded by ``cli.main`` only to run one of them.

A ``backtest`` runs neither, so it compiles none of this module and loads neither ``stats`` nor ``axioms``.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from .axioms import DiscreteDistribution, axiom_report, convolve_independent, tce_discrete, var_discrete
from .backtest import parse_label
from .errors import InputError, _reject_repeats
from .ingestion import _csv_records, _read_text
from .stats import RegressionSummary, ols2


def _read_error_table(table: str, asset_flags: list[str] | None) -> dict[str, list[tuple[float, float, float]]]:
    """The ``(error, duration, level)`` rows of each selected asset column of an error table, in table order."""
    path = Path(table)
    records = _csv_records(_read_text(path), str(path))
    _, header = next(records, (None, None))
    if header is None:
        raise InputError(f"{path}: error table is empty")
    if header and header[0].startswith("|"):
        raise InputError(f"{path}: error table is Markdown; regress reads the CSV tables of 'backtest --format csv'")
    if len(header) < 2:
        raise InputError(f"{path}: error table must have a spec column and at least one asset column")
    assets = [cell.strip() for cell in header[1:]]
    try:
        _reject_repeats(assets, "asset columns")
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    selected = assets
    if asset_flags:
        selected = list(dict.fromkeys(name for raw in asset_flags for name in raw.split(",") if name))
        unknown = [name for name in selected if name not in assets]
        if unknown:
            raise InputError(f"unknown asset columns: {', '.join(sorted(unknown))}")
        if not selected:
            raise InputError("--assets names no asset column")
    columns = {name: assets.index(name) + 1 for name in selected}
    per_asset: dict[str, list[tuple[float, float, float]]] = {name: [] for name in selected}
    line = 1
    for line, cells in records:
        try:
            duration, level = parse_label(cells[0].strip())
        except InputError as exc:
            raise InputError(f"{path}: line {line}: {exc}") from None
        for name, column in columns.items():
            token = cells[column].strip()
            if token in ("skipped", "NA", ""):
                continue
            try:
                error = float(token)
            except ValueError:
                raise InputError(f"{path}: line {line}: unparseable cell {token!r} in column {name!r}") from None
            per_asset[name].append((error, float(duration), level))
    if line == 1:  # the header's line: no record followed it
        raise InputError(f"{path}: error table has no data rows")
    return per_asset


def _print_regression_block(name: str, rows: int, summary: RegressionSummary) -> None:
    print(f"[{name}] rows={rows}")
    print(f"  intercept     = {summary.intercept:+.6f}")
    print(f"  coef_duration = {summary.coef_duration:+.6f}")
    print(f"  coef_level    = {summary.coef_level:+.6f}")
    print(f"  multiple_r    = {summary.multiple_r:.6f}")
    print(f"  p_duration    = {summary.p_duration:.6f}")
    print(f"  p_level       = {summary.p_level:.6f}")
    print(f"  residual_df   = {summary.residual_df}")


def _cmd_regress(args: argparse.Namespace) -> int:
    """Fit every selected column, and the pooled rows of two or more, before printing any block."""
    per_asset = _read_error_table(args.table, args.assets)
    blocks = [(f"column {name!r}", name, rows) for name, rows in per_asset.items()]
    if len(per_asset) > 1:
        names = ",".join(per_asset)
        pooled = [row for rows in per_asset.values() for row in rows]
        blocks.append((f"pooled columns {names!r}", f"pooled: {names}", pooled))
    fits = []
    for what, name, rows in blocks:
        try:
            fits.append((name, len(rows), ols2(rows)))
        except InputError as exc:
            raise type(exc)(f"{what}: {exc}") from None
    for fit in fits:
        _print_regression_block(*fit)
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
