"""Independent expected results for the `histrisk backtest` output tables.

The counts are recomputed here without calling histrisk: every trailing
window is sorted with ``sliding_window_view`` and the order statistic is
picked with exact decimal arithmetic (``fractions.Fraction``) instead of the
program's float snapping.  ``run.py`` then requires the ``var_errors`` and
``tce_nonexistence`` cells to match exactly, the ``tce_errors`` cells to agree
on which are ``skipped`` or ``NA``, and ``metadata.txt`` to list the same
number of skipped pairs.

    python3 perfbench/oracle.py WORKLOAD SEED DIR

writes the workload's inputs to ``DIR/inputs`` and the expected cells to
``DIR/expected.json``, and prints the backtest arguments as JSON.  It runs in
its own process so that the benchmark process, which spawns the measured
children, stays small: a child's peak RSS as reported by ``wait4`` starts at
its parent's resident size.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import workloads


def order_index(n: int, alpha: float, convention: str) -> int:
    """0-based order statistic behind the VaR of an n-day window."""
    t = (1 - Fraction(str(alpha))) * n
    k = math.floor(t) + 1 if convention == "largest" else max(math.ceil(t), 1)
    return min(max(k, 1), n) - 1


def read_returns(path: Path, kind: str, method: str) -> np.ndarray:
    """Values of a two-column input CSV, converted to returns for price files."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    values = np.array([float(line.split(",")[1]) for line in lines])
    if kind == "returns":
        return values
    ratios = values[1:] / values[:-1]
    return np.log(ratios) if method == "log" else ratios - 1.0


def expected_cells(
    returns: dict[str, np.ndarray],
    specs: tuple[tuple[int, float], ...],
    convention: str,
    strict: bool,
) -> dict:
    """Expected cells as ``{table: {spec label: {asset: cell}}}`` plus assets, labels and skips.

    ``tce_errors`` cells hold only the kind of cell: ``skipped``, ``NA`` or ``value``.
    """
    specs = tuple(sorted(dict.fromkeys(specs)))
    labels = [f"{n},{alpha * 100:g}%" for n, alpha in specs]
    tables = {t: {lab: {} for lab in labels} for t in ("var_errors", "tce_nonexistence", "tce_errors")}
    skips = 0
    for asset in sorted(returns):
        r = returns[asset]
        size = r.size
        for n in sorted({n for n, _ in specs}):
            ordered = np.sort(sliding_window_view(r, n), axis=1) if size >= n else None
            starts = np.arange(n, size - n + 1, n)
            blocks = np.stack([r[s:s + n] for s in starts]) if starts.size else None
            for (m, alpha), lab in zip(specs, labels):
                if m != n:
                    continue
                k = order_index(n, alpha, convention)
                tail = 1.0 - alpha
                if size > n:
                    q = ordered[: size - n, k]
                    realized = r[n:]
                    hits = realized < q if strict else realized <= q
                    rel = (int(hits.sum()) / realized.size - tail) / tail
                    tables["var_errors"][lab][asset] = f"{rel + 0.0:+.6f}"
                else:
                    tables["var_errors"][lab][asset] = "skipped"
                    skips += 1
                evaluated = nonexistent = 0
                if starts.size:
                    windows = ordered[starts - n]
                    q = windows[:, k]
                    # strict conditioning has no predicted tail when nothing lies below q
                    defined = windows[:, 0] < q if strict else np.ones(q.size, dtype=bool)
                    hit = blocks < q[:, None] if strict else blocks <= q[:, None]
                    evaluated = int(defined.sum())
                    nonexistent = int((defined & ~hit.any(axis=1)).sum())
                if evaluated:
                    tables["tce_nonexistence"][lab][asset] = f"{nonexistent / evaluated + 0.0:.6f}"
                    tables["tce_errors"][lab][asset] = "NA" if nonexistent == evaluated else "value"
                else:
                    tables["tce_nonexistence"][lab][asset] = "skipped"
                    tables["tce_errors"][lab][asset] = "skipped"
                    skips += 1
    return {"assets": sorted(returns), "labels": labels, "tables": tables, "skips": skips}


def prepare(name: str, seed: int, directory: Path) -> dict:
    """Generate a workload's inputs and expected cells; return what the benchmark needs to run it."""
    w = workloads.WORKLOADS[name]
    cli_args = workloads.generate(name, seed, directory / "inputs")
    returns = {p.stem: read_returns(p, w.kind, w.method) for p in sorted((directory / "inputs").glob("*.csv"))}
    expected = expected_cells(returns, w.specs, w.convention, w.violation == "strict")
    (directory / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    return {"cli_args": cli_args, "table_format": w.table_format, "numpy": np.__version__}


if __name__ == "__main__":
    print(json.dumps(prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))))
