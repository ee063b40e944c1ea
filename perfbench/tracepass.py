"""Traced in-process pass over one `histrisk backtest` invocation.

Run by ``run.py --trace 1`` in a child interpreter:

    python3 perfbench/tracepass.py --spans FILE --seconds S --seed N -- <backtest args>

It calls ``histrisk.cli.main`` in-process, alternating untraced and traced
calls until ``--seconds`` have passed.  Traced calls wrap the public functions
of each module in spans (name, start, end, parent, run id) kept in memory and
written to ``--spans`` at the end.  Wrappers are installed on module
attributes only, so ``src/`` is untouched; a function the program no longer
looks up there simply records no span.  One more untraced call measures the
tracemalloc peak inside ``run_suite``, and the library ``var``/``tce`` are
timed per call on the ``tick_ties`` 20-day windows.  The last stdout line is a
JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable

import numpy as np

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def _rows(series: Any) -> dict[str, int]:
    return {"rows": len(series)}


def _suite_counts(report: Any) -> dict[str, int]:
    return {
        "skips": len(report.skips),
        "var_forecasts": sum(row.evaluation_days for row in report.var_rows),
        "tce_blocks": sum(row.blocks_total + row.blocks_undefined_prediction for row in report.tce_rows),
        "tce_blocks_undefined": sum(row.blocks_undefined_prediction for row in report.tce_rows),
    }


# (module, attribute looked up by the caller, span name, counts taken from the result)
PATCHES: tuple[tuple[str, str, str, Callable[[Any], dict[str, int]] | None], ...] = (
    ("histrisk.cli", "parse_prices", "ingestion.parse_prices", _rows),
    ("histrisk.cli", "parse_returns", "ingestion.parse_returns", _rows),
    ("histrisk.cli", "to_returns", "ingestion.to_returns", None),
    ("histrisk.cli", "run_suite", "backtest.run_suite", _suite_counts),
    ("histrisk.backtest", "var_backtest", "backtest.var_backtest", None),
    ("histrisk.backtest", "tce_backtest", "backtest.tce_backtest", None),
)


class Tracer:
    """In-memory span recorder; spans of one traced call share a run id."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.run = 0

    def wrap(self, name: str, fn: Callable, counts: Callable[[Any], dict[str, int]] | None = None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = {
                "id": len(self.spans),
                "name": name,
                "run": self.run,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span["counts"] = counts(result)
            return result

        return traced


@contextlib.contextmanager
def patched(replace: Callable[[str, Callable, Callable | None], Callable]):
    """Swap every PATCHES attribute for ``replace(span_name, original, counts)``."""
    saved = []
    try:
        for module_name, attr, name, counts in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, replace(name, original, counts))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def _peak_alloc(fn: Callable) -> tuple[Callable, list[float]]:
    peaks: list[float] = []

    def measured(*args: Any, **kwargs: Any) -> Any:
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    return measured, peaks


def _per_call_us(fn: Callable, windows: np.ndarray) -> float:
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for window in windows:
            fn(window)
        times.append((time.perf_counter() - t0) / len(windows) * 1e6)
    return statistics.median(times)


def measures_per_call(seed: int) -> tuple[float, float]:
    """Per-call µs of the library var and tce on the tick_ties 20-day windows."""
    from histrisk import QuantileConvention, tce, var

    text = next(iter(workloads.csv_texts("tick_ties", seed).values()))
    values = np.array([float(line.split(",")[1]) for line in text.splitlines()[1:]])
    windows = values[: values.size // 20 * 20].reshape(-1, 20)
    conv = QuantileConvention.SMALLEST
    var_us = _per_call_us(lambda w: var(w, 0.9, conv), windows)
    tce_us = _per_call_us(lambda w: tce(w, 0.9, conv, strict=False), windows)
    return var_us, tce_us


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_argv = ["backtest", *[a for a in args.argv if a != "--"]]

    import histrisk.cli

    if not Path(histrisk.cli.__file__).resolve().is_relative_to(SRC):
        print(f"histrisk imported from {histrisk.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 1

    def call(main_fn: Callable) -> tuple[float, int]:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = main_fn(cli_argv)
            return time.perf_counter() - t0, code

    # warm-up: first-call costs would otherwise land on the first untraced sample
    failures = int(call(histrisk.cli.main)[1] != 0)
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed, code = call(histrisk.cli.main)
        untraced.append(elapsed)
        failures += code != 0
        tracer.run += 1
        with patched(tracer.wrap):
            elapsed, code = call(tracer.wrap("cli.main", histrisk.cli.main))
        traced.append(elapsed)
        failures += code != 0
        pair = untraced[-1] + traced[-1]
        if time.perf_counter() - start + pair > args.seconds:
            break

    original_suite = histrisk.cli.run_suite
    measured, peaks = _peak_alloc(original_suite)
    histrisk.cli.run_suite = measured
    try:
        _, code = call(histrisk.cli.main)
    finally:
        histrisk.cli.run_suite = original_suite
    failures += code != 0

    var_us, tce_us = measures_per_call(args.seed)
    args.spans.parent.mkdir(parents=True, exist_ok=True)
    args.spans.write_text(json.dumps({"argv": cli_argv, "spans": tracer.spans}), encoding="utf-8")
    print(json.dumps({
        "calls": len(untraced) + len(traced) + 2,
        "failures": failures,
        "untraced_s": untraced,
        "traced_s": traced,
        "peak_alloc_mb": peaks[0] if peaks else 0.0,
        "var_us": var_us,
        "tce_us": tce_us,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
