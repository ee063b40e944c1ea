"""End-to-end and per-layer benchmark of `histrisk backtest`.

    python3 perfbench/run.py --workload grid_panel --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is taken from ``src/``
(pure Python, nothing to build).  Inputs are generated from ``--seed`` into
``.perfbench_work/`` and removed afterwards.  The load is a closed loop: one
``python -m histrisk backtest`` child at a time, the next spawned when the
previous one exits, until ``--seconds`` have been measured.

``--trace 0`` reports the end-to-end metrics (tracing off): median child wall
time, median interpreter + ``import histrisk.cli`` start-up time, and median
peak RSS of the child.  Each loop iteration runs one start-up child, then one
backtest child.  Both times are rescaled to a fixed host speed: on a shared
host the speed of one CPU drifts by up to half over minutes, far more than any
bound a regression check could use.  So a fixed pure-Python loop is timed
between iterations, and the times of each iteration are multiplied by
``REF_NOMINAL_S`` over the mean of the loop times just before and after it.
The raw medians are printed alongside.  The benchmark pins itself and its
children to one CPU so that the loop and the measured children share it.  ``--trace 1`` reports the per-layer metrics from the
traced in-process pass in ``tracepass.py``; its spans are kept in
``.perfbench_work/spans/``.

Every backtest output is checked against counts recomputed independently in
``oracle.py``; at the default seed the SHA-256 digests of all four output
files must also match ``digests.json``.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
STARTUP_REPS = 11
MIN_CALLS = 3
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_CLI = "import histrisk.cli"
REF_LOOPS = 3_000_000
REF_NOMINAL_S = 0.25  # the reference loop on an idle 2-CPU Xeon host, Python 3.11

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "startup.interpreter_s": "s",
    "startup.import_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "ingestion.parse_s": "s",
    "ingestion.to_returns_s": "s",
    "ingestion.calls": "count",
    "ingestion.rows": "count",
    "ingestion.us_per_row": "us",
    "backtest.var_s": "s",
    "backtest.var_calls": "count",
    "backtest.var_forecasts": "count",
    "backtest.var_ns_per_forecast": "ns",
    "backtest.tce_s": "s",
    "backtest.tce_calls": "count",
    "backtest.tce_blocks": "count",
    "backtest.tce_blocks_undefined": "count",
    "backtest.tce_us_per_block": "us",
    "backtest.suite_self_s": "s",
    "backtest.skips": "count",
    "backtest.peak_alloc_mb": "MB",
    "measures.var_us": "us",
    "measures.tce_us": "us",
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(argv: list[str], stderr_path: Path | None = None) -> tuple[int, float, float]:
    """Run a child to completion; return (exit code, wall seconds, peak RSS in MB)."""
    with open(stderr_path or os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def environment(workload: str, seed: int, numpy_version: str) -> dict[str, object]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "child_env": {var: "1" for var in THREAD_VARS},
    }


def parse_table(text: str, table_format: str) -> tuple[list[str], dict[str, list[str]]]:
    """Column names and rows (label -> cells) of a CSV or Markdown table."""
    if table_format == "csv":
        rows = list(csv.reader(io.StringIO(text)))
    else:
        lines = [line for line in text.splitlines() if not line.startswith("|---")]
        rows = [[cell.strip() for cell in line.strip().strip("|").split("|")] for line in lines]
    rows = [row for row in rows if row]
    if not rows:
        return [], {}
    return rows[0][1:], {row[0]: row[1:] for row in rows[1:]}


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file in ``out_dir``, keyed by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir()) if p.is_file()}


class Checker:
    """Compares one backtest output directory with the independently computed expectations."""

    def __init__(self, expected: dict, table_format: str, pinned: dict[str, str] | None) -> None:
        self.expected = expected
        self.table_format = table_format
        self.pinned = pinned

    def errors(self, out_dir: Path) -> list[str]:
        """Every mismatch found in ``out_dir``; empty when the output is correct."""
        exp = self.expected
        ext = "csv" if self.table_format == "csv" else "md"
        errors: list[str] = []
        for table, want_cells in exp["tables"].items():
            path = out_dir / f"{table}.{ext}"
            if not path.is_file():
                errors.append(f"missing {path.name}")
                continue
            assets, rows = parse_table(path.read_text(encoding="utf-8"), self.table_format)
            shape_ok = all(len(cells) == len(assets) for cells in rows.values())
            if assets != exp["assets"] or list(rows) != exp["labels"] or not shape_ok:
                errors.append(f"{path.name}: rows or columns differ from the expected specs and assets")
                continue
            for label, cells in rows.items():
                for asset, cell in zip(assets, cells):
                    if table == "tce_errors" and cell not in ("skipped", "NA"):
                        cell = "value"
                    if cell != want_cells[label][asset]:
                        errors.append(f"{path.name} {label} {asset}: got {cell}, expected {want_cells[label][asset]}")
        meta = out_dir / "metadata.txt"
        if not meta.is_file():
            errors.append("missing metadata.txt")
        else:
            skips = sum(line.startswith("skipped = ") for line in meta.read_text(encoding="utf-8").splitlines())
            if skips != exp["skips"]:
                errors.append(f"metadata.txt lists {skips} skipped pairs, expected {exp['skips']}")
        if self.pinned is not None and digests(out_dir) != self.pinned:
            errors.append(f"output digests differ from digests.json at seed {DEFAULT_SEED}")
        return errors


def prepare(workload: str, seed: int, work: Path) -> tuple[list[str], Checker, str]:
    """Generate inputs and expectations in a child process, outside any timing."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "oracle.py"), workload, str(seed), str(work)],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed: {proc.stderr.strip()}")
    info = json.loads(proc.stdout.splitlines()[-1])
    expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))
    pinned = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))[workload] if seed == DEFAULT_SEED else None
    return info["cli_args"], Checker(expected, info["table_format"], pinned), info["numpy"]


def report_errors(errors: list[str]) -> None:
    for line in errors[:10]:
        print(f"check failed: {line}", file=sys.stderr)


def reference_s() -> float:
    """Time of a fixed pure-Python loop: a probe of the host's current speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_LOOPS):
        total += i * i
    return time.perf_counter() - t0


def median_startup(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``, after one warm-up."""
    py = sys.executable
    spawn([py, "-c", code])  # fills the bytecode cache
    return statistics.median(spawn([py, "-c", code])[1] for _ in range(STARTUP_REPS))


def end_to_end(cli_args: list[str], checker: Checker, work: Path, seconds: float) -> tuple[dict, int, int]:
    py = sys.executable
    spawn([py, "-c", IMPORT_CLI])  # fills the bytecode cache
    out = work / "out"
    refs = [reference_s()]
    raw: dict[str, list[float]] = {"setup_s": [], "wall_s": []}
    scaled: dict[str, list[float]] = {"setup_s": [], "wall_s": []}
    peaks: list[float] = []
    failed = 0
    start = time.perf_counter()
    while True:
        setup = spawn([py, "-c", IMPORT_CLI])[1]
        shutil.rmtree(out, ignore_errors=True)
        code, wall, peak = spawn([py, "-m", "histrisk", "backtest", *cli_args, "--out", str(out)],
                                 stderr_path=work / "stderr.txt")
        refs.append(reference_s())
        scale = REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2)
        for name, value in (("setup_s", setup), ("wall_s", wall)):
            raw[name].append(value)
            scaled[name].append(value * scale)
        peaks.append(peak)
        errors = [f"exit code {code}: " + (work / "stderr.txt").read_text()] if code else checker.errors(out)
        if errors:
            failed += 1
            report_errors(errors)
        elapsed = time.perf_counter() - start
        if len(peaks) >= MIN_CALLS and elapsed + elapsed / len(peaks) > seconds:
            break
    print("raw medians: " + ", ".join(f"{name} = {statistics.median(v):.6g} s" for name, v in raw.items())
          + f", reference loop = {statistics.median(refs):.6g} s")
    metrics = {name: statistics.median(v) for name, v in scaled.items()}
    metrics["peak_rss_mb"] = statistics.median(peaks)
    return metrics, len(peaks), failed


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it covered by its children."""
    covered = 0.0
    reach = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(child["start"], reach), min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span["end"] - span["start"] - covered


def per_run_layers(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counts of one traced call."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def total(*names: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    def count(*names: str) -> int:
        return sum(s["name"] in names for s in spans)

    def tally(key: str) -> int:
        return sum(s.get("counts", {}).get(key, 0) for s in spans)

    main = next(s for s in spans if s["name"] == "cli.main")
    suites = [s for s in spans if s["name"] == "backtest.run_suite"]
    parse = ("ingestion.parse_prices", "ingestion.parse_returns")
    ingestion_s = total(*parse, "ingestion.to_returns")
    var_s, tce_s = total("backtest.var_backtest"), total("backtest.tce_backtest")
    rows, forecasts, blocks = tally("rows"), tally("var_forecasts"), tally("tce_blocks")
    return {
        "cli.main_s": main["end"] - main["start"],
        "cli.self_s": self_time(main, children.get(main["id"], [])),
        "ingestion.parse_s": total(*parse),
        "ingestion.to_returns_s": total("ingestion.to_returns"),
        "ingestion.calls": count(*parse, "ingestion.to_returns"),
        "ingestion.rows": rows,
        "ingestion.us_per_row": ingestion_s / rows * 1e6 if rows else 0.0,
        "backtest.var_s": var_s,
        "backtest.var_calls": count("backtest.var_backtest"),
        "backtest.var_forecasts": forecasts,
        "backtest.var_ns_per_forecast": var_s / forecasts * 1e9 if forecasts else 0.0,
        "backtest.tce_s": tce_s,
        "backtest.tce_calls": count("backtest.tce_backtest"),
        "backtest.tce_blocks": blocks,
        "backtest.tce_blocks_undefined": tally("tce_blocks_undefined"),
        "backtest.tce_us_per_block": tce_s / blocks * 1e6 if blocks else 0.0,
        "backtest.suite_self_s": sum(self_time(s, children.get(s["id"], [])) for s in suites),
        "backtest.skips": tally("skips"),
    }


def layers(cli_args: list[str], checker: Checker, work: Path, seconds: float, workload: str, seed: int
           ) -> tuple[dict, int, int]:
    interpreter_s = median_startup("pass")
    import_s = median_startup(IMPORT_CLI) - interpreter_s
    out = work / "out"
    spans_path = WORK / "spans" / f"{workload}-seed{seed}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracepass.py"), "--spans", str(spans_path),
         "--seconds", str(seconds), "--seed", str(seed), "--", *cli_args, "--out", str(out)],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        report_errors([f"traced pass exited {proc.returncode}: {proc.stderr.strip()}"])
        return {}, 1, 1
    summary = json.loads(proc.stdout.splitlines()[-1])
    by_run: dict[int, list[dict]] = {}
    for span in json.loads(spans_path.read_text(encoding="utf-8"))["spans"]:
        by_run.setdefault(span["run"], []).append(span)
    runs = [per_run_layers(spans) for spans in by_run.values()]
    metrics = {
        name: (statistics.median_low if PER_LAYER_UNITS[name] == "count" else statistics.median)(
            run[name] for run in runs)
        for name in runs[0]
    }
    metrics.update({
        "startup.interpreter_s": interpreter_s,
        "startup.import_s": import_s,
        "cli.bytes_written": sum(p.stat().st_size for p in out.iterdir()),
        "backtest.peak_alloc_mb": summary["peak_alloc_mb"],
        "measures.var_us": summary["var_us"],
        "measures.tce_us": summary["tce_us"],
        "trace.overhead_s": statistics.median(summary["traced_s"]) - statistics.median(summary["untraced_s"]),
    })
    failed = summary["failures"]
    errors = checker.errors(out)
    if errors:
        failed += 1
        report_errors(errors)
    return metrics, summary["calls"], failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "histrisk" / "cli.py").is_file():
        print(f"perfbench: no histrisk sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 1
    bench_file = ROOT / "BENCHMARK.json"
    try:
        bench = json.loads(bench_file.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read {bench_file}: {exc}", file=sys.stderr)
        return 1
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    section, units = ("per_layer", PER_LAYER_UNITS) if args.trace else ("end_to_end", END_TO_END_UNITS)
    if {m["name"]: m["unit"] for m in bench[section]} != units:
        print(f"perfbench: metrics differ from the {section} list in BENCHMARK.json", file=sys.stderr)
        return 1

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        cli_args, checker, numpy_version = prepare(args.workload, args.seed, work)
        print(json.dumps({"environment": environment(args.workload, args.seed, numpy_version)}))
        if args.trace:
            metrics, attempted, failed = layers(cli_args, checker, work, args.seconds, args.workload, args.seed)
        else:
            metrics, attempted, failed = end_to_end(cli_args, checker, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        print("perfbench: no metrics (see errors above)", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:g} ratio ({failed} of {attempted} runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
