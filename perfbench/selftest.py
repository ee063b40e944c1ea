"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  The file name keeps it out of the
repository's pytest collection: these tests spawn the benchmark and take
about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from histrisk.cli import main as histrisk_main  # noqa: E402

SCRATCH = run.WORK / "selftest"


def setUpModule() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)


def tearDownModule() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)


def _file_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class InputTests(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self) -> None:
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first, again, other = (SCRATCH / name / d for d in ("a", "b", "c"))
                workloads.generate(name, 7, first)
                workloads.generate(name, 7, again)
                workloads.generate(name, 8, other)
                self.assertEqual(_file_bytes(first), _file_bytes(again))
                self.assertNotEqual(_file_bytes(first), _file_bytes(other))


class OracleTests(unittest.TestCase):
    """The independent counts agree with the program on tie-heavy series."""

    SPECS = ((2, 0.5), (3, 0.9), (5, 0.8), (10, 0.9), (20, 0.95))

    def _run_case(self, convention: str, violation: str, table_format: str) -> tuple[run.Checker, Path]:
        """Backtest generated tie-heavy inputs; return the checker and the output directory."""
        rng = np.random.default_rng(5)
        case = SCRATCH / f"oracle-{convention}-{violation}-{table_format}"
        inputs = case / "inputs"
        shutil.rmtree(case, ignore_errors=True)
        inputs.mkdir(parents=True)
        returns = {}
        for asset, size in (("a", 7), ("b", 30), ("c", 61)):
            # five distinct values: nearly every window has ties at its order statistic
            values = rng.integers(-2, 3, size) * 0.01
            returns[asset] = np.array([float(f"{v:.2f}") for v in values])
            dates = [np.datetime64("2000-01-01") + i for i in range(size)]
            rows = "".join(f"{d},{v:.2f}\n" for d, v in zip(dates, values))
            (inputs / f"{asset}.csv").write_text("date,return\n" + rows, encoding="utf-8")
        spec_flags = [arg for n, alpha in self.SPECS for arg in ("--spec", f"{n}:{alpha}")]
        argv = ["backtest", "--returns", *map(str, sorted(inputs.glob("*.csv"))), *spec_flags,
                "--convention", convention, "--violation", violation, "--format", table_format,
                "--out", str(case / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(histrisk_main(argv), 0)
        expected = oracle.expected_cells(returns, self.SPECS, convention, violation == "strict")
        return run.Checker(expected, table_format, None), case / "out"

    def test_counts_match_program(self) -> None:
        for convention in ("largest", "smallest"):
            for violation in ("strict", "nonstrict"):
                with self.subTest(convention=convention, violation=violation):
                    checker, out = self._run_case(convention, violation, "csv")
                    self.assertEqual(checker.errors(out), [])
        checker, out = self._run_case("smallest", "nonstrict", "md")
        self.assertEqual(checker.errors(out), [])

    def test_checker_reports_a_wrong_cell(self) -> None:
        checker, out = self._run_case("largest", "nonstrict", "csv")
        table = out / "var_errors.csv"
        lines = table.read_text(encoding="utf-8").splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",+9.999999"
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assertEqual(len(checker.errors(out)), 1)


class CommandTests(unittest.TestCase):
    def _bench(self, cwd: Path, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "perfbench/run.py", *args], cwd=cwd,
            capture_output=True, text=True, timeout=170,
        )

    def test_metric_names_match_benchmark_json(self) -> None:
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            with self.subTest(section=section):
                proc = self._bench(run.ROOT, "--workload", "universe_screen", "--seed", "3",
                                   "--seconds", "1", "--trace", trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                declared = {m["name"]: m["unit"] for m in bench[section]}
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(printed, declared)

    def test_fails_without_program_sources(self) -> None:
        bare = SCRATCH / "bare"
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = self._bench(bare, "--workload", "grid_panel", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
