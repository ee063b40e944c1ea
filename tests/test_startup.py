"""What a histrisk process loads, and how it exits.

A ``backtest`` is a short process run again and again, so ``import histrisk.cli``
loads only what it runs, and the program entry skips the cyclic GC sweep at
interpreter shutdown.  The checks of what a process loads run in a fresh
interpreter, since the test process has loaded every module.
"""

import ast
import gc
import subprocess
import sys
from pathlib import Path

import pytest

import histrisk.cli as cli
from histrisk.cli import main

SRC = Path(cli.__file__).resolve().parents[1]

RETURNS = "date,return\n" + "".join(f"2015-01-{day:02d},{(-1) ** day * day / 1000}\n" for day in range(1, 21))


def python(*args):
    """Run a fresh interpreter on the package under test, not an installed one."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120, cwd=SRC)


def test_backtest_import_leaves_out_regress_and_axioms_code():
    proc = python("-c", (
        "import sys, histrisk.cli\n"
        "print([name for name in ('histrisk.stats', 'histrisk.axioms', 'csv') if name in sys.modules])\n"
    ))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_backtest_import_builds_no_dataclass_and_leaves_out_the_other_commands():
    # frozen dataclasses compile their generated methods at import; regress and axioms live in histrisk.commands
    proc = python("-c", (
        "import sys, histrisk.cli\n"
        "print([name for name in ('dataclasses', 'histrisk.commands') if name in sys.modules])\n"
    ))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_no_module_imports_dataclasses():
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        return [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []

    importers = [
        path.name for path in sorted((SRC / "histrisk").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if any(module.partition(".")[0] == "dataclasses" for module in imported(node))
    ]
    assert importers == []


def test_every_public_name_resolves_on_first_use():
    proc = python("-c", (
        "import histrisk\n"
        "print(sorted(set(histrisk.__all__) - set(dir(histrisk))))\n"
        "print([name for name in histrisk.__all__ if getattr(histrisk, name, None) is None])\n"
        "from histrisk import AxiomReport, RegressionSummary, ols2\n"
        "from histrisk.axioms import AxiomReport as defined\n"
        "print(AxiomReport is defined, ols2 is histrisk.stats.ols2, hasattr(histrisk, 'no_such_name'))\n"
    ))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n[]\nTrue True False\n", "")


@pytest.mark.parametrize("module", ["histrisk", "histrisk.cli"])
def test_module_entry_exit_codes(tmp_path, module):
    (tmp_path / "good.csv").write_text(RETURNS, encoding="utf-8")
    (tmp_path / "bad.csv").write_text(RETURNS.replace("2015-01-03", "2015-01-02"), encoding="utf-8")
    backtest = ("-m", module, "backtest", "--spec", "2:0.5", "--out", str(tmp_path / "out"), "--returns")
    good = python(*backtest, str(tmp_path / "good.csv"))
    assert (good.returncode, good.stderr) == (0, "")
    assert good.stdout.count("wrote ") == 4
    bad = python(*backtest, str(tmp_path / "bad.csv"))
    assert (bad.returncode, bad.stdout) == (1, "")
    assert bad.stderr == "error: bad: line 4: date 2015-01-02 must be after the preceding date 2015-01-02\n"


def test_program_entry_freezes_the_heap_before_exit():
    proc = python("-c", (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "sys.argv = ['histrisk', 'axioms']\n"
        "from histrisk.cli import run\n"
        "run()\n"
    ))
    assert proc.returncode == 0
    assert proc.stdout.endswith("monotone in level: true\nfrozen True\n")


def test_axioms_runs_without_docstrings():
    # -OO strips __doc__, so nothing the parser prints may come from a docstring
    plain, stripped = python("-m", "histrisk", "axioms"), python("-OO", "-m", "histrisk", "axioms")
    assert (stripped.returncode, stripped.stderr) == (0, "")
    assert stripped.stdout == plain.stdout != ""


def test_main_freezes_nothing(tmp_path, capsys):
    # in-process callers run main many times; a freeze would pin their cyclic garbage
    (tmp_path / "a.csv").write_text(RETURNS, encoding="utf-8")
    before = gc.get_freeze_count()
    assert main(["backtest", "--returns", str(tmp_path / "a.csv"), "--spec", "2:0.5", "--out", str(tmp_path)]) == 0
    assert main(["backtest", "--returns", str(tmp_path / "absent.csv")]) == 1
    assert main(["axioms"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_console_script_is_the_program_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = pyproject["project"]["scripts"]["histrisk"].partition(":")
    assert (module, name) == ("histrisk.cli", "run")
