import argparse
import csv
import datetime as dt
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import histrisk
import histrisk.cli as cli
import histrisk.ingestion
from histrisk import RiskSpec, SuiteReport, TceBacktestRow, VarBacktestRow
from histrisk.cli import main


def write_returns_csv(path, values, start=dt.date(2015, 1, 1)):
    lines = ["date,return"]
    day = start.toordinal()
    for i, v in enumerate(values):
        lines.append(f"{dt.date.fromordinal(day + i).isoformat()},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_prices_csv(path, prices, start=dt.date(2015, 1, 1)):
    lines = ["date,price"]
    day = start.toordinal()
    for i, p in enumerate(prices):
        lines.append(f"{dt.date.fromordinal(day + i).isoformat()},{float(p)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_table(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def test_backtest_explicit_specs(tmp_path, capsys):
    rng = np.random.default_rng(61)
    write_returns_csv(tmp_path / "alpha.csv", rng.normal(0, 0.01, 300))
    write_returns_csv(tmp_path / "beta.csv", rng.normal(0, 0.01, 300))
    out = tmp_path / "report"
    rc = main([
        "backtest",
        "--returns", str(tmp_path / "alpha.csv"), str(tmp_path / "beta.csv"),
        "--spec", "10:0.9", "--spec", "20:0.95",
        "--out", str(out),
    ])
    assert rc == 0
    for name in ("tce_nonexistence.csv", "var_errors.csv", "tce_errors.csv", "metadata.txt"):
        assert (out / name).exists()
    rows = read_table(out / "var_errors.csv")
    assert rows[0] == ["spec", "alpha", "beta"]
    assert [r[0] for r in rows[1:]] == ["10,90%", "20,95%"]
    assert all(re.fullmatch(r"[+-]\d+\.\d{6}", cell) for r in rows[1:] for cell in r[1:])
    nonex = read_table(out / "tce_nonexistence.csv")
    assert all(re.fullmatch(r"\d+\.\d{6}", cell) for r in nonex[1:] for cell in r[1:])


def test_backtest_default_grid_skips_short_series(tmp_path):
    rng = np.random.default_rng(62)
    write_returns_csv(tmp_path / "short.csv", rng.normal(0, 0.01, 300))
    out = tmp_path / "report"
    rc = main(["backtest", "--returns", str(tmp_path / "short.csv"), "--out", str(out)])
    assert rc == 0
    rows = read_table(out / "var_errors.csv")
    assert len(rows) == 14  # header + 13-spec default grid
    by_label = {r[0]: r[1] for r in rows[1:]}
    assert by_label["500,90%"] == "skipped"
    assert by_label["250,95%"] != "skipped"
    tce_rows = {r[0]: r[1] for r in read_table(out / "tce_errors.csv")[1:]}
    assert tce_rows["250,90%"] == "skipped"  # needs 2n = 500 > 300
    assert tce_rows["100,90%"] != "skipped"
    meta = (out / "metadata.txt").read_text(encoding="utf-8")
    assert "skipped = short 500,90% var" in meta
    assert "convention = largest" in meta
    assert "violation = strict" in meta


def test_backtest_prices_roundtrip_log_method(tmp_path):
    rng = np.random.default_rng(63)
    prices = 100.0 * np.cumprod(1.0 + rng.uniform(-0.02, 0.02, 200))
    write_prices_csv(tmp_path / "brent.csv", prices)
    out = tmp_path / "report"
    rc = main([
        "backtest", "--prices", str(tmp_path / "brent.csv"),
        "--method", "log", "--spec", "10:0.9", "--out", str(out),
    ])
    assert rc == 0
    meta = (out / "metadata.txt").read_text(encoding="utf-8")
    assert "return_method = log" in meta


def test_backtest_deterministic_output(tmp_path):
    rng = np.random.default_rng(64)
    write_returns_csv(tmp_path / "a.csv", rng.normal(0, 0.01, 250))
    args = ["backtest", "--returns", str(tmp_path / "a.csv"), "--spec", "20:0.9"]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    for name in ("tce_nonexistence.csv", "var_errors.csv", "tce_errors.csv", "metadata.txt"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_backtest_markdown_format(tmp_path, capsys):
    rng = np.random.default_rng(65)
    write_returns_csv(tmp_path / "a.csv", rng.normal(0, 0.01, 100))
    out = tmp_path / "report"
    rc = main([
        "backtest", "--returns", str(tmp_path / "a.csv"),
        "--spec", "10:0.9", "--format", "md", "--out", str(out),
    ])
    assert rc == 0
    text = (out / "var_errors.md").read_text(encoding="utf-8")
    assert text.startswith("| spec | a |")
    assert "| 10,90% |" in text
    capsys.readouterr()
    # regress reads only the CSV tables
    assert main(["regress", str(out / "var_errors.md")]) == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'var_errors.md'}: error table is Markdown; regress reads the CSV tables of "
        "'backtest --format csv'\n"
    )


def test_backtest_markdown_escapes_pipes_in_asset_ids(tmp_path, capsys):
    rng = np.random.default_rng(66)
    paths = [tmp_path / "a|b.csv", tmp_path / "c.csv"]
    for path in paths:
        write_returns_csv(path, rng.normal(0, 0.01, 100))
    out = tmp_path / "report"
    rc = main([
        "backtest", "--returns", *map(str, paths),
        "--spec", "10:0.9", "--format", "md", "--out", str(out),
    ])
    assert rc == 0
    for name in ("var_errors.md", "tce_errors.md", "tce_nonexistence.md"):
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        assert lines[0] == r"| spec | a\|b | c |"
        # header, separator and every row have the same cells between unescaped pipes
        assert {len(re.split(r"(?<!\\)\|", line)) for line in lines} == {5}, name
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["csv", "md"])
def test_report_files_fill_each_cell_at_its_spec_and_asset(fmt):
    # "a" is skipped for the middle spec's VaR alone, and one TCE cell has no mean error
    s10, s20, s2095 = specs = (RiskSpec(10, 0.9), RiskSpec(20, 0.9), RiskSpec(20, 0.95))
    report = SuiteReport(
        asset_ids=("a", "b"),
        specs=specs,
        var_rows=(
            VarBacktestRow("a", s10, 40, 5, 0.125, 0.25),
            VarBacktestRow("a", s2095, 30, 1, 1 / 30, -1 / 3),
            VarBacktestRow("b", s10, 40, 4, 0.1, 0.0),
            VarBacktestRow("b", s20, 30, 6, 0.2, 1.0),
            VarBacktestRow("b", s2095, 30, 0, 0.0, -1.0),
        ),
        tce_rows=(
            TceBacktestRow("a", s10, 4, 1, 0.25, -0.0125),
            TceBacktestRow("b", s10, 4, 4, 1.0, None),
            TceBacktestRow("b", s2095, 2, 0, 0.0, 0.5, 1),
        ),
        skips=(),
    )
    args = argparse.Namespace(prices=None, method="simple", format=fmt)
    tables = {
        "csv": {
            "tce_nonexistence.csv": 'spec,a,b\n"10,90%",0.250000,1.000000\n"20,90%",skipped,skipped\n'
                                    '"20,95%",skipped,0.000000\n',
            "var_errors.csv": 'spec,a,b\n"10,90%",+0.250000,+0.000000\n"20,90%",skipped,+1.000000\n'
                              '"20,95%",-0.333333,-1.000000\n',
            "tce_errors.csv": 'spec,a,b\n"10,90%",-0.012500,NA\n"20,90%",skipped,skipped\n'
                              '"20,95%",skipped,+0.500000\n',
        },
        "md": {
            "tce_nonexistence.md": "| spec | a | b |\n|---|---|---|\n| 10,90% | 0.250000 | 1.000000 |\n"
                                   "| 20,90% | skipped | skipped |\n| 20,95% | skipped | 0.000000 |\n",
            "var_errors.md": "| spec | a | b |\n|---|---|---|\n| 10,90% | +0.250000 | +0.000000 |\n"
                             "| 20,90% | skipped | +1.000000 |\n| 20,95% | -0.333333 | -1.000000 |\n",
            "tce_errors.md": "| spec | a | b |\n|---|---|---|\n| 10,90% | -0.012500 | NA |\n"
                             "| 20,90% | skipped | skipped |\n| 20,95% | skipped | +0.500000 |\n",
        },
    }[fmt]
    files = cli._report_files(report, args, "a.csv b.csv")
    assert list(files) == [*tables, "metadata.txt"]
    assert files == {
        **tables,
        "metadata.txt": (
            f"tool = histrisk {histrisk.__version__}\n"
            "command = backtest\n"
            "convention = largest\n"
            "violation = strict\n"
            "return_method = precomputed\n"
            f"format = {fmt}\n"
            "assets = a b\n"
            "inputs = a.csv b.csv\n"
            "specs = 10,90% 20,90% 20,95%\n"
        ),
    }


def test_backtest_metadata_quotes_ids_and_inputs(tmp_path):
    rng = np.random.default_rng(67)
    paths = [tmp_path / "a b.csv", tmp_path / "c.csv"]
    write_returns_csv(paths[0], rng.normal(0, 0.01, 60))
    write_returns_csv(paths[1], rng.normal(0, 0.01, 60))
    out = tmp_path / "report"
    rc = main(["backtest", "--returns", *map(str, paths), "--spec", "10:0.9", "--spec", "50:0.9", "--out", str(out)])
    assert rc == 0
    lines = (out / "metadata.txt").read_text(encoding="utf-8").splitlines()
    fields = dict(line.split(" = ", 1) for line in lines if not line.startswith("skipped = "))
    assert shlex.split(fields["assets"]) == ["a b", "c"]
    assert shlex.split(fields["inputs"]) == ["a b.csv", "c.csv"]
    skipped = [line for line in lines if line.startswith("skipped = ")]
    assert skipped[0].startswith("skipped = 'a b' 50,90% tce: ")
    assert skipped[1].startswith("skipped = c 50,90% tce: ")


@pytest.mark.parametrize("name", ["a\nb", "a\rb", "a\u2028b"], ids=["newline", "return", "line-separator"])
def test_backtest_rejects_asset_id_with_line_break(tmp_path, capsys, name):
    # a line break in an id would split a table row or a metadata line
    path = tmp_path / f"{name}.csv"
    write_returns_csv(path, np.random.default_rng(71).normal(0, 0.01, 60))
    out = tmp_path / "report"
    assert main(["backtest", "--returns", str(path), "--format", "md", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: asset_id must be one line, got {name!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", [b"b\xff.csv", b"b.\xff"], ids=["stem", "suffix"])
def test_backtest_rejects_a_file_name_that_is_not_utf8(tmp_path, capsys, name):
    # the UTF-8 report files hold the name (metadata's inputs line) and its stem (the asset id)
    raw = os.path.join(os.fsencode(tmp_path), name)
    try:
        write_returns_csv(Path(os.fsdecode(raw)), np.random.default_rng(72).normal(0, 0.01, 30))
    except (OSError, UnicodeError):
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    out = tmp_path / "report"
    assert main(["backtest", "--returns", os.fsdecode(raw), "--spec", "2:0.5", "--out", str(out)]) == 1
    shown = raw.decode("utf-8", "backslashreplace")
    assert capsys.readouterr() == ("", f"error: {shown}: file name is not valid UTF-8\n")
    assert not out.exists()


def test_backtest_prints_an_out_directory_that_is_not_utf8(tmp_path):
    # under a stdout with strict errors each written file is printed with its undecodable bytes shown as \xff
    write_returns_csv(tmp_path / "good.csv", np.random.default_rng(76).normal(0, 0.01, 30))
    raw = os.path.join(os.fsencode(tmp_path), b"o\xff")
    try:
        os.mkdir(raw)
    except (OSError, UnicodeError):
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    proc = subprocess.run(
        [sys.executable, "-m", "histrisk", "backtest", "--returns", str(tmp_path / "good.csv"),
         "--spec", "2:0.5", "--out", os.fsdecode(raw)],
        env=dict(os.environ, PYTHONIOENCODING="utf-8"), capture_output=True, timeout=120,
        cwd=Path(cli.__file__).resolve().parents[1],  # the package under test, not an installed one
    )
    names = ["tce_nonexistence.csv", "var_errors.csv", "tce_errors.csv", "metadata.txt"]
    shown = raw.decode("utf-8", "backslashreplace")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode("utf-8") == "".join(f"wrote {shown}/{name}\n" for name in names)
    assert sorted(os.listdir(raw)) == sorted(name.encode() for name in names)


@pytest.mark.parametrize("command", ["backtest", "regress"])
def test_non_utf8_input_names_file_and_line(tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"date,return\n2015-01-01,0.0\xff1\n")
    args = {"backtest": ["--returns", str(bad), "--out", str(tmp_path / "o")], "regress": [str(bad)]}[command]
    assert main([command, *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and "line 2" in err


def test_backtest_missing_file_no_partial_output(tmp_path, capsys):
    out = tmp_path / "report"
    rc = main(["backtest", "--returns", str(tmp_path / "absent.csv"), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and str(tmp_path / "absent.csv") in err
    assert not out.exists()


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_backtest_reads_other_newlines_as_lf(tmp_path, newline):
    # inputs are read with universal newlines, so CRLF and lone-CR files give the LF files' outputs
    rng = np.random.default_rng(73)
    prices = 100.0 * np.cumprod(1.0 + rng.uniform(-0.02, 0.02, (2, 80)), axis=1)
    tables = {}
    for end in ("\n", newline):
        directory = tmp_path / repr(end)
        directory.mkdir()
        for name, row in zip("ab", prices):
            write_prices_csv(directory / f"{name}.csv", row)
            text = (directory / f"{name}.csv").read_text(encoding="utf-8")
            (directory / f"{name}.csv").write_bytes(text.replace("\n", end).encode())
        out = directory / "out"
        args = ["--prices", str(directory / "a.csv"), str(directory / "b.csv"), "--spec", "20:0.9", "--method", "log"]
        assert main(["backtest", *args, "--out", str(out)]) == 0
        tables[end] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(tables["\n"]) == 4
    assert tables[newline] == tables["\n"]


def test_non_utf8_byte_past_8_kib_names_its_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    write_returns_csv(path, np.full(700, 0.001))
    lines = path.read_bytes().split(b"\n")
    lines[600] = lines[600].replace(b"0.001", b"0.0\xff01")  # line 601
    data = b"\n".join(lines)
    path.write_bytes(data)
    position = data.index(b"\xff")
    assert position > 8192
    assert main(["backtest", "--returns", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 601: 'utf-8' codec can't decode byte 0xff in position {position}: invalid start byte\n"
    )


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_non_utf8_byte_names_its_line_under_each_newline(tmp_path, capsys, newline):
    # a decode error counts line breaks as universal newlines do, as the row loop's errors do
    path = tmp_path / "cr.csv"
    for cell, error in ((b"x", "error: cr: line 3: invalid return 'x'\n"), (b"\xff", f"error: {path}: line 3: ")):
        path.write_bytes(newline.encode().join([b"date,return", b"2020-01-01,0.1", b"2020-01-02," + cell, b""]))
        assert main(["backtest", "--returns", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(error)


def test_backtest_missing_relative_file_is_named_as_path_gives_it(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["backtest", "--returns", "./nope.csv", "--out", "o"]) == 1
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: 'nope.csv'\n"
    assert not (tmp_path / "o").exists()


def test_backtest_reports_the_first_bad_file(tmp_path, capsys):
    # on one calendar, file 3's zero price is reported before file 5's undecodable byte
    rng = np.random.default_rng(74)
    paths = [tmp_path / f"p{i}.csv" for i in range(1, 6)]
    for path in paths:
        write_prices_csv(path, 100.0 * np.cumprod(1.0 + rng.uniform(-0.02, 0.02, 60)))
    lines = paths[2].read_text(encoding="utf-8").splitlines(keepends=True)
    lines[3] = lines[3].split(",")[0] + ",0.0\n"
    paths[2].write_text("".join(lines), encoding="utf-8")
    paths[4].write_bytes(paths[4].read_bytes().replace(b"date,price\n", b"date,price\n\xff", 1))
    out = tmp_path / "report"
    assert main(["backtest", "--prices", *map(str, paths), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: p3: line 4: price must be positive, got 0.0\n"
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin on this platform")
def test_backtest_reads_a_pipe_once(tmp_path):
    # a pipe gives its text once: the good file on /dev/stdin is read once, and
    # bad.csv, on the same calendar, reports the error it reports alone
    rng = np.random.default_rng(75)
    write_returns_csv(tmp_path / "good.csv", rng.normal(0, 0.01, 30))
    write_returns_csv(tmp_path / "bad.csv", [0.01, float("nan"), *rng.normal(0, 0.01, 28)])
    out = tmp_path / "report"
    proc = subprocess.run(
        [sys.executable, "-m", "histrisk", "backtest", "--returns", "/dev/stdin", str(tmp_path / "bad.csv"),
         "--spec", "2:0.5", "--out", str(out)],
        input=(tmp_path / "good.csv").read_text(encoding="utf-8"), capture_output=True, text=True, timeout=120,
        cwd=Path(cli.__file__).resolve().parents[1],  # the package under test, not an installed one
    )
    assert (proc.returncode, proc.stderr) == (1, "error: bad: line 3: non-finite return 'nan'\n")
    assert not out.exists()


class _FullDiskHandle:
    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("failure", ["write", "directory"])
def test_backtest_failed_third_file_keeps_previous_set(tmp_path, capsys, monkeypatch, failure):
    rng = np.random.default_rng(70)
    write_returns_csv(tmp_path / "a.csv", rng.normal(0, 0.01, 120))
    out = tmp_path / "report"
    base = ["backtest", "--returns", str(tmp_path / "a.csv"), "--out", str(out)]
    assert main(base + ["--spec", "20:0.9"]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(before) == 4
    if failure == "write":
        # the third file (tce_errors.csv) fails after its temp file exists
        opened = []

        def full_disk_open(path, *args, **kwargs):
            handle = open(path, *args, **kwargs)
            opened.append(path)
            return _FullDiskHandle(handle) if len(opened) == 3 else handle

        monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    else:
        (out / "tce_errors.csv").unlink()
        (out / "tce_errors.csv").mkdir()
        del before["tce_errors.csv"]
    capsys.readouterr()
    assert main(base + ["--spec", "50:0.9"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    after = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
    assert after == before


def test_backtest_holds_the_output_directory_lock_while_renaming(tmp_path, monkeypatch):
    # a second run sharing --out must wait for this run's renames: here, a
    # second descriptor on the directory cannot take the lock during any rename
    fcntl = pytest.importorskip("fcntl")
    write_returns_csv(tmp_path / "a.csv", np.random.default_rng(71).normal(0, 0.01, 60))
    out = tmp_path / "report"
    out.mkdir()
    replace, blocked = os.replace, []

    def contended_replace(src, dst):
        other = os.open(out, os.O_RDONLY)
        try:
            with pytest.raises(BlockingIOError):
                fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
            blocked.append(Path(dst).name)
        finally:
            os.close(other)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", contended_replace)
    assert main(["backtest", "--returns", str(tmp_path / "a.csv"), "--out", str(out), "--spec", "20:0.9"]) == 0
    assert sorted(blocked) == sorted(path.name for path in out.iterdir())
    assert len(blocked) == 4


def test_backtest_bad_ingestion_line_reported(tmp_path, capsys):
    (tmp_path / "bad.csv").write_text("date,return\n2015-01-01,0.01\n2015-01-01,0.02\n", encoding="utf-8")
    rc = main(["backtest", "--returns", str(tmp_path / "bad.csv"), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "2015-01-01" in err


@pytest.mark.parametrize("prices, method", [
    ([1e-300, 1e300], "simple"),
    ([1e-300, 1e300], "log"),
    ([1e300, 1e-300], "log"),
], ids=["overflow-simple", "overflow-log", "log-of-zero"])
def test_backtest_out_of_range_returns_one_error_line(tmp_path, capsys, prices, method):
    write_prices_csv(tmp_path / "p.csv", prices)
    rc = main(["backtest", "--prices", str(tmp_path / "p.csv"), "--method", method,
               "--spec", "2:0.9", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: p: returns must be finite\n"


def test_backtest_requires_exactly_one_source(tmp_path, capsys):
    rng = np.random.default_rng(66)
    write_returns_csv(tmp_path / "a.csv", rng.normal(0, 0.01, 50))
    write_prices_csv(tmp_path / "p.csv", 100.0 + np.arange(50.0))
    rc = main([
        "backtest", "--returns", str(tmp_path / "a.csv"),
        "--prices", str(tmp_path / "p.csv"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    rc = main(["backtest", "--out", str(tmp_path / "o")])
    assert rc == 1


def test_backtest_bad_spec_flag(tmp_path, capsys):
    rng = np.random.default_rng(67)
    write_returns_csv(tmp_path / "a.csv", rng.normal(0, 0.01, 50))
    for bad in ("abc", "10", "10:2.0", "1:0.9", "10:0.9999999"):
        rc = main([
            "backtest", "--returns", str(tmp_path / "a.csv"),
            "--spec", bad, "--out", str(tmp_path / "o"),
        ])
        assert rc == 1, bad


def test_backtest_names_a_spec_it_cannot_read(tmp_path, capsys):
    # the specs are read before any input, so the missing file is never reached
    rc = main(["backtest", "--returns", str(tmp_path / "a.csv"), "--spec", "10:abc", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: invalid --spec '10:abc': expected N:ALPHA, e.g. 100:0.99\n"
    assert not (tmp_path / "o").exists()


def test_backtest_refuses_a_duration_beyond_the_float_range(tmp_path, capsys):
    # its order statistic is (1 - alpha) * n, which no float holds
    write_returns_csv(tmp_path / "a.csv", np.random.default_rng(67).normal(0, 0.01, 50))
    duration = 10**400
    spec = f"{duration}:0.9"
    rc = main(["backtest", "--returns", str(tmp_path / "a.csv"), "--spec", spec, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: sample size must be within the float range, got {duration}\n"
    assert not (tmp_path / "o").exists()


def test_backtest_duplicate_asset_stems(tmp_path, capsys):
    rng = np.random.default_rng(68)
    (tmp_path / "sub").mkdir()
    write_returns_csv(tmp_path / "a.csv", rng.normal(0, 0.01, 50))
    write_returns_csv(tmp_path / "sub" / "a.csv", rng.normal(0, 0.01, 50))
    rc = main([
        "backtest", "--returns", str(tmp_path / "a.csv"), str(tmp_path / "sub" / "a.csv"),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert "duplicate" in capsys.readouterr().err


def test_backtest_duplicate_asset_stems_read_no_file(tmp_path, monkeypatch, capsys):
    # the stems are checked before the first read, so a missing second file is never reached
    write_returns_csv(tmp_path / "a.csv", np.random.default_rng(68).normal(0, 0.01, 50))
    read, read_bytes = [], histrisk.ingestion._read_bytes

    def recorded(path):
        read.append(path)
        return read_bytes(path)

    monkeypatch.setattr(histrisk.ingestion, "_read_bytes", recorded)
    paths = [str(tmp_path / "a.csv"), str(tmp_path / "sub" / "a.csv")]
    rc = main(["backtest", "--returns", *paths, "--spec", "2:0.5", "--out", str(tmp_path / "o")])
    assert (rc, capsys.readouterr().err, read) == (1, "error: duplicate asset ids: a\n", [])


def test_backtest_refuses_specs_sharing_a_label_before_any_read(tmp_path, monkeypatch, capsys):
    # the suite checks its specs before it takes the first series, so a missing input is never reached
    read, read_bytes = [], histrisk.ingestion._read_bytes

    def recorded(path):
        read.append(path)
        return read_bytes(path)

    monkeypatch.setattr(histrisk.ingestion, "_read_bytes", recorded)
    rc = main([
        "backtest", "--returns", str(tmp_path / "absent.csv"),
        "--spec", "20:0.95", "--spec", "20:0.950000000001", "--out", str(tmp_path / "o"),
    ])
    err = capsys.readouterr().err
    assert (rc, read) == (1, [])
    assert err.startswith("error: specs RiskSpec(") and err.endswith(" share the report label '20,95%'\n")
    assert err.count("\n") == 1 and not (tmp_path / "o").exists()


def write_error_table(path, assets, model):
    specs = [(10, 90), (20, 90), (20, 95), (50, 90), (100, 90), (100, 95),
             (100, 99), (250, 90), (250, 95), (250, 99), (500, 90), (500, 95), (500, 99)]
    lines = ["spec," + ",".join(assets)]
    for n, pct in specs:
        cells = [f"{model(n, pct / 100.0, a):+.9f}" for a in range(len(assets))]
        lines.append(f'"{n},{pct}%",' + ",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_regress_recovers_planted_model(tmp_path, capsys):
    table = tmp_path / "var_errors.csv"
    write_error_table(table, ["one"], lambda n, a, i: 2.0 + 3.0 * n - 1.0 * a)
    rc = main(["regress", str(table)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[one] rows=13" in out
    assert "coef_duration = +3.000000" in out
    assert "coef_level    = -1.000000" in out
    assert "multiple_r    = 1.000000" in out
    assert out.count("[") == 1  # single asset: no pooled block


def test_regress_pooled_block_for_multiple_assets(tmp_path, capsys):
    table = tmp_path / "var_errors.csv"
    write_error_table(table, ["one", "two"], lambda n, a, i: 0.01 * n - 0.5 * a + 0.1 * i)
    rc = main(["regress", str(table)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[one]" in out and "[two]" in out
    assert "[pooled: one,two] rows=26" in out


def test_regress_asset_selection(tmp_path, capsys):
    table = tmp_path / "var_errors.csv"
    write_error_table(table, ["one", "two", "three"], lambda n, a, i: 0.01 * n - 0.5 * a + 0.1 * i)
    rc = main(["regress", str(table), "--assets", "one,three"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[one]" in out and "[three]" in out and "[two]" not in out
    rc = main(["regress", str(table), "--assets", "one,one"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("[one]") == 1 and "pooled" not in out
    rc = main(["regress", str(table), "--assets", "bogus"])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err
    for empty in (",", ""):
        rc = main(["regress", str(table), "--assets", empty])
        assert rc == 1
        assert capsys.readouterr().err == "error: --assets names no asset column\n"


def test_regress_rejects_duplicate_asset_columns(tmp_path, capsys):
    # a repeated name would give two [a] blocks of one column and count its rows twice when pooled
    table = tmp_path / "var_errors.csv"
    write_error_table(table, ["a", "b", " a"], lambda n, a, i: 0.01 * n - 0.5 * a + 0.1 * i)
    rc = main(["regress", str(table)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {table}: duplicate asset columns: a\n"


def test_regress_skips_na_and_skipped_cells(tmp_path, capsys):
    lines = [
        "spec,one",
        '"10,90%",+0.100000',
        '"20,90%",NA',
        '"20,95%",-0.200000',
        '"50,90%",skipped',
        '"100,90%",+0.050000',
        '"100,95%",-0.010000',
        '"100,99%",+0.020000',
    ]
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["regress", str(tmp_path / "t.csv")])
    assert rc == 0
    assert "[one] rows=5" in capsys.readouterr().out


def test_regress_fits_huge_durations(tmp_path, capsys):
    # durations of about 1e200 used to overflow the design's pivot tolerance, so
    # a full-rank design was reported as rank deficient
    zeros = "0" * 200
    lines = ["spec,one"] + [f'"{n}{zeros},{pct}%",{error}' for n, pct, error in
                            ((1, 90, 1.0), (2, 95, 2.0), (5, 99, 3.0), (10, 90, 4.0), (3, 91, 5.0))]
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["regress", str(tmp_path / "t.csv")]) == 0
    out = capsys.readouterr().out
    assert "[one] rows=5" in out
    assert "multiple_r    = 0.537442" in out


def test_regress_insufficient_rows(tmp_path, capsys):
    lines = ["spec,one", '"10,90%",+0.1', '"20,90%",-0.1', '"50,90%",+0.2']
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["regress", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "insufficient rows" in capsys.readouterr().err


def test_regress_fits_every_column_before_printing(tmp_path, capsys):
    # column b is all skipped: nothing is printed, and the error names b
    specs = [(10, 90), (20, 90), (20, 95), (50, 90), (100, 99)]
    lines = ["spec,a,b"] + [f'"{n},{pct}%",{0.01 * n - pct / 200 + 0.1 * i:+.6f},skipped'
                            for i, (n, pct) in enumerate(specs)]
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["regress", str(tmp_path / "t.csv")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: column 'b': insufficient rows for regression: need at least 4, got 0\n"
    assert main(["regress", str(tmp_path / "t.csv"), "--assets", "a"]) == 0
    assert capsys.readouterr().out.startswith("[a] rows=5\n")


def test_regress_rank_deficient_level(tmp_path, capsys):
    lines = ["spec,one"] + [f'"{n},90%",{0.01 * n:+.6f}' for n in (10, 20, 50, 100, 250)]
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["regress", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "level" in capsys.readouterr().err


def test_regress_missing_table(tmp_path, capsys):
    rc = main(["regress", str(tmp_path / "nope.csv")])
    assert rc == 1
    assert str(tmp_path / "nope.csv") in capsys.readouterr().err


def test_regress_invalid_spec_label(tmp_path, capsys):
    for label in ("10;90%", "x,90%", "10,90", "10,9x%"):
        lines = ["spec,one", f'"{label}",+0.1'] + [f'"{n},90%",+0.1' for n in (20, 50, 100, 250)]
        (tmp_path / "t.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["regress", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert f"line 2: invalid spec label {label!r}" in err, label


@pytest.mark.parametrize("body, message", [
    ('"10,90%","+0.1\n"\n"x,90%",+0.1\n', "line 4: invalid spec label 'x,90%'"),
    ('"10,90%",' + "1" * 140_000 + "\n", "line 2: field larger than field limit (131072)"),
    ('"10,90%",zz\n', "line 2: unparseable cell 'zz' in column 'one'"),
    ('"20,95%%",+0.1\n', "line 2: invalid spec label '20,95%%'"),
    ('"20,9_5%",+0.1\n', "line 2: invalid spec label '20,9_5%'"),
    ('"2_0,95%",+0.1\n', "line 2: invalid spec label '2_0,95%'"),
    ('"+20,95%",+0.1\n', "line 2: invalid spec label '+20,95%'"),
    (f'"{10**400},99%",+0.1\n', f"line 2: invalid spec label '{10**400},99%'"),
], ids=["after-multiline-cell", "huge-cell", "bad-cell", "doubled-percent", "level-underscore",
        "duration-underscore", "duration-sign", "duration-beyond-float"])
def test_regress_input_errors_name_table_and_line(tmp_path, capsys, body, message):
    table = tmp_path / "t.csv"
    table.write_text("spec,one\n" + body, encoding="utf-8")
    assert main(["regress", str(table)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {table}: {message}")


@pytest.mark.parametrize("text, message", [
    ("", "error table is empty"),
    ('spec\n"10,90%"\n', "error table must have a spec column and at least one asset column"),
    ("spec,one\n", "error table has no data rows"),
], ids=["empty", "one-column", "header-only"])
def test_regress_refuses_a_table_with_nothing_to_fit(tmp_path, capsys, text, message):
    table = tmp_path / "t.csv"
    table.write_text(text, encoding="utf-8")
    assert main(["regress", str(table)]) == 1
    assert capsys.readouterr().err == f"error: {table}: {message}\n"


def test_regress_refuses_a_label_backtest_never_writes(tmp_path, capsys):
    # without the 20,95%% row the table fits; a label is read only as backtest writes it, so nothing is fitted
    labels = ["10,90%", "20,90%", "20,95%%", "50,90%", "100,95%", "250,99%"]
    lines = ["spec,one"] + [f'"{label}",{0.01 * i:+.6f}' for i, label in enumerate(labels)]
    table = tmp_path / "t.csv"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["regress", str(table)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {table}: line 4: invalid spec label '20,95%%', expected e.g. '250,95%'\n"


def test_axioms_output(capsys):
    rc = main(["axioms"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "VaR(diversified) = 1.000000" in out
    assert "VaR(concentrated) = 0.000000" in out
    assert "TCE(concentrated) = 0.080000" in out
    assert "TCE(diversified) = 1.020408" in out
    assert "translation invariance: true" in out
    assert "positive homogeneity: true" in out
    assert "monotone in level: true" in out
    assert "subadditive on the diversified portfolio: false" in out


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("argv, token", [
    (["frobnicate"], "frobnicate"),
    (["backtest", "--out", "o"], "--returns"),
    (["backtest", "--returns", "a.csv", "--format", "xls"], "xls"),
    (["backtest", "--returns", "a.csv", "--bogus"], "--bogus"),
    (["regress"], "TABLE"),
], ids=["unknown-command", "no-source", "bad-choice", "unknown-flag", "no-table"])
def test_usage_errors_exit_one_with_one_line(capsys, argv, token):
    # argparse would print its usage text and exit 2, which this CLI keeps for internal errors
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.err.endswith("\n")
    assert lines[0].startswith("error: ") and token in lines[0] and "usage:" not in lines[0]


def test_internal_error_maps_to_two(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(69)
    write_returns_csv(tmp_path / "a.csv", rng.normal(0, 0.01, 50))

    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "run_suite", boom)
    rc = main(["backtest", "--returns", str(tmp_path / "a.csv"),
               "--spec", "10:0.9", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "internal error" in capsys.readouterr().err


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "histrisk", "axioms"],
        capture_output=True, text=True, timeout=120,
        cwd=Path(cli.__file__).resolve().parents[1],  # the package under test, not an installed one
    )
    assert proc.returncode == 0
    assert "VaR(diversified) = 1.000000" in proc.stdout
