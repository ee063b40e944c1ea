import csv
import datetime as dt
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import histrisk.cli as cli
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
    assert "Markdown" in capsys.readouterr().err


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


def test_backtest_bad_ingestion_line_reported(tmp_path, capsys):
    (tmp_path / "bad.csv").write_text("date,return\n2015-01-01,0.01\n2015-01-01,0.02\n", encoding="utf-8")
    rc = main(["backtest", "--returns", str(tmp_path / "bad.csv"), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "2015-01-01" in err


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


def test_regress_rejects_duplicate_asset_columns(tmp_path, capsys):
    # a repeated name would give two [a] blocks of one column and count its rows twice when pooled
    table = tmp_path / "var_errors.csv"
    write_error_table(table, ["a", "b", " a"], lambda n, a, i: 0.01 * n - 0.5 * a + 0.1 * i)
    rc = main(["regress", str(table)])
    assert rc == 1
    assert capsys.readouterr().err == "error: duplicate asset columns: a\n"


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


def test_regress_insufficient_rows(tmp_path, capsys):
    lines = ["spec,one", '"10,90%",+0.1', '"20,90%",-0.1', '"50,90%",+0.2']
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["regress", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "insufficient rows" in capsys.readouterr().err


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
