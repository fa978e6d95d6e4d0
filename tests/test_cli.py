"""CLI: argument handling, output formats, exit codes."""

import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bcstab.cli as cli
import bcstab.sim
from bcstab import MonteCarloProfile


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def parse_csv(text):
    meta = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, raw = line[2:].partition(": ")
            meta[key] = json.loads(raw)
        elif line:
            data_lines.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(data_lines))))
    return meta, rows


GENERAL = ["--scheme", "generic", "--profile", "0.9,0.8,0.3,0.5"]
RECT = ["--scheme", "generic", "--profile", "0.5,0.5,0.5,0.5"]


class TestRegionCommand:
    def test_rectangle_max_height_is_solo_rate(self, capsys):
        status, out, _ = run_cli(capsys, "region", *RECT, "--points", "7")
        assert status == 0
        meta, rows = parse_csv(out)
        assert max(float(r["lambda2"]) for r in rows) == 0.5
        assert meta["profile"]["p2_solo"] == 0.5

    def test_corner_row_present(self, capsys):
        _, out, _ = run_cli(capsys, "region", *GENERAL, "--points", "11")
        meta, rows = parse_csv(out)
        assert meta["corner"] == [0.3, 0.5]
        assert any(float(r["lambda1"]) == 0.3 and float(r["lambda2"]) == 0.5 for r in rows)

    def test_json_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "region.json"
        status, _, _ = run_cli(capsys, "region", *GENERAL, "--points", "9",
                               "--format", "json", "--out", str(out_path))
        assert status == 0
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"spec", "profile", "rows"}
        assert json.loads(json.dumps(payload)) == payload
        assert payload["profile"]["p1_both"] == 0.3
        assert payload["rows"][0] == {"lambda1": 0.0, "lambda2": 0.8}

    def test_csv_has_nine_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "region", "--points", "5")
        _, rows = parse_csv(out)
        # exp(-0.5) printed to 9 significant digits
        assert rows[0]["lambda2"] == "0.60653066"


class TestCheckCommand:
    def test_inside_point(self, capsys):
        status, out, _ = run_cli(capsys, "check", *GENERAL,
                                 "--lambda1", "0.3", "--lambda2", "0.2")
        assert status == 0
        _, rows = parse_csv(out)
        assert rows[0]["membership"] == "inside"

    def test_missing_rates_is_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "check", *GENERAL)
        assert status == cli.EXIT_USAGE
        assert "lambda" in err


class TestSimulateCommand:
    def test_reports_statistics_and_verdicts(self, capsys):
        status, out, _ = run_cli(
            capsys, "simulate", *GENERAL, "--lambda1", "0.0", "--lambda2", "0.25",
            "--dominant", "queue1", "--horizon", "100000", "--seed", "7",
        )
        assert status == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert abs(float(row["empty_fraction2"]) - 0.5) < 0.02
        assert abs(float(row["success_rate1"]) - 0.6) < 0.02
        assert row["verdict1"] == "stable" and row["verdict2"] == "stable"
        assert int(row["arrivals2"]) == int(row["departures2"]) + int(row["final_queue2"])

    def test_deterministic_output(self, capsys):
        args = ("simulate", "--lambda1", "0.3", "--lambda2", "0.2",
                "--horizon", "20000", "--seed", "5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestSweepCommand:
    def test_analytic_grid_shape_and_monotonicity(self, capsys):
        status, out, _ = run_cli(capsys, "sweep", *GENERAL, "--grid", "10")
        assert status == 0
        _, rows = parse_csv(out)
        assert len(rows) == 100
        rank = {"inside": 0, "boundary": 1, "outside": 2}
        by_l1 = {}
        for r in rows:
            by_l1.setdefault(r["lambda1"], []).append(rank[r["membership"]])
        for scans in by_l1.values():  # lambda2 ascends within each lambda1 block
            assert scans == sorted(scans)

    def test_empty_region_only_origin_touches(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--scheme", "generic",
                            "--profile", "0,0,0,0", "--grid", "6")
        _, rows = parse_csv(out)
        for r in rows:
            if float(r["lambda1"]) == 0.0 and float(r["lambda2"]) == 0.0:
                assert r["membership"] == "boundary"
            else:
                assert r["membership"] == "outside"

    def test_simulated_sweep_agrees_off_band(self, capsys):
        status, out, _ = run_cli(
            capsys, "sweep", *GENERAL, "--grid", "5", "--simulate",
            "--horizon", "20000", "--seed", "11", "--workers", "2",
        )
        assert status == 0
        meta, rows = parse_csv(out)
        assert meta["disagreements_excluding_band"] == 0
        assert {"verdict1", "verdict2", "system_verdict", "in_band", "agree"} <= set(rows[0])


class TestCompareBoundaryCommand:
    def test_diagonal_ray(self, capsys):
        status, out, _ = run_cli(
            capsys, "compare-boundary", *RECT, "--angles", "45",
            "--steps", "8", "--horizon", "25000", "--seed", "3",
        )
        assert status == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["analytic_lambda1"]) == pytest.approx(0.5, abs=1e-6)
        assert abs(float(row["delta_lambda1"])) < 0.03
        assert abs(float(row["delta_lambda2"])) < 0.03


class TestMcVerifyCommand:
    def test_named_config_passes(self, capsys):
        status, out, _ = run_cli(capsys, "mc-verify", "--draws", "200000", "--seed", "2")
        assert status == 0
        meta, rows = parse_csv(out)
        assert len(rows) == 4
        assert meta["max_abs_z"] <= 4.0
        for row in rows:
            assert abs(float(row["z"])) <= 4.0

    def test_small_draw_count_rejected(self, capsys):
        status, _, err = run_cli(capsys, "mc-verify", "--draws", "1000")
        assert status == cli.EXIT_USAGE
        assert "10000" in err

    def test_generic_marks_not_applicable(self, capsys):
        status, out, _ = run_cli(capsys, "mc-verify", *GENERAL, "--draws", "10000")
        assert status == 0
        _, rows = parse_csv(out)
        assert all(r["mc_estimate"] == "n/a" and r["z"] == "n/a" for r in rows)

    def test_discrepancy_fails_verification(self, capsys, monkeypatch):
        biased = MonteCarloProfile(0.9, 0.9, 0.9, 0.9, 0.0, 0.0, 0.0, 0.0, 10_000)
        monkeypatch.setattr(cli, "mc_estimate_profile", lambda *a, **k: biased)
        status, out, _ = run_cli(capsys, "mc-verify", "--draws", "10000")
        assert status == cli.EXIT_VERIFICATION
        meta, _ = parse_csv(out)
        assert meta["max_abs_z"] > 4.0


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "scheme": "generic", "profile": [0.9, 0.8, 0.3, 0.5],
            "lambda1": 0.3, "lambda2": 0.2, "points": 4,
        }))
        _, out, _ = run_cli(capsys, "check", "--config", str(cfg))
        _, rows = parse_csv(out)
        assert rows[0]["membership"] == "inside"
        # flag wins over the file
        _, out, _ = run_cli(capsys, "check", "--config", str(cfg), "--lambda2", "0.7")
        _, rows = parse_csv(out)
        assert rows[0]["membership"] == "outside"

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"lambda_one": 0.3}))
        status, _, err = run_cli(capsys, "check", "--config", str(cfg))
        assert status == cli.EXIT_USAGE and "lambda_one" in err

    def test_gamma_entered_in_db(self, capsys):
        # -3.0103 dB is a linear threshold of 0.5
        _, out, _ = run_cli(capsys, "region", "--gamma1-db", "-3.0102999566398120",
                            "--gamma2-db", "-3.0102999566398120", "--points", "4")
        meta, _ = parse_csv(out)
        assert meta["gamma1"] == pytest.approx(0.5, abs=1e-12)
        assert meta["profile"]["p1_solo"] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_validation_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"gamma1": -2.0}))
        status, _, err = run_cli(capsys, "region", "--config", str(cfg))
        assert status == cli.EXIT_VALIDATION
        assert "gamma1" in err

    def test_io_error_exit_code(self, capsys):
        status, _, err = run_cli(capsys, "region", "--points", "4",
                                 "--out", "/nonexistent-dir/x.csv")
        assert status == cli.EXIT_IO
        assert "/nonexistent-dir/x.csv" in err

    def test_missing_config_file_is_io_error(self, capsys):
        status, _, _ = run_cli(capsys, "region", "--config", "/no/such/file.json")
        assert status == cli.EXIT_IO


@pytest.mark.parametrize("config, argv, status", [
    ('{"grid": "50"}', ["sweep"], cli.EXIT_USAGE),
    ('{"grid": ', ["region"], cli.EXIT_USAGE),
    (None, ["region", "--alpha", "1e308", "--d1", "2"], cli.EXIT_VALIDATION),
    (None, ["region", "--p-total", "inf"], cli.EXIT_VALIDATION),
    (None, ["region", "--d1", "inf"], cli.EXIT_VALIDATION),
    (None, ["region", "--gamma1-db", "1e5"], cli.EXIT_VALIDATION),
    (None, ["check", "--lambda1", "inf", "--lambda2", "0"], cli.EXIT_VALIDATION),
    (None, ["simulate", "--lambda1", "0.1", "--lambda2", "0.1",
            "--horizon", "1000000000000000"], cli.EXIT_VALIDATION),
    ('{"horizon": 1000000000000000}', ["compare-boundary"], cli.EXIT_VALIDATION),
    (None, ["sweep", "--grid", "1000000000"], cli.EXIT_USAGE),
    (None, ["region", "--points", "1000000000"], cli.EXIT_USAGE),
    (None, ["sweep", "--simulate", "--grid", "100", "--workers", "100000"], cli.EXIT_USAGE),
    ('{"workers": 100000}', ["sweep", "--simulate", "--grid", "100"], cli.EXIT_USAGE),
    (None, ["compare-boundary", "--angles", "abc"], cli.EXIT_USAGE),
    (None, ["region", "--scheme", "generic", "--profile", "a,b,c,d"], cli.EXIT_USAGE),
], ids=["config-type", "config-json", "pathloss-overflow", "p-total-inf", "d1-inf",
        "gamma-db-overflow", "lambda-inf", "horizon-huge", "config-horizon-huge",
        "grid-huge", "points-huge", "workers-huge", "config-workers-huge",
        "angles-not-numbers", "profile-not-numbers"])
def test_bad_input_exits_with_documented_code(tmp_path, capsys, monkeypatch,
                                              config, argv, status):
    # every row must be rejected before grids or randomness are allocated
    def unreachable(*args, **kwargs):
        raise AssertionError("bad input reached an allocation")

    monkeypatch.setattr(np, "linspace", unreachable)
    monkeypatch.setattr(bcstab.sim, "_draw_randomness", unreachable)
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    assert run_cli(capsys, *argv)[0] == status


def assert_clean_cells(rows):
    """Every numeric data cell is finite and no underflow stand-in (0 < |x| < 1e-200)."""
    for row in rows:
        for cell in row.values():
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), row
            assert not 0.0 < abs(value) < 1e-200, row


@pytest.mark.parametrize("profile", ["0,0.8,0,0.5", "0.9,0,0,0"])
def test_forced_zero_rate_prints_exact_zero(capsys, profile):
    # a zero success probability forces a rate to exactly 0, not to 1e-300
    status, out, _ = run_cli(capsys, "region", "--scheme", "generic",
                             "--profile", profile, "--points", "3")
    assert status == 0
    assert_clean_cells(parse_csv(out)[1])


# Values for the system flags: ordinary, zero, negative, huge, non-finite and
# non-numeric. The ordinary ones are small enough that no legitimate success
# probability falls below 1e-200.
FLAG_VALUES = st.sampled_from(["0.5", "1", "2", "0", "-1", "1e308", "inf", "-inf", "nan", "abc"])
SYSTEM_FLAGS = {
    "--scheme": st.sampled_from(["generic", "ian", "sc"]),
    "--power": st.sampled_from(["fixed", "adaptive"]),
    **{flag: FLAG_VALUES for flag in ("--gamma1-db", "--gamma2-db", "--d1", "--d2",
                                      "--alpha", "--p-total", "--p1", "--p2")},
    "--profile": st.lists(st.sampled_from(["0", "0.3", "0.5", "0.8", "1", "-1", "2",
                                           "nan", "inf", "x"]),
                          min_size=1, max_size=5).map(",".join),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["region", "check", "sweep", "mc-verify"]))
    argv = [command]
    if command == "region":
        argv += ["--points", str(draw(st.integers(-1, 10)))]
    elif command == "check":
        argv += ["--lambda1", draw(FLAG_VALUES), "--lambda2", draw(FLAG_VALUES)]
    elif command == "sweep":
        argv += ["--grid", str(draw(st.integers(-1, 5)))]
    else:
        argv += ["--draws", "10000"]
    for flag in draw(st.lists(st.sampled_from(sorted(SYSTEM_FLAGS)), unique=True)):
        argv += [flag, draw(SYSTEM_FLAGS[flag])]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=cli_argv())
@example(argv=["region", "--points", "3", "--scheme", "generic", "--profile", "0,0.8,0,0.5"])
def test_any_system_flags_exit_cleanly(argv):
    """Any mix of system flag values ends in a documented exit code, without a
    traceback, and a successful run prints only finite, non-artefact numbers."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting a flag value
            status = exc.code
    assert status in {0, 2, 3, 4, 5}
    assert "Traceback" not in err.getvalue()
    if status == 0:
        assert_clean_cells(parse_csv(out.getvalue())[1])
