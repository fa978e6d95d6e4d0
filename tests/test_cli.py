"""CLI: argument handling, output formats, exit codes."""

import contextlib
import csv
import ctypes
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bcstab.cli as cli
import bcstab.sim
from bcstab import RatePoint, SuccessProfile


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

    def test_csv_header(self, capsys):
        status, out, _ = run_cli(capsys, "simulate", "--lambda1", "0.1", "--lambda2", "0.1",
                                 "--horizon", "100")
        assert status == 0
        header = [line for line in out.splitlines() if not line.startswith("# ")][0]
        assert header.split(",") == [
            "lambda1", "lambda2", "mean_queue1", "mean_queue2", "final_queue1", "final_queue2",
            "success_rate1", "success_rate2", "departure_rate1", "departure_rate2",
            "empty_fraction1", "empty_fraction2", "drift_slope1", "drift_slope2",
            "verdict1", "verdict2", "arrivals1", "arrivals2", "departures1", "departures2",
        ]


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
                # queues with no arrivals never hold a packet, whatever their caps
                assert r["membership"] == "inside"
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulated_cells_are_runs_at_the_seed(self, capsys, monkeypatch, workers):
        """Every cell of a simulated sweep gets the verdicts of the run at
        --seed. At any worker count the sweep draws the channel's events
        once and the arrival uniforms once, before its runs start, and every
        cell is made on that held path, comparing the uniforms with its own
        rates; no cell draws its own."""
        events, uniforms, received = [], [], []
        draw_events, draw_uniforms = bcstab.sim._channel_events, bcstab.sim._arrival_uniforms
        kernel_inputs = bcstab.sim._kernel_inputs

        def drawn_events(params, horizon, seed):
            events.append(draw_events(params, horizon, seed))
            return events[-1]

        def held(horizon, seed):
            uniforms.append(draw_uniforms(horizon, seed))
            return uniforms[-1]

        def inputs(configs, path=None):
            received.extend(path for _ in configs)
            return kernel_inputs(configs, path)

        argv = ["sweep", "--simulate", "--grid", "4", "--horizon", "20000", "--seed", "5",
                "--workers", str(workers), "--format", "json"]
        monkeypatch.setattr(bcstab.sim, "_channel_events", drawn_events)
        monkeypatch.setattr(bcstab.sim, "_arrival_uniforms", held)
        monkeypatch.setattr(bcstab.sim, "_kernel_inputs", inputs)
        status, out, _ = run_cli(capsys, *argv)
        monkeypatch.undo()
        assert status == 0
        assert len(events) == len(uniforms) == 1
        assert len(received) == 16
        assert all(path[0] is events[0] and path[1] is uniforms[0] for path in received)
        spec = cli.resolve_spec(cli.build_parser().parse_args(argv))
        params = cli.params_from_spec(spec)
        rows = json.loads(out)["rows"]
        assert len(rows) == 16
        assert {"stable", "unstable"} <= {row["system_verdict"] for row in rows}
        for row in rows:
            cfg = bcstab.sim.SimConfig(RatePoint(row["lambda1"], row["lambda2"]), params,
                                       horizon=20_000, warmup=spec["warmup"], seed=5)
            assert (row["verdict1"], row["verdict2"]) == bcstab.sim.run(cfg).verdict


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

    @pytest.mark.parametrize("p_total", ["8e11", "2e16", "1e30"])
    def test_zero_margin_at_large_power_passes(self, capsys, p_total):
        """An equal split at gamma 1 has zero shared-slot margins: however
        large the powers, both shared entries are 0 in closed form and in
        Monte Carlo, since the events test each SINR in margin form."""
        status, out, _ = run_cli(capsys, "mc-verify", "--scheme", "ian", "--gamma1-db", "0",
                                 "--gamma2-db", "0", "--p-total", p_total,
                                 "--draws", "100000", "--format", "json")
        assert status == 0
        rows = {row["entry"]: row for row in json.loads(out)["rows"]}
        for entry in ("p1_both", "p2_both"):
            assert rows[entry]["closed_form"] == rows[entry]["mc_estimate"] == 0.0

    def test_discrepancy_fails_verification(self, capsys, monkeypatch):
        biased = SuccessProfile(0.9, 0.9, 0.9, 0.9)
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
    (b'\xff\xfe{"seed": 1}', ["region"], cli.EXIT_USAGE),
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
    (None, ["sweep", "--simulate", "--grid", "4", "--workers", "0"], cli.EXIT_USAGE),
    (None, ["sweep", "--simulate", "--grid", "4", "--workers", "-3"], cli.EXIT_USAGE),
    (None, ["compare-boundary", "--angles", "abc"], cli.EXIT_USAGE),
    (None, ["compare-boundary", "--angles", "45,100"], cli.EXIT_VALIDATION),
    (None, ["region", "--scheme", "generic", "--profile", "a,b,c,d"], cli.EXIT_USAGE),
    (None, ["simulate", "--lambda1", "0.1", "--lambda2", "0.1",
            "--horizon", "10", "--warmup", "9"], cli.EXIT_VALIDATION),
    (None, ["mc-verify", "--draws", "100000", "--p-total", "1e308", "--gamma1-db", "2",
            "--gamma2-db", "2", "--scheme", "ian"], cli.EXIT_VALIDATION),
    (None, ["compare-boundary", "--steps", "100000000"], cli.EXIT_USAGE),
    ('{"steps": 65}', ["compare-boundary"], cli.EXIT_USAGE),
    (None, ["compare-boundary", "--horizon", "9999"], cli.EXIT_VALIDATION),
    ('{"horizon": 20}', ["compare-boundary", "--steps", "8"], cli.EXIT_VALIDATION),
    (None, ["simulate", "--lambda1", "0.1", "--lambda2", "0.1", "--seed", "-1"],
     cli.EXIT_VALIDATION),
], ids=["config-type", "config-json", "config-not-utf8", "pathloss-overflow", "p-total-inf",
        "d1-inf", "gamma-db-overflow", "lambda-inf", "horizon-huge", "config-horizon-huge",
        "grid-huge", "points-huge", "workers-huge", "config-workers-huge",
        "workers-zero", "workers-negative",
        "angles-not-numbers", "angle-out-of-range-after-first",
        "profile-not-numbers", "warmup-leaves-one-slot",
        "power-overflows-at-largest-gain", "steps-huge", "config-steps-above-max",
        "horizon-below-verdict", "config-horizon-below-verdict", "seed-negative"])
def test_bad_input_exits_with_documented_code(tmp_path, capfd, monkeypatch,
                                              config, argv, status):
    # every row must be rejected before grids or randomness are allocated
    def unreachable(*args, **kwargs):
        raise AssertionError("bad input reached an allocation")

    monkeypatch.setattr(np, "linspace", unreachable)
    # _kernel_inputs allocates every array of a lone run's randomness and
    # events; runs of one path (a ray's probes, a sweep's cells) share a held
    # draw of its events (_channel_events) and arrival uniforms
    # (_arrival_uniforms), made before their first run
    monkeypatch.setattr(bcstab.sim, "_kernel_inputs", unreachable)
    monkeypatch.setattr(bcstab.sim, "_channel_events", unreachable)
    monkeypatch.setattr(bcstab.sim, "_arrival_uniforms", unreachable)
    if config is not None:
        path = tmp_path / "run.json"
        # JSON is UTF-8 text; a bytes row is a file in another encoding
        path.write_bytes(config if isinstance(config, bytes) else config.encode())
        argv = [*argv, "--config", str(path)]
    # capfd also sees what native code (LAPACK) writes to the file descriptors
    code, out, err = run_cli(capfd, *argv)
    assert code == status
    assert not any(text in out + err for text in ("DLASCL", "SVD", "Warning", "Traceback"))


# One non-default value per option, in the spec's key order: as flag tokens,
# and as a config file carries it (linear thresholds, JSON arrays).
OPTION_VALUES = [
    ("scheme", ["--scheme", "sc"], "sc"),
    ("power", ["--power", "adaptive"], "adaptive"),
    ("gamma1", ["--gamma1-db", "3"], 10.0 ** (3 / 10)),
    ("gamma2", ["--gamma2-db", "-3"], 10.0 ** (-3 / 10)),
    ("d1", ["--d1", "0.8"], 0.8),
    ("d2", ["--d2", "1.5"], 1.5),
    ("alpha", ["--alpha", "3.5"], 3.5),
    ("p_total", ["--p-total", "4"], 4.0),
    ("p1", ["--p1", "0.5"], 0.5),
    ("p2", ["--p2", "1.5"], 1.5),
    ("profile", ["--profile", "0.9,0.8,0.3,0.5"], [0.9, 0.8, 0.3, 0.5]),
    ("lambda1", ["--lambda1", "0.3"], 0.3),
    ("lambda2", ["--lambda2", "0.2"], 0.2),
    ("horizon", ["--horizon", "50000"], 50000),
    ("warmup", ["--warmup", "1000"], 1000),
    ("seed", ["--seed", "7"], 7),
    ("dominant", ["--dominant", "queue1"], "queue1"),
    ("grid", ["--grid", "20"], 20),
    ("points", ["--points", "9"], 9),
    ("format", ["--format", "json"], "json"),
    ("out", ["--out", "frontier.csv"], "frontier.csv"),
    ("draws", ["--draws", "20000"], 20000),
    ("simulate", ["--simulate"], True),
    ("angles", ["--angles", "15,45,75"], [15.0, 45.0, 75.0]),
    ("steps", ["--steps", "8"], 8),
    ("workers", ["--workers", "2"], 2),
]


@pytest.mark.parametrize("key, flag, value", OPTION_VALUES, ids=[row[0] for row in OPTION_VALUES])
def test_flag_and_config_value_resolve_alike(tmp_path, key, flag, value):
    parser = cli.build_parser()
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value}))
    by_flag = cli.resolve_spec(parser.parse_args(["region", *flag]))
    by_config = cli.resolve_spec(parser.parse_args(["region", "--config", str(path)]))
    # the serialised spec also tells an int from a float and pins the key order
    assert json.dumps(by_flag) == json.dumps(by_config)
    assert by_flag[key] != cli.resolve_spec(parser.parse_args(["region"]))[key]


def test_default_spec_is_pinned(capsys):
    status, out, _ = run_cli(capsys, "region", "--format", "json")
    assert status == cli.EXIT_OK
    spec = json.loads(out)["spec"]
    assert list(spec)[:26] == [key for key, _, _ in OPTION_VALUES]
    assert list(spec)[26:] == ["command", "corner"]
    spec.pop("corner")
    assert json.dumps(spec) == json.dumps({
        "scheme": "ian", "power": "fixed", "gamma1": 0.5, "gamma2": 0.5, "d1": 1.0,
        "d2": 1.0, "alpha": 2.0, "p_total": 2.0, "p1": 1.0, "p2": 1.0, "profile": None,
        "lambda1": None, "lambda2": None, "horizon": 200000, "warmup": None, "seed": 1,
        "dominant": "none", "grid": 50, "points": 100, "format": "json", "out": None,
        "draws": 1000000, "simulate": False, "angles": [45.0], "steps": 12, "workers": 1,
        "command": "region",
    })


def test_unbracketable_frontier_exits_with_verification_failure(capfd):
    # every transmission succeeds, so no rate on the ray is unstable
    code, out, err = run_cli(capfd, "compare-boundary", "--scheme", "generic",
                             "--profile", "1,1,1,1", "--angles", "45", "--steps", "8",
                             "--horizon", "20000")
    assert code == cli.EXIT_VERIFICATION
    assert out == ""
    assert err.startswith("verification failure: no unstable bracket") and err.count("\n") == 1


def test_shortest_verdict_horizon_accepted(capsys):
    code, _, err = run_cli(capsys, "compare-boundary", *RECT, "--angles", "45",
                           "--steps", "8", "--horizon", "10000", "--seed", "3")
    assert code == cli.EXIT_OK, err


@pytest.mark.parametrize("argv", [
    ["region", "--points", "3"],
    ["mc-verify", "--draws", "100000"],
    ["mc-verify", "--draws", "100000", "--power", "adaptive"],
], ids=["region", "mc-verify", "mc-verify-adaptive"])
@pytest.mark.parametrize("split", [["--p1", "0", "--p2", "2"], ["--p1", "2", "--p2", "0"]],
                         ids=["p1-zero", "p2-zero"])
def test_zero_power_split_exits_cleanly(capfd, argv, split):
    # a zero per-queue power is legal under successive decoding, as under IAN
    code, out, err = run_cli(capfd, *argv, "--scheme", "sc", "--p-total", "2", *split)
    assert code == cli.EXIT_OK, err
    meta, rows = parse_csv(out)
    assert_clean_cells(rows)
    zero_user = 1 if split[1] == "0" else 2
    assert meta["profile"][f"p{zero_user}_both"] == 0.0


def test_overflowing_margin_runs_without_warning():
    """gamma1*p2 overflows on these accepted inputs; the run warns of nothing.

    It runs in a fresh interpreter, as a user would, because pytest records
    warnings rather than letting them reach standard error."""
    argv = ["simulate", "--scheme", "ian", "--gamma1-db", "1550", "--gamma2-db", "0",
            "--d1", "100", "--d2", "100", "--alpha", "2", "--p-total", "1e154",
            "--p1", "0", "--p2", "1e154", "--lambda1", "0.1", "--lambda2", "0.1",
            "--horizon", "1000"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "bcstab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert "Warning" not in proc.stderr


def test_main_keeps_no_state_between_calls(capsys):
    """The parser is built once per process; no flag of one call reaches the next."""
    check = ["check", "--lambda1", "0.2", "--lambda2", "0.1"]
    _, alone, _ = run_cli(capsys, *check)
    status, _, _ = run_cli(capsys, "simulate", "--lambda1", "0.1", "--lambda2", "0.1",
                           "--horizon", "10000", "--seed", "3", "--dominant", "queue1",
                           "--format", "json", *RECT)
    assert status == cli.EXIT_OK
    _, again, _ = run_cli(capsys, *check)
    assert again == alone
    meta, _ = parse_csv(again)
    assert (meta["scheme"], meta["seed"], meta["dominant"], meta["format"]) == (
        "ian", 1, "none", "csv")
    assert cli._cached_parser.cache_info().currsize == 1


class TestHeapPin:
    """main fixes glibc's mmap threshold (mallopt option -3) and trim
    threshold (-1) at 1 GiB, and runs where libc has no mallopt."""

    CHECK = ["check", "--lambda1", "0.1", "--lambda2", "0.1"]

    def test_runs_without_mallopt(self, capsys, monkeypatch):
        class NoMallopt:
            def __init__(self, name):
                pass

        monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
        status, _, _ = run_cli(capsys, *self.CHECK)
        assert status == cli.EXIT_OK

    def test_each_call_sets_both_thresholds(self, capsys, monkeypatch):
        calls = []

        def mallopt(option, value):
            calls.append((option, value))
            return 1

        class Recording:
            def __init__(self, name):
                self.mallopt = mallopt

        monkeypatch.setattr(ctypes, "CDLL", Recording)
        for n in (1, 2):
            status, _, _ = run_cli(capsys, *self.CHECK)
            assert status == cli.EXIT_OK
            assert sorted(calls) == sorted([(-3, 1 << 30), (-1, 1 << 30)] * n)


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


# The simulating commands run at the shortest horizon a verdict accepts, on
# grids of at most 3 by 3 and with the fewest bisection steps.
SIM_ARGS = ["--horizon", "10000"]


@st.composite
def cli_argv(draw):
    """A command with its own flags, then system flags given on the command
    line or, with the same values, in a config file (``--config`` last)."""
    command = draw(st.sampled_from(["region", "check", "sweep", "mc-verify", "simulate",
                                    "sweep-simulate", "compare-boundary"]))
    argv = [command]
    if command == "region":
        argv += ["--points", str(draw(st.integers(-1, 10)))]
    elif command == "check":
        argv += ["--lambda1", draw(FLAG_VALUES), "--lambda2", draw(FLAG_VALUES)]
    elif command == "sweep":
        argv += ["--grid", str(draw(st.integers(-1, 5)))]
    elif command == "simulate":
        argv += ["--lambda1", draw(FLAG_VALUES), "--lambda2", draw(FLAG_VALUES), *SIM_ARGS]
    elif command == "sweep-simulate":
        argv = ["sweep", "--simulate", "--grid", str(draw(st.integers(-1, 3))), *SIM_ARGS]
    elif command == "compare-boundary":
        argv += ["--angles", draw(st.sampled_from(["0", "45", "90"])), "--steps", "8", *SIM_ARGS]
    else:
        argv += ["--draws", "10000"]
    system = {flag: draw(SYSTEM_FLAGS[flag])
              for flag in draw(st.lists(st.sampled_from(sorted(SYSTEM_FLAGS)), unique=True))}
    if draw(st.booleans()):
        return argv + [token for flag, value in system.items() for token in (flag, value)], None
    config = {}
    for flag, value in system.items():
        key = flag[2:].replace("-db", "").replace("-", "_")
        config[key] = ([_config_value(v) for v in value.split(",")] if key == "profile"
                       else _config_value(value))
    return argv, config


def _config_value(text):
    """A flag value as a config file carries it: a number as a JSON number (a
    threshold's read as linear), anything else as the string."""
    try:
        return float(text)
    except ValueError:
        return text


SC_ADVISORY = "successive decoding models user 1 as the stronger receiver"
# the example hypothesis found for it: the default d1 = 1 exceeds d2
SC_ADVISORY_EXAMPLE = (["region", "--points", "0"], {"d2": 0.5, "scheme": "sc"})


def show_on_stderr(message, category, filename, lineno, file=None, line=None):
    """Print a warning to the current standard error, as an interpreter
    outside pytest does."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


@settings(max_examples=150, deadline=None)
@given(argv_config=cli_argv())
@example(argv_config=(["region", "--points", "3", "--scheme", "generic",
                       "--profile", "0,0.8,0,0.5"], None))
@example(argv_config=(["compare-boundary", "--angles", "45", "--steps", "8", *SIM_ARGS],
                      {"scheme": "generic", "profile": [1.0, 1.0, 1.0, 1.0]}))
@example(argv_config=SC_ADVISORY_EXAMPLE)
def test_any_system_flags_exit_cleanly(argv_config):
    """Any mix of system flag values, on the command line or in a config
    file, ends in a documented exit code without a traceback, and a
    successful run prints only finite, non-artefact numbers. The one
    advisory warning (successive decoding with d1 > d2) is printed to
    standard error, as a real run prints it; any other warning fails."""
    argv, config = argv_config
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "system.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.filterwarnings("always", message=SC_ADVISORY, category=UserWarning)
            warnings.showwarning = show_on_stderr
            try:
                status = cli.main(argv)
            except SystemExit as exc:  # argparse rejecting a flag value
                status = exc.code
    assert status in {0, 2, 3, 4, 5}
    assert "Traceback" not in err.getvalue()
    if argv_config == SC_ADVISORY_EXAMPLE:
        assert f"UserWarning: {SC_ADVISORY}" in err.getvalue()
    if status == 0:
        assert_clean_cells(parse_csv(out.getvalue())[1])
