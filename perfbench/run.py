"""Layered benchmark of the bcstab command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-coupled --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/selftest.py                    # each check flags a corrupted result

Each workload is a fixed list of ``bcstab.cli.main(argv)`` invocations made
from ``--seed`` (see ``workloads.py``). One client runs them as a closed loop,
one invocation after the next, for ``--seconds`` in all, split over five
fresh interpreters run one after another, and every output is checked.
``--trace 0`` reports the end-to-end metrics:

    setup_s      median over nine fresh interpreters of the time to the
                 first result: ``import bcstab`` plus one warm-up invocation
    ops_per_s    units of work (grid point, ray, dominant run, verified
                 config) completed per second of the timed phase
    call_p50_ms  median, over the list's invocations, of the time one takes
    peak_rss_mb  peak resident memory of an interpreter that ran the workload

Times are scaled to a reference host speed (see ``child.HostSpeed``): this
host's speed swings by up to 2x within seconds from load outside the
benchmark, so each time is divided by that of a fixed calibration loop run
beside it. The unscaled figures are printed too.

Failed units are the result's ``failed`` count; ``fail_frac`` is printed
beside the metrics. ``--trace 1`` runs each invocation twice in a row,
untraced and then traced with spans around the calls into each module, and
reports the per-layer metrics (``tracer.py``).
Results, with the environment that ran them, are written under
``perfbench/out/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import CALIBRATION_REF_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The timed phase is split over WORKERS fresh interpreters, one after
# another, because each process has a speed of its own: whole runs of
# mc-verify differed by 10% while the invocations within one run agreed to
# 3%. SETUP_PROBES more interpreters only set up; setup_s is the median over
# all of them.
WORKERS = 5
SETUP_PROBES = 4
# Every run, set-up included, ends well inside the 180 s a run may take.
DEADLINE_S = 170.0


class ChildError(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start ``child.py`` in a fresh interpreter; return its set-up time and result.

    Set-up time runs from the start of the process to its ``READY`` line,
    scaled to the reference speed by the calibration samples the child took
    while it set up.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    data = b""
    ready = None
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, bufsize=0) as proc:
        try:
            while True:
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise ChildError(f"timed out: {' '.join(args)}")
                readable, _, _ = select.select([proc.stdout], [], [], left)
                if not readable:
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                data += chunk
                if ready is None and b"READY\n" in data:
                    ready = time.perf_counter() - t0
            code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or ready is None:
        raise ChildError(f"child exited {code}: {' '.join(args)}")
    lines = data.decode().splitlines()
    speed = json.loads(lines[1])
    setup = (ready - speed["spent_s"]) * CALIBRATION_REF_S / speed["calibration_s"]
    return setup, (json.loads(lines[-1]) if len(lines) > 2 else None)


def per_item(records, key: str) -> list[float]:
    """Median ``key`` of each invocation of the list, so that which ones ran once more
    before the time was up does not move a median taken over the list."""
    by_item: dict[int, list[float]] = {}
    for r in records:
        by_item.setdefault(r["item"], []).append(r[key])
    return [statistics.median(v) for v in by_item.values()]


def measure(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{name}-seed{seed}-spans.jsonl"
        _, result = run_child([*common, "--seconds", str(seconds), "--trace", "1",
                               "--spans", str(spans)], deadline)
        result["metrics"] = result.pop("layers")
        return result
    setups = [run_child(common, deadline)[0] for _ in range(SETUP_PROBES)]
    parts = []
    for part in range(WORKERS):
        setup, part_result = run_child([*common, "--seconds", str(seconds / WORKERS),
                                        "--part", str(part), "--parts", str(WORKERS)], deadline)
        setups.append(setup)
        parts.append(part_result)
    records = [r for p in parts for r in p["records"]]
    result = {
        "env": parts[0]["env"],
        "setup_samples_s": setups,
        "records": records,
        "raw_ops_per_s": sum(r["units"] for r in records) / sum(r["wall"] for r in records),
        "raw_call_p50_ms": 1e3 * statistics.median(per_item(records, "wall")),
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": sum(r["units"] for r in records) / sum(r["scaled"] for r in records),
                          "unit": "1/s"},
            "call_p50_ms": {"value": 1e3 * statistics.median(per_item(records, "scaled")), "unit": "ms"},
            "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in parts), "unit": "MB"},
        },
    }
    for key in ("invocations", "attempted", "failed"):
        result[key] = sum(p[key] for p in parts)
    result["failures"] = [f for p in parts for f in p["failures"]]
    return result


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def report(name: str, result: dict) -> None:
    workload = WORKLOADS[name]
    env = result["env"]
    print(f"== {name}: {result['invocations']} invocations, {result['attempted']} "
          f"{workload.unit}s, backend {env['backend']}, seed {env['seed']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:44s} {m['value']:14.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  {'fail_frac':44s} {frac:14.6g} fraction ({result['failed']}/{result['attempted']})")
    if "raw_ops_per_s" in result:
        print(f"  unscaled wall clock: ops_per_s {result['raw_ops_per_s']:.6g} 1/s, "
              f"call_p50_ms {result['raw_call_p50_ms']:.6g} ms")
    for name, value in result.get("layer_times", {}).items():
        if value:
            print(f"  {name:44s} {value:14.6g} {'ns' if '.ns_per_' in name else 's'}")
    if result.get("absent"):
        print(f"  absent: {', '.join(result['absent'])}")
    for record in result["failures"]:
        print(f"  FAILED {record['argv']}: {'; '.join(record['failures'])}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "bcstab" / "__init__.py").is_file():
        print(f"error: no bcstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    commit = git_commit()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = time.perf_counter() + DEADLINE_S
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
        except ChildError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        result["env"]["git_commit"] = commit
        result["workload"] = name
        result["why"] = WORKLOADS[name].why
        report(name, result)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(result, fh, indent=1)
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, m in result["metrics"].items():
            summary["metrics"][prefix + metric] = m
    summary["correct"] = summary["failed"] == 0 and summary["attempted"] > 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
