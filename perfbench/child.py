"""One fresh interpreter of the benchmark: imports bcstab, warms up, and (if measuring) runs the workload.

Started by ``run.py``; not meant to be run by hand. It writes ``READY`` on
standard output once ``import bcstab`` and the warm-up invocation are done,
which is the moment ``setup_s`` ends. A measuring child then runs the
workload as a closed loop, one invocation after another, and ends with one
JSON line of results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def import_cli():
    """Import bcstab from this checkout's sources, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bcstab
    from bcstab import cli

    if Path(bcstab.__file__).resolve().parent != (src / "bcstab").resolve():
        raise SystemExit(f"bcstab imported from {bcstab.__file__}, not from {src}")
    return cli


def invoke(cli, argv) -> tuple[int | None, str]:
    """Run one CLI invocation in-process; return its exit code and standard output."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an invocation that raises fails all its units
        print(f"invocation raised: {' '.join(argv)}", file=sys.stderr)
        traceback.print_exc()
        rc = None
    return rc, out.getvalue()


# Seconds the calibration loop takes on an idle core of the reference host
# (a 2-vCPU VM, Python 3.11); scaled times read as if measured at that speed.
CALIBRATION_REF_S = 0.6e-3
CALIBRATION_PERIOD_S = 0.05


def calibration_loop() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    t0 = time.perf_counter()
    x, n = 0.0, 0
    for _ in range(10_000):
        x = x * 0.5 + 1.0
        if x > 1.5:
            n += 1
    return time.perf_counter() - t0


class HostSpeed:
    """Samples the host's current speed while work runs in this thread.

    The host's speed swings by up to 2x within seconds from load outside
    this process, which would swamp the spread of any wall-clock metric. A
    timer signal runs the calibration loop every CALIBRATION_PERIOD_S in
    the measured thread itself; dividing a wall time by the loop's median
    time over the same interval cancels most of that swing. The time spent
    in the loop is taken out of the wall time first.
    """

    def __init__(self):
        self.samples = [calibration_loop()]
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibration_loop())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float]:
        return len(self.samples), self.spent, time.perf_counter()

    def since(self, mark) -> tuple[float, float]:
        """Wall time since ``mark``, and the part of it not spent sampling scaled to the reference speed."""
        n, spent, t0 = mark
        wall = time.perf_counter() - t0
        window = self.samples[n:] or self.samples[-1:]
        return wall, (wall - (self.spent - spent)) * CALIBRATION_REF_S / statistics.median(window)


def run_pass(cli, invocations, speed, seconds: float, first: int = 0, tracer=None):
    """Run invocations in order from ``first``, cycling, for ``seconds``.

    Each record holds the invocation's wall time, which includes the host
    speed sampling (about 1%), and its ``scaled`` time at the reference
    speed, which does not. With a tracer every invocation runs twice in a
    row, untraced and then traced, so that both see the host alike.
    """
    records = []
    start = time.perf_counter()
    index = first
    while time.perf_counter() - start < seconds:
        item = index % len(invocations)
        inv = invocations[item]
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.invocation = index
                tracer.install()
            mark = speed.mark()
            try:
                rc, out = invoke(cli, inv.argv)
            finally:
                if traced:
                    tracer.uninstall()
            wall, scaled = speed.since(mark)
            failures = inv.check(rc, out)
            records.append({"item": item, "traced": traced, "wall": wall, "scaled": scaled,
                            "units": inv.units, "failed": len(failures), "failures": failures[:3],
                            "argv": " ".join(inv.argv) if failures else None})
        index += 1
    return records


def environment(seed: int, workload) -> dict:
    try:
        from bcstab import _kernels
        backend = "numba" if _kernels.USING_NUMBA else "python"
    except (ImportError, AttributeError):
        backend = "unknown"
    try:
        numba_version = metadata.version("numba")
    except metadata.PackageNotFoundError:
        numba_version = None
    import numpy
    return {
        "backend": backend, "python": platform.python_version(), "numpy": numpy.__version__,
        "numba": numba_version, "nproc": os.cpu_count(), "seed": seed, "sizes": workload.sizes,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0, help="0: set up and exit")
    ap.add_argument("--part", type=int, default=0, help="start this share of the way into the list")
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans", help="trace: file to write the spans to")
    args = ap.parse_args()

    speed = HostSpeed()
    speed.start()
    try:
        return run(args, speed)
    finally:
        speed.stop()


def run(args, speed: HostSpeed) -> int:
    cli = import_cli()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    rc, _ = invoke(cli, workload.warmup)
    if rc != 0:
        print(f"warm-up invocation exited {rc}", file=sys.stderr)
        return 1
    print("READY", flush=True)
    print(json.dumps({"calibration_s": statistics.median(speed.samples), "spent_s": speed.spent}),
          flush=True)
    if args.seconds <= 0:
        return 0

    invocations = workload.generate(args.seed)
    result = {"env": environment(args.seed, workload)}
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        records = run_pass(cli, invocations, speed, args.seconds, tracer=tracer)
        traced = [r for r in records if r["traced"]]
        overhead = (sum(r["scaled"] for r in traced)
                    / sum(r["scaled"] for r in records if not r["traced"]) - 1.0)
        layers, result["layer_times"] = tracer.layer_metrics(sum(r["wall"] for r in traced), overhead)
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["absent"] = tracer.absent
        if args.spans:
            with open(args.spans, "w") as fh:
                for record in tracer.span_records():
                    fh.write(json.dumps(record) + "\n")
    else:
        first = args.part * len(invocations) // args.parts
        records = run_pass(cli, invocations, speed, args.seconds, first)
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["records"] = [{k: r[k] for k in ("item", "traced", "wall", "scaled", "units")} for r in records]
    result["invocations"] = len(records)
    result["attempted"] = sum(r["units"] for r in records)
    result["failed"] = sum(r["failed"] for r in records)
    result["failures"] = [r for r in records if r["failed"]][:10]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
