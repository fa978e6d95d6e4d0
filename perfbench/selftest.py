"""Self-test of the benchmark's checks: each passes a real result and flags a corrupted one.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

One invocation of each workload runs for real; its output must pass its
check. Then a copy of the output is corrupted the way a wrong program could
corrupt it, and the check must report a failed unit. Exits 1 if any check
lets a corrupted result through or rejects a real one.
"""

from __future__ import annotations

import json
import sys

import workloads
from child import import_cli, invoke


def edited(out: str, edit) -> str:
    payload = json.loads(out)
    edit(payload)
    return json.dumps(payload)


def flip_verdict(payload) -> None:
    """Give one point outside the band the opposite verdict, consistently in every column."""
    row = next(r for r in payload["rows"] if not r["in_band"] and r["membership"] != "boundary")
    flipped = "unstable" if row["system_verdict"] == "stable" else "stable"
    row["verdict1"] = row["verdict2"] = row["system_verdict"] = flipped


def miss_frontier(payload) -> None:
    payload["rows"][0]["delta_lambda1"] = 0.05


def skew_empty_fraction(payload) -> None:
    row = payload["rows"][0]
    real = 2 if row["lambda1"] == 0.0 else 1
    row[f"empty_fraction{real}"] *= 1.1


def main() -> int:
    cli = import_cli()
    cases = [
        ("sweep-coupled", "flipped out-of-band verdict", lambda rc, out: (rc, edited(out, flip_verdict))),
        ("bisect-frontier", "frontier delta of 0.05", lambda rc, out: (rc, edited(out, miss_frontier))),
        ("dominant-oracle", "empty fraction off by 10%", lambda rc, out: (rc, edited(out, skew_empty_fraction))),
        ("mc-verify", "exit code 5", lambda rc, out: (5, out)),
    ]
    bad = 0
    for name, what, corrupt in cases:
        inv = workloads.WORKLOADS[name].generate(1)[-1]
        rc, out = invoke(cli, inv.argv)
        real = inv.check(rc, out)
        flagged = inv.check(*corrupt(rc, out))
        ok = not real and len(flagged) == 1
        bad += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: real result -> {real or 'no failures'}; "
              f"{what} -> {flagged or 'not flagged'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
