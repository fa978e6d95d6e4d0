"""Hash the output of the benchmark's workloads, to show that a change left it alone.

Usage:
    python benchmarks/output_digest.py --workload sweep-coupled --seeds 1 2 3
    python benchmarks/output_digest.py --workload all
    python benchmarks/output_digest.py --workload dominant-oracle --mask drift_slope1 drift_slope2

For each workload and seed it runs every invocation of the list that
``perfbench/workloads.py`` makes from that seed, in process through
``bcstab.cli.main`` (with ``perfbench/child.py``'s ``invoke``, so exit codes
read as the benchmark reads them), and prints one line: the workload, the
seed and the sha256 of the concatenated ``f"{exit_code}\\n{stdout}"`` of
the invocations, in list order. Run it on two checkouts: equal hashes mean
byte-identical exit codes and standard output.

``--mask`` drops the named fields from every row of each JSON output and
hashes the rest, re-serialised with sorted keys, so that a declared change
to those fields can be told from any other. Outputs that are not JSON are
hashed as they are.

The checkout's ``src/`` and ``perfbench/`` are put first on the import
path; nothing under ``perfbench/`` is changed.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from child import import_cli, invoke  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def masked(out: str, fields: list[str]) -> str:
    try:
        doc = json.loads(out)
    except ValueError:
        return out
    for row in doc.get("rows", []):
        for name in fields:
            row.pop(name, None)
    return json.dumps(doc, sort_keys=True)


def digest(cli, workload, seed: int, mask: list[str]) -> str:
    h = hashlib.sha256()
    for invocation in workload.generate(seed):
        rc, out = invoke(cli, invocation.argv)
        h.update(f"{rc}\n{masked(out, mask) if mask else out}".encode())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--mask", nargs="+", default=[], metavar="FIELD",
                    help="drop these fields from every JSON output row before hashing")
    args = ap.parse_args()

    cli = import_cli()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        for seed in args.seeds:
            print(f"{name} seed {seed} {digest(cli, WORKLOADS[name], seed, args.mask)}", flush=True)


if __name__ == "__main__":
    main()
