"""Regenerate the mub_scan reference thresholds from the benchmark's own code.

Run from the repository root:

    python3 perfbench/make_reference.py

It solves every (d, alpha) pair of the mub_scan grid with the same call and
tolerance as the benchmark and writes perfbench/mub_reference.json.  Only
regenerate it on a commit whose thresholds are trusted: the benchmark fails
any later solve that moves by more than the tolerance.
"""

import json
import sys

from run import import_package

import_package()

import workloads  # noqa: E402

COMMAND = "python3 perfbench/make_reference.py"


def main():
    rows = [
        {"d": d, "alpha": workloads.alpha_key(a), "threshold": workloads.mub_solve(d, a)}
        for d in workloads.MUB_DIMS
        for a in workloads.MUB_ALPHAS
    ]
    data = {"command": COMMAND, "tol": workloads.MUB_TOL, "thresholds": rows}
    workloads.REFERENCE_FILE.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(rows)} thresholds to {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
