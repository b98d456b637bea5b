"""Write, or compare against, tests/reference_records.json: every number the
package's scans and LHS suites report, thresholds as exact hex floats.

Run from the repository root:

    python3 tests/make_reference_records.py          # rewrite the file
    python3 tests/make_reference_records.py --diff   # compare, write nothing

``--diff`` prints, per scan, how many records are bit-equal to the committed
file and the largest shift of a number, and exits 1 if anything differs.
``tests/test_reference_records.py`` requires the rebuilt set to equal the
file exactly.  A change that moves numbers on purpose regenerates the file
in the same commit and quotes the ``--diff`` output it replaced.  The refined
d = 3 grid is left out: it takes seconds, not a fraction of one.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_FILE = ROOT / "tests" / "reference_records.json"
COMMAND = "python3 tests/make_reference_records.py"
RECORD_FIELDS = ["parameter", "detected (hex)", "exact", "saturated"]

if __name__ == "__main__":  # run as a script: import the checkout's own src
    sys.path.insert(0, str(ROOT / "src"))

from qsteer import scenarios  # noqa: E402


def _order(alpha: float) -> str:
    return "inf" if math.isinf(alpha) else repr(alpha)


def _scan(result) -> dict:
    meta = result.metadata
    settings = meta.get("max_entropy_settings")
    if "cases" in meta:
        settings = [case["max_entropy_setting"] for case in meta["cases"]]
    entry = {"alphas": [_order(a) for a in meta["alphas"]]}
    if settings is not None:
        entry["max_entropy_settings"] = settings
    entry["records"] = [[r.parameter, r.detected.hex(), r.exact, r.saturated] for r in result.records]
    return entry


def _lhs(report) -> dict:
    worst = dict(report.worst_case, alpha=_order(report.worst_case["alpha"]))
    return {"max_violation": report.max_violation.hex(), "worst_case": worst}


def build() -> dict:
    """The whole reference set, as the committed file holds it."""
    scans = {"fig1_scan(range(2, 11), [0.5, 0.7, 1, 2, inf])": _scan(
        scenarios.fig1_scan(range(2, 11), [0.5, 0.7, 1, 2, math.inf]))}
    for d in (2, 3, 5, 10):
        scans[f"mub_eta_scan({d}, 21)"] = _scan(scenarios.mub_eta_scan(d, 21))
    scans["qubit_angle_scan(linspace(0, 0.76, 8))"] = _scan(
        scenarios.qubit_angle_scan(np.linspace(0, 0.76, 8)))
    for s in range(1, 9):
        scans[f"qubit_random_povm_check(30, {s}, 1e-6)"] = _scan(
            scenarios.qubit_random_povm_check(30, s, 1e-6))
    scans["d3_family_scan(linspace(0, 0.5, 11))"] = _scan(scenarios.d3_family_scan(np.linspace(0, 0.5, 11)))
    lhs = {f"lhs_falsification_suite({seed}, {n})": _lhs(scenarios.lhs_falsification_suite(seed, n))
           for seed, n in ((42, 400), (7, 50))}
    return {"command": COMMAND, "record_fields": RECORD_FIELDS, "scans": scans, "lhs_suites": lhs}


def _shift(old: list, new: list) -> float:
    """Largest change of a record's detected or exact value; inf if its
    parameter, its saturation or whether it has an exact value changed."""
    if old[0] != new[0] or old[3] != new[3] or (old[2] is None) != (new[2] is None):
        return math.inf
    shifts = [abs(float.fromhex(new[1]) - float.fromhex(old[1]))]
    if old[2] is not None:
        shifts.append(abs(new[2] - old[2]))
    return max(shifts)


def diff(old: dict, new: dict) -> bool:
    """Print one line per scan and LHS suite; True when every entry is equal."""
    same = old.keys() == new.keys()
    for name, entry in new["scans"].items():
        ref = old["scans"].get(name)
        if ref is None:
            print(f"{name}: not in the committed file")
            same = False
            continue
        pairs = list(zip(ref["records"], entry["records"]))
        equal = sum(a == b for a, b in pairs)
        largest = max((_shift(a, b) for a, b in pairs), default=0.0)
        counts = len(ref["records"]) == len(entry["records"])
        meta = all(ref.get(k) == entry.get(k) for k in ("alphas", "max_entropy_settings"))
        print(f"{name}: {equal}/{len(entry['records'])} records bit-equal, largest shift {largest:.3g}"
              + ("" if counts else f", {len(ref['records'])} records committed")
              + ("" if meta else ", order settings differ"))
        same &= equal == len(entry["records"]) and counts and meta
    for name, entry in new["lhs_suites"].items():
        ref = old["lhs_suites"].get(name)
        if ref is None:
            print(f"{name}: not in the committed file")
            same = False
            continue
        shift = abs(float.fromhex(entry["max_violation"]) - float.fromhex(ref["max_violation"]))
        equal = ref["max_violation"] == entry["max_violation"]
        worst = ref["worst_case"] == entry["worst_case"]
        print(f"{name}: max_violation {'bit-equal' if equal else 'differs'}, shift {shift:.3g}"
              + ("" if worst else ", worst case differs"))
        same &= equal and worst
    return same and all(old[k].keys() == new[k].keys() for k in ("scans", "lhs_suites"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--diff", action="store_true", help="compare with the committed file, write nothing")
    args = parser.parse_args(argv)
    data = build()
    if args.diff:
        return 0 if diff(json.loads(REFERENCE_FILE.read_text()), data) else 1
    REFERENCE_FILE.write_text(json.dumps(data, indent=1) + "\n")
    n = sum(len(s["records"]) for s in data["scans"].values())
    print(f"wrote {n} records of {len(data['scans'])} scans and {len(data['lhs_suites'])} LHS suites"
          f" to {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
