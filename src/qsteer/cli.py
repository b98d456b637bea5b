"""Command-line surface: scans, checks, CSV/SVG emission, self-test.

Thin adapters only; every number printed here is produced by the entropy,
steering or scenarios APIs.  Exit codes: 0 success, 2 usage or
validation error, 1 internal failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import acceptance, scenarios, steering
from .entropy import (
    JointDistribution,
    conditional_renyi,
    conditional_tsallis,
    dual_order,
    renyi_entropy,
    tsallis_entropy,
)
from .qobj import depolarize, joint_distribution, mub_pair
from .scenarios import ScanResult


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.9g}"


def emit_csv(result: ScanResult, path: str) -> None:
    """Write a scan as UTF-8 CSV, LF endings: 9 significant digits, the gap to 12 decimals, never -0."""
    name = result.metadata.get("parameter_name", "parameter")
    lines = [f"{name},alpha,beta,detected_visibility,exact_visibility,gap"]
    for rec in result.records:
        gap = "" if rec.gap is None else f"{round(rec.gap, 12) + 0.0:.12f}"
        row = (rec.parameter, rec.alpha, dual_order(rec.alpha), rec.detected, rec.exact)
        lines.append(",".join([*map(_fmt, row), gap]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_SVG_COLORS = ("#1f6fb2", "#c23b22", "#2e8540", "#7d3fa8", "#b08000", "#147d7d")


def emit_svg(result: ScanResult, path: str) -> None:
    """Standalone SVG line chart: one polyline per entropy order plus a
    dashed exact-threshold reference where available."""
    if not result.records:
        raise ValueError("cannot plot an empty scan")
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 30, 50
    xs = [r.parameter for r in result.records]
    ys = [r.detected for r in result.records] + [
        r.exact for r in result.records if r.exact is not None
    ]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0
    pad = max(0.02 * (y_hi - y_lo), 0.01)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(y: float) -> float:
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    def pts(pairs) -> str:
        return " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pairs)

    series: dict[float, list[tuple[float, float]]] = {}
    for rec in result.records:
        series.setdefault(rec.alpha, []).append((rec.parameter, rec.detected))
    exact_pts = [(r.parameter, r.exact) for r in result.records if r.exact is not None]

    name = result.metadata.get("parameter_name", "parameter")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4
        yv = y_lo + i * (y_hi - y_lo) / 4
        parts.append(
            f'<text x="{px(xv):.2f}" y="{height - mb + 18}" font-size="11" '
            f'text-anchor="middle">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{py(yv) + 4:.2f}" font-size="11" '
            f'text-anchor="end">{yv:.3g}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 12}" font-size="13" '
        f'text-anchor="middle">{name}</text>'
    )
    parts.append(
        f'<text x="18" y="{(mt + height - mb) / 2:.2f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 18 {(mt + height - mb) / 2:.2f})">'
        "detected visibility threshold</text>"
    )
    if len(exact_pts) >= 2:
        parts.append(
            f'<polyline points="{pts(exact_pts)}" fill="none" stroke="#555555" '
            'stroke-width="1.5" stroke-dasharray="6 4"/>'
        )
        parts.append(
            f'<text x="{width - mr - 4}" y="{mt + 14}" font-size="11" '
            'text-anchor="end" fill="#555555">exact boundary</text>'
        )
    for i, (alpha, pairs) in enumerate(sorted(series.items())):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        parts.append(
            f'<polyline points="{pts(pairs)}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - mr - 4}" y="{mt + 30 + 14 * i}" font-size="11" '
            f'text-anchor="end" fill="{color}">alpha={alpha:g}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _float_list(noun: str):
    """Parser of comma-separated floats ("inf" allowed) that names a bad list by
    ``noun``; the library checks each value."""
    def parse(text: str) -> list[float]:
        try:
            return [float(part) for part in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {noun} list: {text!r}")

    return parse


def _joint_table(text: str) -> list[list[float]]:
    """Rows separated by ";", each comma-separated floats; the library checks the table."""
    try:
        return [[float(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad joint table: {text!r}")


def _int_range(text: str) -> list[int]:
    """A dimension range lo..hi, or one dimension; the library checks each."""
    lo, sep, hi = text.partition("..")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if sep else lo_i
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension range: {text!r}")
    if hi_i < lo_i:
        raise argparse.ArgumentTypeError(f"bad dimension range: {text!r}")
    return list(range(lo_i, hi_i + 1))


def _grid(text: str) -> np.ndarray:
    """start:stop:count linear grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must look like start:stop:count")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid: {text!r}")
    if n < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad grid: {text!r}")
    return np.linspace(lo, hi, n)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsteer",
        description="Entropic steering criteria, thresholds and tightness scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="evaluate a Renyi or Tsallis entropy")
    p.add_argument("--probs", type=_float_list("probability"), help="distribution, e.g. 0.9,0.1")
    p.add_argument("--joint", type=_joint_table, help="joint table rows ; separated, e.g. 0.4,0.1;0.1,0.4")
    p.add_argument("--alpha", type=float, default=1.0, help="Renyi order (inf allowed)")
    p.add_argument("--tsallis-q", type=float, help="evaluate the Tsallis q-entropy instead")

    p = sub.add_parser("check", help="evaluate the steering certificate for noisy MUBs")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--va", type=float, default=1.0, help="visibility, min-entropy side")
    p.add_argument("--vx", type=float, default=1.0, help="visibility, max-entropy side")

    p = sub.add_parser("threshold", help="detected symmetric threshold for noisy MUBs")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("scan-fig1", help="threshold vs dimension for several orders")
    p.add_argument("--d", type=_int_range, default=list(range(2, 11)), help="e.g. 2..10")
    p.add_argument("--alphas", type=_float_list("order"), default=[0.5, 0.7, 1.0, math.inf])
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--csv", help="write records to this CSV path")
    p.add_argument("--svg", help="write a line chart to this SVG path")

    p = sub.add_parser("scan-qubit", help="qubit angle scan against the exact boundary")
    p.add_argument("--thetas", type=_grid, default=np.linspace(0.0, 0.76, 20),
                   help="start:stop:count in radians, default 0:0.76:20")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--csv")
    p.add_argument("--svg")

    p = sub.add_parser("scan-d3", help="d=3 rotated-family scan")
    p.add_argument("--t-grid", type=_grid, default=np.linspace(0.0, 0.5, 11),
                   help="start:stop:count, default 0:0.5:11")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--refine-bob", action="store_true",
                   help="also search unitary turns of Bob's bases for a lower threshold (slow); "
                        "at t >= 0.25 it stalls at H = 0 once tol >= about 3e-4")
    p.add_argument("--csv")
    p.add_argument("--svg")

    p = sub.add_parser("tightness", help="compare the pipeline's and the exact eta(chi) curves")
    p.add_argument("--d", type=_int_range, default=list(range(2, 11)), help="e.g. 2..10")
    p.add_argument("--grid-points", type=int, default=21)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("lhs-test", help="local-hidden-state falsification run")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n-models", type=int, default=1000)

    sub.add_parser("selftest", help="run the acceptance criteria")
    return parser


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------


def _cmd_entropy(args) -> int:
    if (args.probs is None) == (args.joint is None):
        print("provide exactly one of --probs or --joint", file=sys.stderr)
        return 2
    if args.probs is not None:
        if args.tsallis_q is not None:
            value = tsallis_entropy(args.probs, args.tsallis_q)
            print(f"{value:.9g} nats (Tsallis q={args.tsallis_q:g})")
        else:
            value = renyi_entropy(args.probs, args.alpha)
            print(f"{value:.9g} bits (Renyi alpha={args.alpha:g})")
    else:
        if len({len(row) for row in args.joint}) != 1:
            raise ValueError("--joint rows must have equal length")
        joint = JointDistribution(args.joint)
        if args.tsallis_q is not None:
            value = conditional_tsallis(joint, args.tsallis_q)
            print(f"{value:.9g} nats (conditional Tsallis q={args.tsallis_q:g})")
        else:
            value = conditional_renyi(joint, args.alpha)
            print(f"{value:.9g} bits (conditional Renyi alpha={args.alpha:g})")
    return 0


def _cmd_check(args) -> int:
    comp, four = mub_pair(args.d)
    noisy_x, noisy_z = depolarize(four, args.vx), depolarize(comp, args.va)
    jx, jz = joint_distribution(noisy_x, four), joint_distribution(noisy_z, comp)
    bound, lhs = steering.overlap_bound(four, comp), steering.steering_lhs(jx, jz, args.alpha)
    violation = bound - lhs  # steering.evaluate's value; bound - violation would round a tiny lhs away
    print(f"lhs       {lhs:.9g} bits")
    print(f"bound     {bound:.9g} bits")
    print(f"violation {violation:.9g} bits")
    print(f"steering  {'detected' if violation > 0.0 else 'not detected'}")
    return 0


def _cmd_threshold(args) -> int:
    detected = scenarios.mub_pipeline_threshold(args.d, args.alpha, args.tol)
    print(f"{detected:.6f}  (visibility)")
    print(f"{1.0 - detected:.6f}  (noise = 1 - visibility)")
    return 0


def _emit_outputs(result: ScanResult, args) -> None:
    if getattr(args, "csv", None):
        emit_csv(result, args.csv)
        print(f"wrote {args.csv}")
    if getattr(args, "svg", None):
        emit_svg(result, args.svg)
        print(f"wrote {args.svg}")


def _cmd_scan_fig1(args) -> int:
    result = scenarios.fig1_scan(args.d, args.alphas, args.tol)
    for rec in result.records:
        print(
            f"d={rec.parameter:g} alpha={rec.alpha:g} detected={rec.detected:.7f} "
            f"noise={1 - rec.detected:.7f} exact={rec.exact:.7f} gap={rec.gap:.2e}"
        )
    _emit_outputs(result, args)
    return 0


def _cmd_scan_qubit(args) -> int:
    result = scenarios.qubit_angle_scan(args.thetas, args.tol)
    for rec in result.records:
        print(
            f"theta={rec.parameter:.4f} detected={rec.detected:.7f} "
            f"exact={rec.exact:.7f} gap={rec.gap:.2e}"
        )
    _emit_outputs(result, args)
    return 0


def _cmd_scan_d3(args) -> int:
    result = scenarios.d3_family_scan(args.t_grid, args.tol, refine_bob=args.refine_bob)
    for rec in result.records:
        exact = "unknown" if rec.exact is None else f"{rec.exact:.7f}"
        note = " (no detection)" if rec.saturated else ""
        print(f"t={rec.parameter:.3f} detected={rec.detected:.7f} exact={exact}{note}")
    _emit_outputs(result, args)
    return 0


def _cmd_tightness(args) -> int:
    worst = 0.0
    for d in args.d:
        scan = scenarios.mub_eta_scan(d, args.grid_points, args.tol)
        dev = max(abs(rec.gap) for rec in scan.records)
        worst = max(worst, dev)
        print(f"d={d}: max |eta_pipeline(chi) - eta_exact(chi)| = {dev:.3e}")
    print(f"overall max deviation {worst:.3e}")
    return 0


def _cmd_lhs_test(args) -> int:
    report = scenarios.lhs_falsification_suite(args.seed, args.n_models)
    print(
        f"max violation {report.max_violation:.3e} over {report.n_evaluations} "
        f"evaluations ({report.n_models} models, dims {report.dims})"
    )
    if report.worst_case:
        w = report.worst_case
        print(f"worst case: d={w['d']}, model {w['model_index']} of {w['stack_size']} from stack seed "
              f"{w['stack_seed']}, n_lambda={w['n_lambda']}, alpha={w['alpha']!r}, Bob pair {w['bob_pair']}")
    if not report.sound:
        print("INTERNAL ERROR: a local-hidden-state model violated the criterion",
              file=sys.stderr)
        return 1
    print("no local-hidden-state violation found")
    return 0


def _cmd_selftest(_args) -> int:
    results = acceptance.run_all()
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} acceptance criteria passed")
    return 1 if failed else 0


_COMMANDS = {
    "entropy": _cmd_entropy,
    "check": _cmd_check,
    "threshold": _cmd_threshold,
    "scan-fig1": _cmd_scan_fig1,
    "scan-qubit": _cmd_scan_qubit,
    "scan-d3": _cmd_scan_d3,
    "tightness": _cmd_tightness,
    "lhs-test": _cmd_lhs_test,
    "selftest": _cmd_selftest,
}


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
