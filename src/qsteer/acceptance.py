"""Acceptance suite: the package's exit criteria, runnable from tests or the
CLI self-test.  Each criterion returns a result record with a one-line
detail string; its tolerances are pinned here (criterion 7 reads ``LhsFalsificationReport.sound``)."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import entropy, jointmeas, qobj, scenarios
from .entropy import (
    conditional_renyi,
    conditional_tsallis,
    dual_order,
    renyi_entropy,
    tsallis_entropy,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    runtime: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} ({self.runtime:.1f}s) - {self.detail}"


def _result(number: int, name: str, started: float, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(number, name, bool(passed), detail, time.perf_counter() - started)


def criterion_1_mub_tightness() -> CriterionResult:
    """The pipeline's symmetric thresholds and eta(chi) curves against the exact
    boundary, and the joint-measurability condition switching on it."""
    t0 = time.perf_counter()
    dims = range(2, 11)
    worst_sym = max(abs(r.gap) for r in scenarios.fig1_scan(dims, [0.5], 1e-13).records)
    worst_asym = max(abs(r.gap) for d in dims for r in scenarios.mub_eta_scan(d, 21, 1e-13).records)
    switch = True
    for d in dims:
        closed = jointmeas.mub_jm_threshold_symmetric(d)
        switch &= jointmeas.mub_jm_holds(d, closed, closed)
        switch &= not jointmeas.mub_jm_holds(d, closed + 1e-9, closed + 1e-9)
    passed = worst_sym <= 1e-12 and worst_asym <= 1e-12 and switch
    return _result(
        1,
        "MUB tightness",
        t0,
        passed,
        f"max symmetric dev {worst_sym:.2e} (tol 1e-12), "
        f"max eta(chi) dev {worst_asym:.2e} (tol 1e-12), "
        f"joint measurability switches within 1e-9 above the closed form: {switch}",
    )


def criterion_2_d2_threshold() -> CriterionResult:
    t0 = time.perf_counter()
    detected = scenarios.mub_pipeline_threshold(2, 0.5, tol=1e-6)
    dev_vis = abs(detected - 0.707107)
    dev_noise = abs((1.0 - detected) - 0.292893)
    passed = dev_vis <= 1e-5 and dev_noise <= 1e-5
    return _result(
        2,
        "d=2 pipeline threshold",
        t0,
        passed,
        f"detected visibility {detected:.7f} (target 0.707107 +- 1e-5)",
    )


def criterion_3_large_d_limit() -> CriterionResult:
    t0 = time.perf_counter()
    dims = (2, 10, 50, 400)
    values = [jointmeas.renyi_mub_threshold_symmetric(d, tol=1e-9) for d in dims]
    monotone = all(a > b for a, b in zip(values, values[1:]))
    limit_dev = abs(values[-1] - 0.5)
    # the pipeline at d = 50; at d = 400 each basis still builds about 1 GB of effects to validate
    exact_50 = jointmeas.mub_jm_threshold_symmetric(50)
    pipeline_50 = scenarios.mub_pipeline_threshold(50, 0.5, 1e-6)
    on_boundary = exact_50 <= pipeline_50 <= exact_50 + 1e-6
    passed = monotone and limit_dev <= 0.03 and on_boundary
    return _result(
        3,
        "large-d limit",
        t0,
        passed,
        f"thresholds {[f'{v:.5f}' for v in values]}, |v(400) - 0.5| = {limit_dev:.4f} (tol 0.03); "
        f"pipeline v(50) - exact = {pipeline_50 - exact_50:.2e} (needs [0, 1e-6])",
    )


def criterion_4_shannon_suboptimality() -> CriterionResult:
    t0 = time.perf_counter()
    scan = scenarios.fig1_scan(range(2, 9), [0.5, 0.7, 1.0, 2.0], tol=1e-7)
    detected = {(rec.parameter, rec.alpha): rec.detected for rec in scan.records}
    ok = True
    min_gap = math.inf
    for d in range(2, 9):
        t_half, t_07, t_one, t_two = (detected[d, a] for a in (0.5, 0.7, 1.0, 2.0))
        min_gap = min(min_gap, t_one - t_half)
        ok &= t_one - t_half > 1e-4
        ok &= t_half < t_07 < t_one
        ok &= t_half < t_two < t_one
    return _result(
        4,
        "Shannon suboptimality",
        t0,
        ok,
        f"min threshold(alpha=1)-threshold(alpha=1/2) gap {min_gap:.4f} over d=2..8 "
        "(needs > 1e-4); alpha in {0.7, 2} strictly between",
    )


def criterion_5_qubit_angles() -> CriterionResult:
    t0 = time.perf_counter()
    scan = scenarios.qubit_angle_scan(np.linspace(0.0, 0.76, 20), tol=1e-13)
    worst = max(abs(rec.detected - rec.exact) for rec in scan.records)  # Busch's boundary
    passed = worst <= 1e-12
    return _result(
        5,
        "qubit angle equivalence",
        t0,
        passed,
        f"max |pipeline - exact| {worst:.2e} (tol 1e-12)",
    )


def criterion_6_d3_family() -> CriterionResult:
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 0.5, 11)
    scan = scenarios.d3_family_scan(grid, tol=1e-6)
    first, last = scan.records[0], scan.records[-1]
    endpoint0 = abs(first.detected - 0.683013) <= 1e-5
    endpoint_half = last.saturated and last.detected == 1.0
    detected = [r.detected for r in scan.records]
    monotone = all(b >= a - 2e-6 for a, b in zip(detected, detected[1:]))
    passed = endpoint0 and endpoint_half and monotone
    return _result(
        6,
        "d=3 family endpoints",
        t0,
        passed,
        f"t=0 detected {first.detected:.6f} (target 0.683013 +- 1e-5); "
        f"t=0.5 detection: {'none' if last.saturated else 'UNEXPECTED'}; "
        f"non-decreasing: {monotone}",
    )


def criterion_7_lhs_falsification() -> CriterionResult:
    t0 = time.perf_counter()
    report = scenarios.lhs_falsification_suite(seed=42, n_models=10_000)
    return _result(
        7,
        "LHS falsification",
        t0,
        report.sound,
        f"max violation {report.max_violation:.3e} over {report.n_evaluations} "
        "evaluations (tol 1e-9)",
    )


def _random_joint(rng: np.random.Generator, shape) -> np.ndarray:
    table = rng.dirichlet(np.ones(int(np.prod(shape))))
    return table.reshape(shape)


def _random_pure_qubit(rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


def criterion_8_entropy_suite() -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures: list[str] = []

    def check(ok: bool, label: str):
        if not ok:
            failures.append(label)

    # dispatch vs generic near the special orders
    probe_tables = [
        np.array([[0.4, 0.1], [0.1, 0.4]]),
        np.array([[0.15, 0.05, 0.30], [0.20, 0.10, 0.20]]),
    ] + [_random_joint(rng, (3, 4)) for _ in range(20)]
    for table in probe_tables:
        near_one, large = entropy.dispatch_deviations(table)
        check(
            near_one <= 1e-10, "generic formula deviates from the Shannon dispatch near alpha=1"
        )
        check(
            large <= 1e-10, "generic formula deviates from the min-entropy dispatch at large alpha"
        )

    # conditioning reduces entropy: H(X|Y1) >= H(X|Y1,Y2)
    orders = (0.5, 0.7, 1.0, 2.0, math.inf)
    for _ in range(500):
        nx, n1, n2 = rng.integers(2, 6, size=3)
        cube = _random_joint(rng, (nx, n1, n2))
        flat = cube.reshape(nx, n1 * n2)
        coarse = cube.sum(axis=2)
        for a in orders:
            check(
                conditional_renyi(coarse, a) >= conditional_renyi(flat, a) - 1e-10,
                f"conditioning increased entropy at alpha={a}",
            )

    # uncorrelated limit: product joints leave the entropy unchanged
    for _ in range(200):
        nx, ny = rng.integers(2, 6, size=2)
        px = rng.dirichlet(np.ones(nx))
        py = rng.dirichlet(np.ones(ny))
        product = np.outer(px, py)
        for a in orders:
            check(
                abs(conditional_renyi(product, a) - renyi_entropy(px, a)) <= 1e-10,
                f"uncorrelated limit broken at alpha={a}",
            )

    # concavity of conditional Shannon entropy under mixing
    for _ in range(200):
        k = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(k))
        parts = [_random_joint(rng, (3, 3)) for _ in range(k)]
        mixed = sum(w * p for w, p in zip(weights, parts))
        avg = sum(w * conditional_renyi(p, 1.0) for w, p in zip(weights, parts))
        check(
            conditional_renyi(mixed, 1.0) >= avg - 1e-10,
            "conditional Shannon entropy is not concave under mixing",
        )

    # entropic uncertainty relation on random pure qubit states
    fourier = qobj.fourier_matrix(2)
    for _ in range(1000):
        psi = _random_pure_qubit(rng)
        p_z = np.abs(psi) ** 2
        p_x = np.abs(fourier.conj().T @ psi) ** 2
        for a in (0.5, 1.0, 2.0):
            b = dual_order(a)
            check(
                renyi_entropy(p_x, a) + renyi_entropy(p_z, b) >= 1.0 - 1e-10,
                f"uncertainty relation violated at (alpha, beta)=({a}, {b})",
            )

    # Tsallis block
    for q in (1.2, 1.5, 2.0):
        for _ in range(100):
            px = rng.dirichlet(np.ones(3))
            py = rng.dirichlet(np.ones(4))
            product = np.outer(px, py)
            sq_joint = tsallis_entropy(product.reshape(-1), q)
            sx, sy = tsallis_entropy(px, q), tsallis_entropy(py, q)
            check(
                abs(sq_joint - (sx + sy + (1 - q) * sx * sy)) <= 1e-12,
                f"pseudo-additivity broken at q={q}",
            )
            check(sq_joint <= sx + sy + 1e-12, f"subadditivity broken at q={q}")
            joint = _random_joint(rng, (3, 4))
            lhs = tsallis_entropy(joint.reshape(-1), q)
            rhs = conditional_tsallis(joint, q) + tsallis_entropy(joint.sum(axis=0), q)
            check(abs(lhs - rhs) <= 1e-12, f"chain rule broken at q={q}")
    # the uncorrelated limit must *fail* for Tsallis q != 1
    uniform4 = np.full((2, 2), 0.25)
    drop = tsallis_entropy(np.array([0.5, 0.5]), 2.0) - conditional_tsallis(uniform4, 2.0)
    check(drop > 1e-6, "Tsallis uncorrelated limit unexpectedly holds")

    passed = not failures
    detail = "all properties hold" if passed else "; ".join(sorted(set(failures))[:3])
    return _result(8, "entropy property suite", t0, passed, detail)


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_1_mub_tightness,
    criterion_2_d2_threshold,
    criterion_3_large_d_limit,
    criterion_4_shannon_suboptimality,
    criterion_5_qubit_angles,
    criterion_6_d3_family,
    criterion_7_lhs_falsification,
    criterion_8_entropy_suite,
)


def run_all() -> list[CriterionResult]:
    """Run every acceptance criterion, printing one line per result."""
    results = []
    for criterion in ALL_CRITERIA:
        result = criterion()
        results.append(result)
        print(result.line())
    return results
