"""End-to-end experiment drivers: noise-threshold scans over the full
pipeline (Born tables on the maximally entangled state at visibility 1 and
0 -> their mixture -> entropic criterion -> bisected threshold) and the
local-hidden-state falsification suite.

Detected thresholds always come from bisection of the actual pipeline and
report the detecting side of the final bracket, so they can undershoot an
exact boundary only by floating-point noise, never by bisection width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import steering
from .config import DEFAULT_TOLS
from .entropy import JointDistribution, dual_order
from .jointmeas import (
    ThresholdRecord,
    ThresholdSolution,
    bisect_threshold,
    mub_jm_threshold_symmetric,
    qubit_exact_threshold,
)
from .qobj import Povm, joint_distribution, mub_pair, qubit_povm, rotated_d3_bases


@dataclass(frozen=True)
class ScanResult:
    """Threshold-scan output: records sorted by parameter plus run metadata."""

    records: tuple[ThresholdRecord, ...]
    metadata: dict = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        params = [r.parameter for r in self.records]
        if params != sorted(params):
            raise ValueError("scan records must be sorted by parameter")


def _pipeline_tables(alice_x: Povm, alice_z: Povm, bob_x: Povm, bob_z: Povm) -> tuple:
    """Bob-first Born tables on |Phi+> at visibility 1 and 0 for both settings,
    and Bob's bound: what a threshold solve needs, whatever the order.

    At v = 0 Alice's effect E_a is tr(E_a) I/d, and the E_a sum to I, so that
    table is Bob's marginal times tr(E_a)/d and needs no contraction."""
    t1 = steering.born_statistics(alice_x, alice_z, bob_x, bob_z)
    traces = (np.trace(a.effects, axis1=1, axis2=2).real / a.dim for a in (alice_x, alice_z))
    t0 = tuple(JointDistribution(np.outer(t.table.sum(axis=1), w)) for t, w in zip(t1, traces))
    return t1, t0, steering.overlap_bound(bob_x, bob_z)


def _pipeline_threshold(tables: tuple, alpha: float, tol: float) -> ThresholdSolution:
    """Smallest visibility, applied to both of Alice's measurements, at which
    the full pipeline detects steering; saturated at 1 if none does.

    ``depolarize`` is affine in v and the Born rule linear, so the tables are
    T(v) = v T(1) + (1 - v) T(0): a probe mixes the precomputed ``tables`` and
    makes one ``steering.evaluate``."""
    t1, t0, bound = tables

    def detects(v: float) -> bool:
        jx, jz = (JointDistribution(v * a.table + (1.0 - v) * b.table) for a, b in zip(t1, t0))
        return steering.evaluate(jx, jz, bound, alpha).violation > 0.0

    return bisect_threshold(detects, tol)


def _mub_tables(d: int) -> tuple:
    """Pipeline tables for noisy MUBs on the maximally entangled state."""
    comp, four = mub_pair(d)
    return _pipeline_tables(four, comp, four, comp)


def mub_pipeline_threshold(d: int, alpha: float, tol: float = 1e-6) -> float:
    """Detected symmetric visibility threshold for noisy MUBs, full pipeline."""
    if not alpha >= 0.5:
        raise ValueError(f"criterion needs alpha >= 1/2, got {alpha!r}")
    return _pipeline_threshold(_mub_tables(d), alpha, tol).value


def fig1_scan(
    d_range: Iterable[int], alphas: Sequence[float], tol: float = 1e-6
) -> ScanResult:
    """Detected vs exact symmetric thresholds over dimensions and orders.

    For each dimension and each entropy order, the detected column is the
    pipeline bisection threshold and the exact column the closed-form
    joint-measurability boundary.  The min/max-entropy rows (alpha = 1/2)
    reproduce the boundary itself; Shannon rows sit strictly above it.
    """
    dims = sorted(d_range)
    alphas = [float(a) for a in alphas]
    if not dims or not alphas:
        raise ValueError("fig1_scan needs at least one dimension and one order")
    for a in alphas:
        if not a >= 0.5:
            raise ValueError(f"criterion needs alpha >= 1/2, got {a!r}")
    exacts = [mub_jm_threshold_symmetric(d) for d in dims]  # checks every d before a solve
    records = []
    for d, exact in zip(dims, exacts):
        tables = _mub_tables(d)
        for a in sorted(alphas):
            detected = _pipeline_threshold(tables, a, tol).value
            records.append(
                ThresholdRecord(parameter=float(d), detected=detected, exact=exact, alpha=a)
            )
    metadata = {
        "scenario": "mub-symmetric-noise",
        "parameter_name": "d",
        "alphas": sorted(alphas),
        "betas": [dual_order(a) for a in sorted(alphas)],
        "grid": [float(d) for d in dims],
        "tol": tol,
        "seed": None,
    }
    return ScanResult(tuple(records), metadata)


# ---------------------------------------------------------------------------
# qubit scenarios
# ---------------------------------------------------------------------------


def _mirror_y(u: np.ndarray) -> np.ndarray:
    """Transposing a qubit effect flips the y Bloch component."""
    return np.array([u[0], -u[1], u[2]])


def _unit(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return u / np.linalg.norm(u)


def _fig2_bob_directions(dir_z: np.ndarray, dir_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal Bob pair symmetrically surrounding Alice's Bloch directions.

    Returns measurement directions (x setting, z setting) already mirrored so
    that the *effective* correlation geometry on the maximally entangled
    state is the symmetric one.
    """
    zd, xd = _unit(dir_z), _unit(dir_x)
    if np.dot(zd, xd) < 0.0:  # fold to the acute pairing; a sign is a relabel
        xd = -xd
    mid = zd + xd
    norm = np.linalg.norm(mid)
    if norm < 1e-9:
        raise ValueError("Alice directions are antipodal; geometry undefined")
    mid /= norm
    perp = zd - xd
    if np.linalg.norm(perp) < 1e-12:
        perp = np.array([1.0, 0.0, 0.0]) if abs(mid[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        perp -= mid * np.dot(perp, mid)
    perp = _unit(perp)
    s = math.sqrt(0.5)
    cand_a, cand_b = s * mid + s * perp, s * mid - s * perp
    if np.dot(cand_a, zd) >= np.dot(cand_b, zd):
        eff_z, eff_x = cand_a, cand_b
    else:
        eff_z, eff_x = cand_b, cand_a
    return _mirror_y(eff_x), _mirror_y(eff_z)


def _sph(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def _angles_of(u: np.ndarray) -> tuple[float, float]:
    return math.acos(max(-1.0, min(1.0, u[2]))), math.atan2(u[1], u[0])


def _qubit_violation(
    bias_x: float,
    bloch_x: np.ndarray,
    bloch_z: np.ndarray,
    u_x: np.ndarray,
    u_z: np.ndarray,
) -> Callable[[float], float]:
    """Min/max-entropy criterion violation as a function of Alice's
    visibility v, for her binary qubit POVMs (I +- (b I + v r.sigma))/2 and
    Bob projective along ``u_x`` and ``u_z``, on the maximally entangled state.

    With m flipping the y component (the transpose) and c = r . m(u), Alice's
    outcome s and Bob's t (signs) occur with p(t, s) = (1 + s b + s t v c)/4.
    The max-entropy term, log2 of the sum over s of (sqrt p(+, s) + sqrt p(-, s))^2,
    is log2(1 + (sqrt((1 + b_x)^2 - (v c_x)^2) + sqrt((1 - b_x)^2 - (v c_x)^2))/2);
    on extremal POVMs a radicand reaches zero, and rounding can take it below.
    The min-entropy term sums the column maxima (1 + s b_z + v|c_z|)/4, so b_z
    cancels and it is -log2((1 + v|c_z|)/2).  Matches steering.evaluate on the
    same scenario (cross-checked in the test suite); used inside optimizer
    loops where object construction would dominate.
    """
    q = -math.log2((1.0 + abs(float(np.dot(u_x, u_z)))) / 2.0)
    c_x = float(np.dot(bloch_x, _mirror_y(u_x)))
    c_z = abs(float(np.dot(bloch_z, _mirror_y(u_z))))
    plus, minus = (1.0 + bias_x) ** 2, (1.0 - bias_x) ** 2

    def violation(v: float) -> float:
        s = (v * c_x) ** 2
        root = math.sqrt(max(plus - s, 0.0)) + math.sqrt(max(minus - s, 0.0))
        return q - math.log2(1.0 + root / 2.0) + math.log2((1.0 + v * c_z) / 2.0)

    return violation


def qubit_angle_scan(theta_grid: Sequence[float], tol: float = 1e-6) -> ScanResult:
    """Equal-visibility unbiased qubit pair at Bloch angle 90deg - 2 theta.

    Alice's directions sit in the x-z plane, Bob measures the orthogonal
    pair symmetrically surrounding them.  Per angle the detected threshold
    comes from pipeline bisection at alpha = 1/2 and the exact one from the
    closed-form qubit boundary; the scan also verifies the conditional
    probabilities (1 +- v cos theta)/2 before trusting its own statistics.
    """
    thetas = [float(t) for t in theta_grid]
    for t in thetas:
        if not 0.0 <= t < math.pi / 4.0:
            raise ValueError(f"theta must lie in [0, pi/4), got {t!r}")
    bob_z = Povm.from_basis(np.eye(2, dtype=complex))
    bob_x = qubit_povm(0.0, (1.0, 0.0, 0.0))
    records = []
    for t in sorted(thetas):
        dir_z = np.array([math.sin(t), 0.0, math.cos(t)])
        dir_x = np.array([math.cos(t), 0.0, math.sin(t)])

        probe = 0.7
        jz = joint_distribution(qubit_povm(0.0, probe * dir_z), bob_z).swapped()
        expected = np.array(
            [
                [(1 + probe * math.cos(t)) / 4, (1 - probe * math.cos(t)) / 4],
                [(1 - probe * math.cos(t)) / 4, (1 + probe * math.cos(t)) / 4],
            ]
        )
        if np.abs(jz.table - expected).max() > 1e-12:
            raise RuntimeError("pipeline statistics deviate from the closed form")

        tables = _pipeline_tables(qubit_povm(0.0, dir_x), qubit_povm(0.0, dir_z), bob_x, bob_z)
        detected, saturated = _pipeline_threshold(tables, 0.5, tol)
        records.append(
            ThresholdRecord(
                parameter=t,
                detected=detected,
                exact=qubit_exact_threshold(dir_z, dir_x),
                alpha=0.5,
                saturated=saturated,
            )
        )
    metadata = {
        "scenario": "qubit-angle",
        "parameter_name": "theta",
        "alphas": [0.5],
        "betas": [math.inf],
        "grid": sorted(thetas),
        "tol": tol,
        "seed": None,
    }
    return ScanResult(tuple(records), metadata)


_OPT_EXTRA_STARTS = (
    (0.3, 0.1, 1.8, 0.9),
    (1.2, 2.5, 0.4, 4.0),
    (2.0, 1.0, 1.0, 5.0),
    (0.7, 3.3, 2.3, 2.2),
    (math.pi / 2, 0.0, 0.0, 0.0),
    (1.0, 1.0, 2.0, 4.5),
    (2.6, 5.0, 0.9, 1.4),
)


def _coordinate_search(
    objective: Callable[[np.ndarray], float],
    start: Sequence[float],
    step0: float = 0.3,
    ftol: float = 1e-8,
) -> tuple[np.ndarray, float]:
    """Deterministic pattern search: cycle coordinates, halve the step to 1e-4."""
    x = np.asarray(start, dtype=float).copy()
    f = objective(x)
    step = step0
    while step > 1e-4:
        improved = False
        for i in range(x.size):
            for s in (step, -step):
                y = x.copy()
                y[i] += s
                fy = objective(y)
                if fy < f - ftol:
                    x, f = y, fy
                    improved = True
        if not improved:
            step *= 0.5
    return x, f


def _qubit_case_threshold(
    bias_x: float,
    bloch_x: np.ndarray,
    bloch_z: np.ndarray,
    u_x: np.ndarray,
    u_z: np.ndarray,
    tol: float,
) -> float:
    violation = _qubit_violation(bias_x, bloch_x, bloch_z, u_x, u_z)
    return bisect_threshold(lambda v: violation(v) > 0.0, tol).value


def _optimize_bob_qubit(
    bias_x: float,
    bloch_x: np.ndarray,
    bloch_z: np.ndarray,
    baseline: tuple[np.ndarray, np.ndarray],
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Bob's two projective directions that minimize the detected threshold.

    Eight deterministic restarts, the first at the symmetric-geometry
    baseline; pattern search over the four spherical angles.
    """

    def objective(angles: np.ndarray) -> float:
        return _qubit_case_threshold(
            bias_x,
            bloch_x,
            bloch_z,
            _sph(angles[0], angles[1]),
            _sph(angles[2], angles[3]),
            tol * 0.25,
        )

    starts = [(*_angles_of(baseline[0]), *_angles_of(baseline[1]))]
    starts.extend(_OPT_EXTRA_STARTS)
    best_f, best_x = math.inf, None
    for st in starts:
        x, f = _coordinate_search(objective, st, ftol=tol * 0.5)
        if f < best_f:
            best_f, best_x = f, x
    return _sph(best_x[0], best_x[1]), _sph(best_x[2], best_x[3])


def qubit_random_povm_check(
    n_cases: int, seed: int, tol: float = 1e-6
) -> ScanResult:
    """Random biased binary qubit POVM pairs with optimizer-chosen Bob.

    Cases cycle through three kinds: unbiased symmetric (where the exact
    boundary is known and the detected threshold must meet it), unbiased
    asymmetric (exact known, sufficiency only), and biased (exact boundary
    external; reported without an exact column).  The scan reports, per
    case, the optimized detected threshold and the symmetric-geometry
    baseline it started from; it asserts nothing about tightness beyond the
    sufficiency direction.
    """
    if n_cases < 1:
        raise ValueError("n_cases must be at least 1")
    rng = np.random.default_rng(seed)
    records = []
    cases = []
    for idx in range(n_cases):
        kind = ("unbiased-symmetric", "unbiased-asymmetric", "biased")[idx % 3]
        dir_z = _unit(rng.normal(size=3))
        dir_x = _unit(rng.normal(size=3))
        while abs(np.dot(dir_z, dir_x)) > 0.995:  # keep the geometry nondegenerate
            dir_x = _unit(rng.normal(size=3))
        if kind == "unbiased-symmetric":
            len_z = len_x = 1.0
            bias_z = bias_x = 0.0
        elif kind == "unbiased-asymmetric":
            len_z, len_x = rng.uniform(0.55, 1.0, size=2)
            bias_z = bias_x = 0.0
        else:
            len_z, len_x = rng.uniform(0.55, 0.95, size=2)
            bias_z = rng.uniform(-1.0, 1.0) * 0.9 * (1.0 - len_z)
            bias_x = rng.uniform(-1.0, 1.0) * 0.9 * (1.0 - len_x)
        bloch_z, bloch_x = len_z * dir_z, len_x * dir_x

        baseline_dirs = _fig2_bob_directions(dir_z, dir_x)
        baseline = _qubit_case_threshold(bias_x, bloch_x, bloch_z, *baseline_dirs, tol)
        opt_dirs = _optimize_bob_qubit(bias_x, bloch_x, bloch_z, baseline_dirs, tol)

        # re-derive the winning threshold through the full Born-rule pipeline
        tables = _pipeline_tables(
            qubit_povm(bias_x, bloch_x),
            qubit_povm(bias_z, bloch_z),
            qubit_povm(0.0, opt_dirs[0]),
            qubit_povm(0.0, opt_dirs[1]),
        )
        detected, saturated = _pipeline_threshold(tables, 0.5, tol)

        if kind == "biased":
            exact = None
        else:
            exact = min(
                1.0,
                2.0
                / (
                    np.linalg.norm(bloch_z + bloch_x)
                    + np.linalg.norm(bloch_z - bloch_x)
                ),
            )
        records.append(
            ThresholdRecord(
                parameter=float(idx),
                detected=detected,
                exact=exact,
                alpha=0.5,
                saturated=saturated,
            )
        )
        cases.append(
            {
                "kind": kind,
                "bias_z": float(bias_z),
                "bias_x": float(bias_x),
                "bloch_z": [float(c) for c in bloch_z],
                "bloch_x": [float(c) for c in bloch_x],
                "baseline_detected": baseline,
                "optimized_detected": detected,
                "gap_vs_baseline": detected - baseline,
            }
        )
    metadata = {
        "scenario": "qubit-random-povm",
        "parameter_name": "case",
        "alphas": [0.5],
        "betas": [math.inf],
        "grid": [float(i) for i in range(n_cases)],
        "tol": tol,
        "seed": int(seed),
        "cases": cases,
    }
    return ScanResult(tuple(records), metadata)


# ---------------------------------------------------------------------------
# d = 3 rotated family
# ---------------------------------------------------------------------------


def _conjugate_povm(p: Povm) -> Povm:
    """Entrywise conjugate measurement: the partner that sees perfect
    correlations with ``p`` on the maximally entangled state."""
    return Povm(p.effects.conj())


def _givens_unitary(d: int, params: np.ndarray) -> np.ndarray:
    """Product of complex Givens rotations over index pairs (i < j)."""
    u = np.eye(d, dtype=complex)
    k = 0
    for i in range(d):
        for j in range(i + 1, d):
            theta, phi = params[k], params[k + 1]
            k += 2
            g = np.eye(d, dtype=complex)
            g[i, i] = math.cos(theta)
            g[j, j] = math.cos(theta)
            g[i, j] = -math.sin(theta) * np.exp(-1j * phi)
            g[j, i] = math.sin(theta) * np.exp(1j * phi)
            u = u @ g
    return u


def d3_family_scan(
    t_grid: Sequence[float],
    tol: float = 1e-6,
    refine_bob: bool = False,
) -> ScanResult:
    """Threshold scan over the d=3 rotated-basis family.

    Alice carries symmetric noise on the two rotated bases; Bob measures
    their ideal conjugate partners (the choice that reproduces the perfect
    correlations of the MUB endpoint).  At t = 0 the detected threshold is
    the MUB boundary; at t = 1/2 the bases coincide, the bound vanishes and
    nothing is ever detected.  Interior exact boundaries are not computable
    here and stay unset.  ``refine_bob`` additionally searches small unitary
    perturbations of Bob's bases for a lower detected threshold, from two
    starts: Bob's ideal bases and one fixed small perturbation of them.
    """
    ts = [float(t) for t in t_grid]
    for t in ts:
        if not 0.0 <= t <= 0.5:
            raise ValueError(f"family parameter must lie in [0, 0.5], got {t!r}")
    records = []
    for t in sorted(ts):
        alice_z, alice_x = rotated_d3_bases(t)
        bob_z, bob_x = _conjugate_povm(alice_z), _conjugate_povm(alice_x)

        tables = _pipeline_tables(alice_x, alice_z, bob_x, bob_z)
        detected, saturated = _pipeline_threshold(tables, 0.5, tol)

        if refine_bob and not saturated:
            def objective(params: np.ndarray) -> float:
                ux, uz = _givens_unitary(3, params[:6]), _givens_unitary(3, params[6:])
                bx, bz = (Povm(u @ b.effects @ u.conj().T) for u, b in ((ux, bob_x), (uz, bob_z)))
                tables = _pipeline_tables(alice_x, alice_z, bx, bz)
                return _pipeline_threshold(tables, 0.5, tol * 0.25).value

            best = detected
            for st in (np.zeros(12), 0.15 * np.arange(1, 13) / 12.0):
                _, f = _coordinate_search(objective, st, step0=0.2, ftol=tol * 0.5)
                best = min(best, f)
            detected = best

        if t == 0.0:
            exact = mub_jm_threshold_symmetric(3)
        elif t == 0.5:
            exact = 1.0
        else:
            exact = None
        records.append(
            ThresholdRecord(
                parameter=t,
                detected=detected,
                exact=exact,
                alpha=0.5,
                saturated=saturated,
            )
        )
    metadata = {
        "scenario": "d3-rotated-family",
        "parameter_name": "t",
        "alphas": [0.5],
        "betas": [math.inf],
        "grid": sorted(ts),
        "tol": tol,
        "seed": None,
        "refine_bob": bool(refine_bob),
    }
    return ScanResult(tuple(records), metadata)


# ---------------------------------------------------------------------------
# local-hidden-state falsification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LhsFalsificationReport:
    """Monte-Carlo search for criterion violations by classical models."""

    seed: int
    n_models: int
    dims: tuple[int, ...]
    alphas: tuple[float, ...]
    n_evaluations: int
    max_violation: float
    worst_case: dict = field(repr=False)

    @property
    def sound(self) -> bool:
        return self.max_violation <= DEFAULT_TOLS.sufficiency


def _bob_pairs(d: int) -> list[tuple[str, Povm, Povm]]:
    comp, four = mub_pair(d)
    pairs = [("mub", four, comp)]
    if d == 2:
        tilted = qubit_povm(0.0, (math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)))
        pairs.append(("tilted-60deg", tilted, Povm.from_basis(np.eye(2, dtype=complex))))
    elif d == 3:
        rz, rx = rotated_d3_bases(0.2)
        pairs.append(("rotated-t0.2", rx, rz))
    return pairs


LHS_DIMS = (2, 3)
LHS_ALPHAS = (0.5, 0.7, 1.0, 2.0, math.inf)
# hidden-variable counts, cycled over the models of each dimension
LHS_N_LAMBDAS = (1, 2, 4, 8)


def lhs_falsification_suite(seed: int, n_models: int) -> LhsFalsificationReport:
    """Hammer the steering inequality with random local-hidden-state models.

    ``n_models`` is the total number of models, split evenly over the
    dimensions ``LHS_DIMS`` (the first takes the remainder; the report's
    ``dims`` are those that received one); every model is tested against
    every entropy order of ``LHS_ALPHAS`` and two projective measurement
    pairs for Bob, with one ``steering_lhs`` call per order on the stacked
    tables of all models.  Statistics from any such model satisfy the
    inequality, so the maximum observed violation must stay at floating-point
    scale; anything larger falsifies the implementation.  ``worst_case`` is
    the first maximum over (d, model, Bob pair, order).  Fully deterministic
    in ``seed``.
    """
    if n_models < 1:
        raise ValueError("n_models must be at least 1")
    master = np.random.default_rng(seed)
    max_violation = -math.inf
    worst: dict = {}
    n_evals = 0
    per_dim = [n_models // len(LHS_DIMS)] * len(LHS_DIMS)
    per_dim[0] += n_models - sum(per_dim)
    shares = [(d, count) for d, count in zip(LHS_DIMS, per_dim) if count]
    for d, count in shares:
        pairs = _bob_pairs(d)
        model_seeds = master.integers(0, 2**63 - 1, size=count)
        models = [
            steering.sample_lhs_model(int(s), d, LHS_N_LAMBDAS[i % len(LHS_N_LAMBDAS)])
            for i, s in enumerate(model_seeds)
        ]
        violations = np.empty((count, len(pairs), len(LHS_ALPHAS)))  # worst_case's order
        for k, (_, bx, bz) in enumerate(pairs):
            bound = steering.overlap_bound(bx, bz)
            stats = [steering.lhs_statistics(model, bx, bz) for model in models]
            jx, jz = (JointDistribution(np.stack([t[j].table for t in stats])) for j in (0, 1))
            for a, alpha in enumerate(LHS_ALPHAS):
                violations[:, k, a] = bound - steering.steering_lhs(jx, jz, alpha)
        n_evals += violations.size
        index, k, a = np.unravel_index(np.argmax(violations), violations.shape)  # first maximum
        if violations[index, k, a] > max_violation:
            max_violation = float(violations[index, k, a])
            worst = {
                "d": d,
                "model_index": int(index),
                "model_seed": int(model_seeds[index]),
                "n_lambda": models[index].n_lambda,
                "alpha": LHS_ALPHAS[a],
                "bob_pair": pairs[k][0],
            }
    return LhsFalsificationReport(
        seed=int(seed),
        n_models=int(n_models),
        dims=tuple(d for d, _ in shares),
        alphas=LHS_ALPHAS,
        n_evaluations=n_evals,
        max_violation=float(max_violation),
        worst_case=worst,
    )
