"""End-to-end experiment drivers: noise-threshold scans over the full
pipeline (Born tables on the maximally entangled state at visibility 1 and
0 -> their mixture -> entropic criterion -> root of its violation) and the
local-hidden-state falsification suite.  ``mub_eta_scan`` traces the
asymmetric-noise boundary eta(chi) of noisy MUBs through the same solve, with
the table of one setting mixed at chi before it.

Detected thresholds always come from the root-finder ``bisect_threshold`` on
the steering violation of the actual pipeline and report the detecting side
of the final bracket, so they can undershoot an exact boundary only by
floating-point noise, never by bracket width.
Every scan hands its solutions to ``_scan``, which alone writes the records
and the metadata of a ``ScanResult``.  No driver converts the order:
``dual_order`` rejects any but one real number >= 1/2, in the first solve or,
in ``fig1_scan``, before its orders are sorted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import steering
from .entropy import (SUFFICIENCY, JointDistribution, check_int, check_numeric, check_tolerance,
                      dual_order)
from .jointmeas import (
    ThresholdRecord,
    ThresholdSolution,
    bisect_threshold,
    exact_eta_of_chi,
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


def _scan(
    scenario: str,
    parameter_name: str,
    rows: list,
    tol: float,
    alphas: Sequence[float] = (0.5,),
    seed: int | None = None,
    **extras,
) -> ScanResult:
    """The one scan format.  ``rows`` holds a (parameter, ThresholdSolution,
    exact) triple per solve, grid point by grid point, and at each point one
    solve per order of ``sorted(alphas)``.  Each becomes a record that keeps
    the solver's ``saturated`` flag; ``extras`` follow the seed in the metadata."""
    alphas = sorted(alphas)
    records = tuple(
        ThresholdRecord(parameter=p, detected=s.value, exact=exact, alpha=a, saturated=s.saturated)
        for (p, s, exact), a in zip(rows, itertools.cycle(alphas))
    )
    metadata = {
        "scenario": scenario,
        "parameter_name": parameter_name,
        "alphas": alphas,
        "betas": [dual_order(a) for a in alphas],
        "grid": [r.parameter for r in records[:: len(alphas)]],
        "tol": tol,
        "seed": seed,
        **extras,
    }
    return ScanResult(records, metadata)


def _pipeline_tables(alice_x: Povm, alice_z: Povm, bob_x: Povm, bob_z: Povm) -> tuple:
    """Bob-first Born tables on |Phi+> at visibility 1 and 0 for both settings,
    and Bob's bound: what a threshold solve needs, whatever the order.  The
    v = 1 tables come from ``joint_distribution``, one of the two table
    builders; the other, ``lhs_statistics``, serves the LHS suite.

    At v = 0 Alice's effect E_a is tr(E_a) I/d, and the E_a sum to I, so that table
    is Bob's marginal times tr(E_a)/d: no contraction, but a check, which clamps a
    trace that rounds slightly below 0."""
    t1 = joint_distribution(alice_x, bob_x), joint_distribution(alice_z, bob_z)
    traces = (a.effects.diagonal(0, 1, 2).sum(-1).real / a.dim for a in (alice_x, alice_z))
    t0 = tuple(JointDistribution(t.table.sum(axis=1)[:, None] * w) for t, w in zip(t1, traces))
    return t1, t0, steering.overlap_bound(bob_x, bob_z)


def _pipeline_threshold(
    tables: tuple, alpha: float, tol: float, cutoff: float = math.inf
) -> ThresholdSolution:
    """Smallest visibility, applied to both of Alice's measurements, at which
    the full pipeline detects steering; saturated at 1 if none does.  A finite
    ``cutoff`` is returned itself, at once if it is <= 0 and after one call if
    nothing is detected at ``cutoff`` < 1, because detection is monotone in v and
    the solver returns the detecting end of its bracket: such a solve cannot end
    below ``cutoff``, and a search that keeps only values below it rejects both alike.

    ``depolarize`` is affine in v and the Born rule linear, so the tables are
    T(v) = v T(1) + (1 - v) T(0): the solver's margin mixes the precomputed
    ``tables`` at one visibility and returns the violation of one
    ``steering.evaluate``, a real number continuous in v."""
    (x1, z1), (x0, z0), bound = tables

    def violation(v):
        jx, jz = JointDistribution.mixture(x1, x0, v), JointDistribution.mixture(z1, z0, v)
        return steering.evaluate(jx, jz, bound, alpha).violation

    if cutoff <= 0.0 or (cutoff < 1.0 and violation(cutoff) <= 0.0):
        return ThresholdSolution(cutoff)
    return bisect_threshold(violation, tol)


def _mub_tables(d: int) -> tuple:
    """Pipeline tables for noisy MUBs on the maximally entangled state."""
    comp, four = mub_pair(d)
    return _pipeline_tables(four, comp, four, comp)


def mub_eta_scan(d: int, grid_points: int, tol: float = 1e-6) -> ScanResult:
    """The asymmetric-noise boundary eta(chi) of noisy MUBs in dimension ``d``
    at ``grid_points`` evenly spaced chi in [0, 1]: the Fourier basis, which
    carries the max-entropy, has visibility chi, and the pipeline solves the
    alpha = 1/2 threshold on the visibility of the other basis.  The X table is
    mixed at chi once and passed as both ends of its own mixture.  The exact
    column is ``exact_eta_of_chi``; all inputs are checked before any work."""
    d, grid_points = check_int(d, 2, "dimension"), check_int(grid_points, 1, "grid_points")
    tol = check_tolerance(tol)
    (x1, z1), (x0, z0), bound = _mub_tables(d)
    rows = []
    for chi in np.linspace(0.0, 1.0, grid_points).tolist():
        x = JointDistribution.mixture(x1, x0, chi)
        solution = _pipeline_threshold(((x, z1), (x, z0), bound), 0.5, tol)
        rows.append((chi, solution, exact_eta_of_chi(d, chi)))
    return _scan("mub-eta-of-chi", "chi", rows, tol, d=d)


def mub_pipeline_threshold(d: int, alpha: float, tol: float = 1e-6) -> float:
    """Detected symmetric visibility threshold for noisy MUBs, full pipeline."""
    return _pipeline_threshold(_mub_tables(d), alpha, tol).value


def fig1_scan(
    d_range: Iterable[int], alphas: Iterable[float], tol: float = 1e-6
) -> ScanResult:
    """Detected vs exact symmetric thresholds over dimensions and orders.

    For each dimension and each entropy order, the detected column is the
    pipeline root-finder's threshold and the exact column the closed-form
    joint-measurability boundary.  The min/max-entropy rows (alpha = 1/2)
    reproduce the boundary itself; Shannon rows sit strictly above it.
    """
    dims = sorted(check_int(d, 2, "dimension") for d in d_range)
    alphas = list(alphas)  # read once, so an iterator is checked and solved alike
    for a in alphas:  # every entry is checked before sorting, so before a solve
        dual_order(a)
    alphas.sort()
    if not dims or not alphas:
        raise ValueError("fig1_scan needs at least one dimension and one order")
    rows = []
    for d in dims:
        tables, exact = _mub_tables(d), mub_jm_threshold_symmetric(d)
        rows += [(float(d), _pipeline_threshold(tables, a, tol), exact) for a in alphas]
    return _scan("mub-symmetric-noise", "d", rows, tol, alphas)


# ---------------------------------------------------------------------------
# qubit scenarios
# ---------------------------------------------------------------------------


def _mirror_y(u: np.ndarray) -> np.ndarray:
    """Transposing a qubit effect flips the y Bloch component."""
    return np.array([u[0], -u[1], u[2]])


def _unit(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return u / math.sqrt(u @ u)


def _qubit_threshold(bias: float, c_max: float, c_min: float) -> float:
    """Detected visibility threshold of the min/max-entropy criterion, 1 if none
    up to v = 1, for Alice's qubit POVMs (I +- (b I + v r.sigma))/2 and Bob
    projective along an orthogonal pair (bound 1), on the maximally entangled state.

    With c = r . m(u), m the transpose's flip of y, Alice's sign s and Bob's t
    occur with p(t, s) = (1 + s b + s t v c)/4.  On the setting of bias b the
    max-entropy term is log2(1 + R/2), with
    R = sqrt((1 + b)^2 - (v c_max)^2) + sqrt((1 - b)^2 - (v c_max)^2); the
    min-entropy term sums the column maxima (1 + s b' + v|c_min|)/4, so the
    other bias b' drops out.  Detection is 2 v |c_min| > R; squared twice, u = v^2
    solves u^2 c_min^2 (c_max^2 + c_min^2) - u c_min^2 (1 + b^2) + b^2 = 0 at the
    larger root, unless u (2 c_min^2 + c_max^2) < 1 + b^2, where squaring added it."""
    c2 = c_min * c_min
    s, h = c_max * c_max + c2, 1.0 + bias * bias
    disc = h * h - 4.0 * s * bias * bias / c2 if c2 else -1.0
    u = (h + math.sqrt(disc)) / (2.0 * s) if disc >= 0.0 else 1.0
    return math.sqrt(u) if u < 1.0 and u * (s + c2) >= h else 1.0


def qubit_angle_scan(theta_grid: Sequence[float], tol: float = 1e-6) -> ScanResult:
    """Equal-visibility unbiased qubit pair at Bloch angle 90deg - 2 theta.

    Alice's directions sit in the x-z plane, Bob measures the orthogonal
    pair symmetrically surrounding them, with conditional probabilities
    (1 +- v cos theta)/2.  Per angle the detected threshold comes from the
    pipeline root-finder at alpha = 1/2 and the exact one from the closed-form
    qubit boundary.  ``tol`` is checked before any work, so also for an empty grid.
    Bob's pair (the z basis, unbiased unit x) is stored unchecked, Alice's validated.
    """
    tol = check_tolerance(tol)
    thetas = [float(check_numeric(t, "theta", "number", real=True)) for t in theta_grid]
    for t in thetas:
        if not 0.0 <= t < math.pi / 4.0:
            raise ValueError(f"theta must lie in [0, pi/4), got {t!r}")
    bob_z = Povm._valid(None, np.eye(2, dtype=complex))  # I is a basis
    bob_x = Povm._qubit(0.0, (1.0, 0.0, 0.0))  # bias 0, a unit Bloch vector
    rows = []
    for t in sorted(thetas):
        dir_z = np.array([math.sin(t), 0.0, math.cos(t)])
        dir_x = np.array([math.cos(t), 0.0, math.sin(t)])
        tables = _pipeline_tables(qubit_povm(0.0, dir_x), qubit_povm(0.0, dir_z), bob_x, bob_z)
        exact = qubit_exact_threshold(dir_z, dir_x)
        rows.append((t, _pipeline_threshold(tables, 0.5, tol), exact))
    return _scan("qubit-angle", "theta", rows, tol)


def _coordinate_search(
    objective: Callable[[list[float], float], float],
    start: Sequence[float],
    ftol: float,
    step0: float = 0.3,
) -> tuple[list[float], float]:
    """Deterministic pattern search: cycle coordinates, halve the step to 1e-4.

    ``objective(x, cutoff)`` may return any value of at least ``cutoff`` in
    place of one that is not below it: the search moves only to a point whose
    value is below ``f - ftol``, the cutoff it passes, and the start gets
    ``math.inf``.  So such an objective gives the same path and result."""
    x = [float(c) for c in start]
    f = objective(x, math.inf)
    step = step0
    while step > 1e-4:
        improved = False
        for i in range(len(x)):
            for s in (step, -step):
                y = x.copy()
                y[i] += s
                cutoff = f - ftol
                fy = objective(y, cutoff)
                if fy < cutoff:
                    x, f = y, fy
                    improved = True
        if not improved:
            step *= 0.5
    return x, f


def _bob_qubit_pair(bias_x: float, bias_z: float, bloch_x, bloch_z, tol: float) -> tuple:
    """Bob's orthogonal projective pair, and the setting that carries the
    max-entropy, with the lowest ``_qubit_threshold`` for Alice's qubit POVMs.

    Through ``_mirror_y`` (the transpose), Bob measures w = cos t e1 + sin t e2
    in the plane of Alice's Bloch vectors for x and its quarter turn Jw for z,
    so c_x = a.w and c_z = b.w with a = r_x and b = J^T r_z in plane coordinates.
    Unbiased, the threshold 1/sqrt(c_x^2 + c_z^2) is least along the top
    eigenvector of a a^T + b b^T, at Busch's 2/(|r_x + r_z| + |r_x - r_z|).  The
    search moves t from there, once with the max-entropy on x and once on z, and
    keeps z only if lower by more than its tol/2, so rounding cannot flip a tie.
    Only the max-entropy setting's bias enters the threshold.  Where it is 0 the
    threshold is that symmetric 1/sqrt(c_x^2 + c_z^2), or 1, least at the start,
    so no step could lower it by the tol/2 a move needs: that order takes the
    start with no search, and with both biases 0 the two tie and x is kept."""
    e1 = _unit(bloch_x)
    p = float(np.dot(bloch_z, e1))
    e2 = _unit(bloch_z - p * e1)
    q = float(np.dot(bloch_z, e2))
    length = float(np.linalg.norm(bloch_x))
    # a = (|r_x|, 0) and b = (q, -p), so m = a a^T + b b^T has its top
    # eigenvector at half the angle of (m11 - m22, 2 m12)
    start = [0.5 * math.atan2(-2.0 * p * q, float(np.dot(bloch_x, bloch_x)) + q * q - p * p)]
    ftol = tol * 0.5

    def search(bias: float, order: int) -> tuple:
        def threshold(t: list[float], cutoff: float) -> float:
            c, s = math.cos(t[0]), math.sin(t[0])
            return _qubit_threshold(bias, *(length * c, q * c - p * s)[::order])

        if not bias:  # the search would end where it starts
            return threshold(start, math.inf), start[0]
        (t,), f = _coordinate_search(threshold, start, ftol=ftol)
        return f, t

    (f_x, t_x), (f_z, t_z) = search(bias_x, 1), search(bias_z, -1)
    setting, t = ("z", t_z) if f_z < f_x - ftol else ("x", t_x)
    c, s = math.cos(t), math.sin(t)
    return setting, _mirror_y(c * e1 + s * e2), _mirror_y(c * e2 - s * e1)


def qubit_random_povm_check(n_cases: int, seed: int, tol: float = 1e-6) -> ScanResult:
    """Random binary qubit POVM pairs, each with the Bob pair and order
    assignment that ``_bob_qubit_pair`` finds on the closed-form threshold.

    Cases cycle through three kinds: unbiased symmetric and unbiased
    asymmetric, whose exact boundary is Busch's ``qubit_exact_threshold`` and
    which the detected threshold meets within ``tol``, and biased, whose
    exact boundary is not computed here (reported without an exact column).
    An unbiased case runs no search: its threshold is least at Busch's
    eigenvector start for either assignment, so Bob measures there with the
    max-entropy on x; a biased case searches once per assignment.  Each
    record is re-derived through the pipeline with Bob's chosen pair, at
    alpha = 1/2 or, with the max-entropy on z, its dual alpha = inf (the record
    reads 1/2), and each case names the setting that carries the max-entropy.
    Bob's pair (unbiased, orthonormal directions) is stored unchecked, Alice's
    validated.  Fully deterministic in ``seed``; ``tol`` is checked before any work."""
    n_cases, seed = check_int(n_cases, 1, "n_cases"), check_int(seed, 0, "seed")
    tol = check_tolerance(tol)
    rng = np.random.default_rng(seed)
    rows = []
    cases = []
    for idx in range(n_cases):
        kind = ("unbiased-symmetric", "unbiased-asymmetric", "biased")[idx % 3]
        dir_z = _unit(rng.normal(size=3))
        dir_x = _unit(rng.normal(size=3))
        while abs(np.dot(dir_z, dir_x)) > 0.995:  # keep the geometry nondegenerate
            dir_x = _unit(rng.normal(size=3))
        bias_z = bias_x = 0.0
        if kind == "unbiased-symmetric":
            len_z = len_x = 1.0
        elif kind == "unbiased-asymmetric":
            len_z, len_x = rng.uniform(0.55, 1.0, size=2)
        else:
            len_z, len_x = rng.uniform(0.55, 0.95, size=2)
            bias_z = rng.uniform(-1.0, 1.0) * 0.9 * (1.0 - len_z)
            bias_x = rng.uniform(-1.0, 1.0) * 0.9 * (1.0 - len_x)
        bloch_z, bloch_x = len_z * dir_z, len_x * dir_x

        setting, u_x, u_z = _bob_qubit_pair(bias_x, bias_z, bloch_x, bloch_z, tol)

        # re-derive through the Born-rule pipeline; the dual order alpha = inf puts the max-entropy on z
        alice = qubit_povm(bias_x, bloch_x), qubit_povm(bias_z, bloch_z)
        tables = _pipeline_tables(*alice, Povm._qubit(0.0, u_x), Povm._qubit(0.0, u_z))  # |b| + |r| = 1
        solution = _pipeline_threshold(tables, 0.5 if setting == "x" else math.inf, tol)
        exact = None if kind == "biased" else qubit_exact_threshold(bloch_z, bloch_x)
        rows.append((float(idx), solution, exact))
        cases.append(
            {
                "kind": kind,
                "bias_z": float(bias_z),
                "bias_x": float(bias_x),
                "bloch_z": [float(c) for c in bloch_z],
                "bloch_x": [float(c) for c in bloch_x],
                "max_entropy_setting": setting,
            }
        )
    return _scan("qubit-random-povm", "case", rows, tol, seed=seed, cases=cases)


# ---------------------------------------------------------------------------
# d = 3 rotated family
# ---------------------------------------------------------------------------


def _unitary(params: Sequence[float]) -> np.ndarray:
    """exp(iH) by one ``eigh`` for the 3 x 3 Hermitian H with diagonal ``params[:3]``
    and lower triangle ``params[3:6] + i params[6:]``; H = 0 gives exactly I."""
    p = np.asarray(params, dtype=float)
    h = np.diag(p[:3] + 0j)
    h[(1, 2, 2), (0, 0, 1)] = p[3:6] + 1j * p[6:]
    w, v = np.linalg.eigh(h)  # reads the lower triangle
    return (v * np.exp(1j * w)) @ v.conj().T


def d3_family_scan(
    t_grid: Sequence[float],
    tol: float = 1e-6,
    refine_bob: bool = False,
) -> ScanResult:
    """Threshold scan over the d=3 rotated-basis family.

    Alice carries symmetric noise on the two rotated bases; Bob measures their
    entrywise conjugates, stored unchecked (the conjugate of a basis is a basis):
    the ideal partners, perfectly correlated on |Phi+> as at the MUB endpoint.
    At t = 0 the detected threshold is the MUB boundary; at t = 1/2 the bases
    coincide, the bound vanishes and nothing is ever detected.  Interior exact
    boundaries are not computable here and stay unset.  ``refine_bob``
    additionally turns each of Bob's basis matrices B into exp(iH) B, H a 3 x 3
    Hermitian matrix, so every Bob is again a basis (stored unchecked), and runs
    the pattern search from H = 0, Bob's ideal bases, at alpha = 1/2 (the
    max-entropy on x) and at its dual alpha = inf (on z) on the same tables; a
    step moves one side's H, so one basis is rebuilt a step; the record keeps the lowest of the
    two searches and the unrefined solve, and ``max_entropy_settings`` reads "z"
    only where the alpha = inf search was lowest.  At t >= 0.25 and tol >= about
    3e-4 no single step from H = 0 lowers the threshold by the tol/2 a step needs,
    so the search stalls there and the record is the unrefined solve.
    ``tol`` is checked before any work, so also for an empty grid.
    """
    tol = check_tolerance(tol)
    ts = sorted(float(check_numeric(t, "family parameter", "number", real=True)) for t in t_grid)
    bases = [rotated_d3_bases(t) for t in ts]  # checks every t before a solve
    rows, settings = [], []
    for t, (alice_z, alice_x) in zip(ts, bases):
        bob_z, bob_x = (Povm._valid(None, a.basis.conj()) for a in (alice_z, alice_x))  # still bases

        tables = _pipeline_tables(alice_x, alice_z, bob_x, bob_z)
        solution = _pipeline_threshold(tables, 0.5, tol)

        found = [solution.value]  # the unrefined solve, then one search per order
        if refine_bob and not solution.saturated:
            for alpha in (0.5, math.inf):  # the max-entropy on x, then on z
                point = [([], None), ([], None)]  # each side's parameters and Bob where the search stands
                def objective(params: list[float], cutoff: float, alpha: float = alpha, point=point) -> float:
                    sides = params[:9], params[9:]
                    bobs = [kept if p == q else Povm._valid(None, _unitary(p) @ b.basis)
                            for p, (q, kept), b in zip(sides, point, (bob_x, bob_z))]
                    tables = _pipeline_tables(alice_x, alice_z, *bobs)
                    value = _pipeline_threshold(tables, alpha, tol * 0.25, cutoff).value
                    if value < cutoff:  # the search moves here
                        point[:] = zip(sides, bobs)
                    return value
                found.append(_coordinate_search(objective, [0.0] * 18, step0=0.2, ftol=tol * 0.5)[1])
            solution = solution._replace(value=min(found))

        if t == 0.0:
            exact = mub_jm_threshold_symmetric(3)
        elif t == 0.5:
            exact = 1.0
        else:
            exact = None
        rows.append((t, solution, exact))
        settings.append("z" if found.index(solution.value) == 2 else "x")  # the first lowest
    return _scan("d3-rotated-family", "t", rows, tol,
                 refine_bob=bool(refine_bob), max_entropy_settings=settings)


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
        return self.max_violation <= SUFFICIENCY


def _bob_pairs(d: int) -> list[tuple[str, Povm, Povm]]:
    """Bob's named pairs in dimension ``d``; the tilted qubit (bias 0, unit r) is stored unchecked."""
    comp, four = mub_pair(d)
    pairs = [("mub", four, comp)]
    if d == 2:
        tilted = Povm._qubit(0.0, (math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)))  # |b| + |r| = 1
        pairs.append(("tilted-60deg", tilted, comp))
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
    ``dims`` are those that received one); model i of a dimension has
    ``LHS_N_LAMBDAS[i % 4]`` hidden states.  Every model is tested against
    every entropy order of ``LHS_ALPHAS`` and two projective measurement pairs
    for Bob.  The models of one dimension are sampled as one stack, padded to
    its largest count, by one ``sample_lhs_model`` call from one seed drawn
    from ``seed``; each model's tables are bit for bit those of its row
    alone.  One ``lhs_statistics`` call per Bob pair contracts
    the stack, and the tables form one (model, Bob pair, n_b, n_a) stack a
    dimension and setting, checked once; one ``steering_lhs`` call per
    order takes it against the vector of the pairs' bounds.  Statistics from
    any such model satisfy the inequality, so the maximum observed violation
    must stay at floating-point scale; anything larger falsifies the
    implementation.  ``worst_case`` is the first maximum over (d, model, Bob
    pair, order); its model is row ``model_index`` of
    ``sample_lhs_model(stack_seed, d, np.resize(LHS_N_LAMBDAS, stack_size))``,
    ``stack_size`` the models of dimension d.  Fully deterministic in ``seed``.
    """
    n_models, seed = check_int(n_models, 1, "n_models"), check_int(seed, 0, "seed")
    master = np.random.default_rng(seed)
    max_violation = -math.inf
    worst: dict = {}
    n_evals = 0
    per_dim = [n_models // len(LHS_DIMS)] * len(LHS_DIMS)
    per_dim[0] += n_models - sum(per_dim)
    shares = [(d, count) for d, count in zip(LHS_DIMS, per_dim) if count]
    for d, count in shares:
        pairs = _bob_pairs(d)
        stack_seed = int(master.integers(0, 2**63 - 1))
        n_lambdas = np.resize(LHS_N_LAMBDAS, count)
        bounds = np.array([steering.overlap_bound(bx, bz) for _, bx, bz in pairs])
        stack = steering.sample_lhs_model(stack_seed, d, n_lambdas)
        tables = [steering.lhs_statistics(stack, bx, bz) for _, bx, bz in pairs]
        # one (model, Bob pair, n_b, n_a) stack a setting; violations[i, k, a] for Bob pair k and order a
        jx, jz = (JointDistribution(np.stack(t, 1)) for t in zip(*tables))
        violations = np.stack([bounds - steering.steering_lhs(jx, jz, alpha) for alpha in LHS_ALPHAS], -1)
        n_evals += violations.size
        index, k, a = np.unravel_index(np.argmax(violations), violations.shape)  # first maximum
        if violations[index, k, a] > max_violation:
            max_violation = float(violations[index, k, a])
            worst = {
                "d": d,
                "model_index": int(index),
                "stack_seed": stack_seed,
                "stack_size": count,
                "n_lambda": int(n_lambdas[index]),
                "alpha": LHS_ALPHAS[a],
                "bob_pair": pairs[k][0],
            }
    return LhsFalsificationReport(
        seed=seed,
        n_models=n_models,
        dims=tuple(d for d, _ in shares),
        alphas=LHS_ALPHAS,
        n_evaluations=n_evals,
        max_violation=float(max_violation),
        worst_case=worst,
    )
