"""The benchmark's workloads: what one item is, how items follow from the
workload seed, and how each item's result is checked.

Import this module only after ``qsteer`` is importable (``run.py`` arranges
that); the package receives only the generated inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from qsteer import scenarios
from qsteer.jointmeas import mub_jm_threshold_symmetric

REFERENCE_FILE = Path(__file__).with_name("mub_reference.json")

MUB_DIMS = tuple(range(2, 11))
MUB_ALPHAS = (0.5, 0.55, 0.6, 0.7, 0.85, 1.0, 1.25, 1.5, 2.0, 4.0, 8.0, math.inf)
MUB_TOL = 1e-6

LHS_MODELS = 40
# 40 models over d = 2 and 3, each tested on two Bob pairs at five orders.
LHS_EVALUATIONS = LHS_MODELS * 2 * 5

QUBIT_TOL = 1e-4
QUBIT_GAP_FLOOR = -1e-9


@dataclass(frozen=True)
class Item:
    """One timed call: ``run()`` gives a result and ``check(result)`` returns
    None when it is correct, otherwise the reason it is not."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def alpha_key(alpha: float) -> str:
    return "inf" if math.isinf(alpha) else repr(alpha)


def mub_solve(d: int, alpha: float) -> float:
    return scenarios.mub_pipeline_threshold(d, alpha, tol=MUB_TOL)


def load_reference() -> dict[tuple[int, str], float]:
    data = json.loads(REFERENCE_FILE.read_text())
    if data["tol"] != MUB_TOL:
        raise ValueError(f"reference table was made at tol={data['tol']}, not {MUB_TOL}")
    return {(row["d"], row["alpha"]): row["threshold"] for row in data["thresholds"]}


def item_seeds(seed: int) -> Iterator[int]:
    """Endless stream of per-item seeds, fixed by the workload seed."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2**63 - 1))


class MubScan:
    """The paper's Fig. 1 solve: one item is one full-pipeline threshold
    bisection for a (d, alpha) pair of the fixed grid.  The seed only orders
    the alpha groups of each pass; each group runs d = 2..10, so a pass cut
    short by the deadline keeps the mix of dimensions."""

    name = "mub_scan"
    trace_items = len(MUB_DIMS) * len(MUB_ALPHAS)

    def __init__(self):
        self.reference = load_reference()
        self.exact = {d: mub_jm_threshold_symmetric(d) for d in MUB_DIMS}
        grid = [(d, alpha_key(a)) for d in MUB_DIMS for a in MUB_ALPHAS]
        missing = [key for key in grid if key not in self.reference]
        if missing:
            raise ValueError(f"reference table lacks {missing}")

    @staticmethod
    def warm_up():
        scenarios.mub_pipeline_threshold(2, 0.5, tol=1e-2)

    def _check(self, d, alpha, value):
        ref = self.reference[(d, alpha_key(alpha))]
        if abs(value - ref) > MUB_TOL:
            return f"threshold {value!r} differs from reference {ref!r} by more than {MUB_TOL}"
        if alpha == 0.5 and abs(value - self.exact[d]) > MUB_TOL:
            return f"threshold {value!r} differs from the exact boundary {self.exact[d]!r}"
        return None

    def items(self, seed: int) -> Iterator[Item]:
        rng = np.random.default_rng(seed)
        while True:
            for ai in rng.permutation(len(MUB_ALPHAS)):
                alpha = MUB_ALPHAS[ai]
                for d in MUB_DIMS:
                    yield Item(
                        f"d={d} alpha={alpha_key(alpha)}",
                        lambda d=d, a=alpha: mub_solve(d, a),
                        lambda v, d=d, a=alpha: self._check(d, a, v),
                    )


class LhsSuite:
    """The LHS falsification path of acceptance criterion 7: one item is one
    ``lhs_falsification_suite`` call of 40 models with its own seed."""

    name = "lhs_suite"
    trace_items = 100

    @staticmethod
    def warm_up():
        scenarios.lhs_falsification_suite(0, n_models=2)

    @staticmethod
    def _check(report):
        if report.n_evaluations != LHS_EVALUATIONS:
            return f"{report.n_evaluations} evaluations, expected {LHS_EVALUATIONS}"
        if not report.sound:
            return f"LHS model violates the bound by {report.max_violation!r}"
        return None

    def items(self, seed: int) -> Iterator[Item]:
        for s in item_seeds(seed):
            yield Item(
                f"seed={s}",
                lambda s=s: scenarios.lhs_falsification_suite(s, n_models=LHS_MODELS),
                self._check,
            )


class QubitOpt:
    """Random unbiased-symmetric qubit pairs with the Bob-direction optimizer:
    one item is one single-case ``qubit_random_povm_check``.  The first case
    is always the unbiased-symmetric kind, whose exact boundary is known."""

    name = "qubit_opt"
    trace_items = 100

    @staticmethod
    def warm_up():
        scenarios.qubit_random_povm_check(1, 0, tol=1e-1)

    @staticmethod
    def _check(result):
        gap = result.records[0].gap
        if gap is None or not QUBIT_GAP_FLOOR <= gap <= QUBIT_TOL:
            return f"gap {gap!r} outside [{QUBIT_GAP_FLOOR}, {QUBIT_TOL}]"
        return None

    def items(self, seed: int) -> Iterator[Item]:
        for s in item_seeds(seed):
            yield Item(
                f"seed={s}",
                lambda s=s: scenarios.qubit_random_povm_check(1, s, tol=QUBIT_TOL),
                self._check,
            )


WORKLOADS = {w.name: w for w in (MubScan, LhsSuite, QubitOpt)}
