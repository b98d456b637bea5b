"""Analytic joint-measurability conditions and threshold solvers.

All arguments named ``va``/``vx`` are visibilities: the coefficient of the
sharp measurement in ``v * ideal + (1 - v) * white noise``.  Noise in the
complementary convention is ``1 - v``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .config import DEFAULT_TOLS
from .entropy import check_visibility
from .qobj import check_int, check_tolerance


class ThresholdSolution(NamedTuple):
    """Solver result; ``saturated`` marks a boundary-pinned solution."""

    value: float
    saturated: bool = False


@dataclass(frozen=True)
class ThresholdRecord:
    """One scan row: parameter, detected and exact visibility thresholds.

    ``exact`` is None when the true boundary is not computable; the derived
    ``gap`` = detected - exact then stays None.  A detected threshold may
    never undershoot a known exact boundary by more than the sufficiency slack.
    """

    parameter: float
    detected: float
    exact: float | None = None
    gap: float | None = field(default=None, init=False)
    alpha: float | None = None
    saturated: bool = False

    def __post_init__(self):
        if not 0.0 <= self.detected <= 1.0:
            raise ValueError(f"detected threshold {self.detected!r} outside [0, 1]")
        if self.exact is not None:
            if not 0.0 <= self.exact <= 1.0:
                raise ValueError(f"exact threshold {self.exact!r} outside [0, 1]")
            gap = self.detected - self.exact
            if gap < -DEFAULT_TOLS.sufficiency:
                raise ValueError(
                    f"detected threshold undershoots the exact boundary by {-gap:.3e}"
                )
            object.__setattr__(self, "gap", gap)


def bisect_threshold(pred: Callable, tol: float, levels: int = 1) -> ThresholdSolution:
    """Switching point of a predicate that is False below it on [0, 1] and
    True above it.

    ``pred(1.0)`` comes first; if it is False the answer saturates to
    ``(1.0, True)``, and if ``pred`` is True at 0 to ``(0.0, True)``.
    Otherwise the bracket is halved until it is narrower than ``tol``, or its
    ends are adjacent doubles, and its True end is returned, the side that
    never undershoots the boundary; ``tol`` must lie in (0, 1).  With
    ``levels`` = k > 1 one call of ``pred`` on an array answers the grid
    a + (b - a) j / 2^k of the bracket [a, b], one bool each: j = 0 .. 2^k - 1
    on [0, 1] first, v = 0 included, then j = 1 .. 2^k - 1 every k halvings
    (k <= 16).  Dyadic brackets make each grid point a halving visits its
    midpoint 0.5 * (a + b) exactly, so the walk returns the one-level solution
    if ``pred`` answers an array as it answers each float.  Monotonicity is the
    caller's responsibility.
    """
    tol = check_tolerance(tol)
    levels = check_int(levels, 1, "levels")
    if levels > 16:  # a stacked call asks 2^levels points
        raise ValueError(f"levels must be at most 16, got {levels!r}")
    if not pred(1.0):
        return ThresholdSolution(1.0, saturated=True)
    cells = 2**levels
    answers = [pred(0.0)] if levels == 1 else pred(np.arange(cells) / cells)
    if answers[0]:
        return ThresholdSolution(0.0, saturated=True)
    a, b, lo, hi = 0.0, 1.0, 0, cells  # a and b at indices lo and hi of answers
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:  # tol is below the float spacing here
            break
        if levels == 1:
            detected = pred(mid)
        else:
            if hi - lo == 1:  # [a, b] is one cell of the last grid; answers[j] is point j + 1
                answers, lo, hi = pred(a + (b - a) * np.arange(1, cells) / cells), -1, cells - 1
            j = (lo + hi) // 2
            detected = answers[j]
            lo, hi = (lo, j) if detected else (j, hi)
        a, b = (a, mid) if detected else (mid, b)
    return ThresholdSolution(b)


def mub_jm_holds(d: int, va: float, vx: float) -> bool:
    """Joint measurability of two noisy mutually unbiased bases.

    For d >= 3 this is the known algebraic condition; the d = 2 case is its
    equality-curve limit va^2 + vx^2 <= 1.
    """
    d = check_int(d, 2, "dimension")
    va = check_visibility(va, "va")
    vx = check_visibility(vx, "vx")
    slack = DEFAULT_TOLS.boundary
    if d == 2:
        return va * va + vx * vx <= 1.0 + slack
    radicand = max(d - (d - 1) * (va - vx) ** 2, 0.0)
    lhs = ((d - 1) * (va + vx) - math.sqrt(radicand)) / (d - 2)
    return lhs <= 1.0 + slack


def mub_jm_threshold_symmetric(d: int) -> float:
    """Symmetric visibility threshold (sqrt(d)+2)/(2(sqrt(d)+1)).

    Closed-form solution of the joint-measurability boundary at equal noise;
    the d = 2 limit 1/sqrt(2) is included.
    """
    d = check_int(d, 2, "dimension")
    s = math.sqrt(d)
    return (s + 2.0) / (2.0 * (s + 1.0))


def renyi_mub_holds(d: int, va: float, vx: float) -> bool:
    """No-steering condition of the min/max-entropy criterion for noisy MUBs.

    ``va`` is the visibility on the measurement evaluated by the
    min-entropy (it enters the denominator), ``vx`` the one evaluated by the
    max-entropy (numerator).
    """
    d = check_int(d, 2, "dimension")
    va = check_visibility(va, "va")
    vx = check_visibility(vx, "vx")
    numer = (math.sqrt(vx + (1.0 - vx) / d) + (d - 1) * math.sqrt((1.0 - vx) / d)) ** 2
    return numer / (1.0 + (d - 1) * va) >= 1.0 - DEFAULT_TOLS.boundary


def renyi_mub_threshold_symmetric(d: int, tol: float = 1e-9) -> float:
    """Symmetric visibility threshold of the entropic criterion, by bisection."""
    return bisect_threshold(lambda v: not renyi_mub_holds(d, v, v), tol).value


def renyi_eta_of_chi(d: int, vx: float, tol: float = 1e-9) -> ThresholdSolution:
    """Boundary va of the entropic criterion given vx: the first va it flags,
    within ``tol`` above the largest one on which it stays silent."""
    return bisect_threshold(lambda va: not renyi_mub_holds(d, va, vx), tol)


def exact_eta_of_chi(d: int, vx: float, tol: float = 1e-9) -> ThresholdSolution:
    """Joint-measurability boundary va of the noisy MUB pair given vx: the
    first incompatible va, within ``tol`` above the largest compatible one."""
    return bisect_threshold(lambda va: not mub_jm_holds(d, va, vx), tol)


def eta_tightness_gap(d: int, grid_points: int, tol: float) -> float:
    """Largest |eta_renyi(chi) - eta_exact(chi)| over ``grid_points`` evenly
    spaced partner visibilities chi in [0, 1]."""
    grid_points = check_int(grid_points, 1, "grid_points")
    return max(
        abs(renyi_eta_of_chi(d, chi, tol).value - exact_eta_of_chi(d, chi, tol).value)
        for chi in np.linspace(0.0, 1.0, grid_points)
    )


def qubit_exact_threshold(z, x) -> float:
    """Visibility threshold 2/(|z+x| + |z-x|) for equal-visibility unbiased
    qubit measurements along unit Bloch vectors z and x."""
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    for name, u in (("z", z), ("x", x)):
        if u.shape != (3,) or not abs(np.linalg.norm(u) - 1.0) <= DEFAULT_TOLS.projective:
            raise ValueError(f"{name} must be a unit 3-vector")
    return 2.0 / (np.linalg.norm(z + x) + np.linalg.norm(z - x))


def qubit_renyi_threshold(theta: float) -> float:
    """Detected visibility threshold 1/(sqrt(2) cos(theta)) of the
    min/max-entropy criterion in the symmetric qubit geometry."""
    theta = float(theta)
    if not 0.0 <= theta <= math.pi / 4.0 + DEFAULT_TOLS.boundary:
        raise ValueError(f"theta must lie in [0, pi/4], got {theta!r}")
    return min(1.0, 1.0 / (math.sqrt(2.0) * math.cos(theta)))
