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


def bisect_threshold(margin: Callable, tol: float) -> ThresholdSolution:
    """Root on [0, 1] of a signed ``margin``: above 0 detected, at or below 0
    not, monotone in v (the caller's duty).  Saturates to ``(1.0, True)`` if
    margin(1) <= 0 and to ``(0.0, True)`` if margin(0) > 0; else shrinks [a, b],
    margin(a) <= 0 < margin(b), until it is at most ``tol`` wide, in (0, 1), or
    a and b are adjacent doubles, and returns b, which never undershoots the
    root.  A NaN margin raises.  Each step is the Anderson-Bjorck point (N.
    Anderson and A. Bjorck, BIT 13, 253 (1973)): regula falsi that scales the
    stored margin of an end kept twice in a row by g = 1 - m_new/m_old, m_old
    the margin of the end the new point replaces, or by 1/2 if g <= 0 or
    m_old = 0; clamped into [a + tol/2, b - tol/2] so the step after the
    estimate comes within tol/2 of the root closes the bracket.  The midpoint
    replaces it if not inside (a, b), or if margin(a) is 0 and was 0 before a
    last moved, so a boolean predicate (False, True as 0, 1) is plainly
    bisected, while a fresh 0 is the root to rounding and a + tol/2 ends the
    solve.  The name stays, though only such a predicate is bisected, because
    ``perfbench/spans.py`` counts the solver's calls by it.
    """
    tol = check_tolerance(tol)

    def at(v: float):
        m = margin(v)
        if m != m:
            raise ValueError(f"margin is NaN at v={v!r}")
        return m

    fb = at(1.0)
    if fb <= 0:
        return ThresholdSolution(1.0, saturated=True)
    fa = at(0.0)
    if fa > 0:
        return ThresholdSolution(0.0, saturated=True)
    a, b, side, flat = 0.0, 1.0, 0, True  # side: the end the last point replaced (-1 a, 1 b)
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:  # tol is below the float spacing here
            break
        v = mid
        if fa != 0 or not flat:
            v = min(max((a * fb - b * fa) / (fb - fa), a + 0.5 * tol), b - 0.5 * tol)
            if not a < v < b:  # also NaN
                v = mid
        m = at(v)
        old = fb if m > 0 else fa  # the margin of the end this point replaces
        g = 1 - m / old if old else 0.5
        g = g if g > 0 else 0.5  # also NaN
        if m > 0:
            fa = g * fa if side == 1 else fa
            b, fb, side = v, m, 1
        else:
            fb = g * fb if side == -1 else fb
            a, fa, side, flat = v, m, -1, fa == 0
    return ThresholdSolution(b)


def _mub_jm_margin(d: int, va: float, vx: float) -> float:
    """Signed joint-measurability margin of two noisy MUBs, above 0 exactly where
    they are incompatible, with ``DEFAULT_TOLS.boundary`` of slack.  For d >= 3
    the known algebraic condition; the d = 2 case is its equality-curve limit
    va^2 + vx^2 <= 1."""
    d = check_int(d, 2, "dimension")
    va = check_visibility(va, "va")
    vx = check_visibility(vx, "vx")
    if d == 2:
        lhs = va * va + vx * vx
    else:
        radicand = max(d - (d - 1) * (va - vx) ** 2, 0.0)
        lhs = ((d - 1) * (va + vx) - math.sqrt(radicand)) / (d - 2)
    return lhs - (1.0 + DEFAULT_TOLS.boundary)


def mub_jm_holds(d: int, va: float, vx: float) -> bool:
    """Joint measurability of two noisy mutually unbiased bases."""
    return _mub_jm_margin(d, va, vx) <= 0.0


def mub_jm_threshold_symmetric(d: int) -> float:
    """Symmetric visibility threshold (sqrt(d)+2)/(2(sqrt(d)+1)).

    Closed-form solution of the joint-measurability boundary at equal noise;
    the d = 2 limit 1/sqrt(2) is included.
    """
    d = check_int(d, 2, "dimension")
    s = math.sqrt(d)
    return (s + 2.0) / (2.0 * (s + 1.0))


def _renyi_mub_margin(d: int, va: float, vx: float) -> float:
    """Signed margin of the min/max-entropy criterion for noisy MUBs, above 0
    exactly where it detects steering, with ``DEFAULT_TOLS.boundary`` of slack.
    ``va`` is the visibility on the measurement of the min-entropy (in the
    denominator), ``vx`` the one of the max-entropy (numerator)."""
    d = check_int(d, 2, "dimension")
    va = check_visibility(va, "va")
    vx = check_visibility(vx, "vx")
    numer = (math.sqrt(vx + (1.0 - vx) / d) + (d - 1) * math.sqrt((1.0 - vx) / d)) ** 2
    return 1.0 - DEFAULT_TOLS.boundary - numer / (1.0 + (d - 1) * va)


def renyi_mub_holds(d: int, va: float, vx: float) -> bool:
    """No-steering condition of the min/max-entropy criterion for noisy MUBs."""
    return _renyi_mub_margin(d, va, vx) <= 0.0


def renyi_mub_threshold_symmetric(d: int, tol: float = 1e-9) -> float:
    """Symmetric visibility threshold of the entropic criterion, by the root-finder."""
    return bisect_threshold(lambda v: _renyi_mub_margin(d, v, v), tol).value


def renyi_eta_of_chi(d: int, vx: float, tol: float = 1e-9) -> ThresholdSolution:
    """Boundary va of the entropic criterion given vx: the first va it flags,
    within ``tol`` above the largest one on which it stays silent."""
    return bisect_threshold(lambda va: _renyi_mub_margin(d, va, vx), tol)


def exact_eta_of_chi(d: int, vx: float, tol: float = 1e-9) -> ThresholdSolution:
    """Joint-measurability boundary va of the noisy MUB pair given vx: the
    first incompatible va, within ``tol`` above the largest compatible one."""
    return bisect_threshold(lambda va: _mub_jm_margin(d, va, vx), tol)


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
