"""The exact side of every boundary, and the threshold root-finder.

Joint-measurability boundaries of noisy MUBs (the condition va <=
``exact_eta_of_chi(d, vx)``) and unbiased qubit pairs give the scans their
exact columns; ``bisect_threshold`` solves every threshold.  One entropic
formula, ``renyi_mub_threshold_symmetric``, stays for d = 400, where the
pipeline cannot yet build the bases.

All arguments named ``va``/``vx`` are visibilities: the coefficient of the
sharp measurement in ``v * ideal + (1 - v) * white noise``.  Noise in the
complementary convention is ``1 - v``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .entropy import (BOUNDARY, PROJECTIVE, SUFFICIENCY, check_int, check_numeric, check_tolerance,
                      check_visibility, dual_order)


class ThresholdSolution(NamedTuple):
    """Solver result; ``saturated`` marks a boundary-pinned solution."""

    value: float
    saturated: bool = False


@dataclass(frozen=True)
class ThresholdRecord:
    """One scan row: a finite real parameter, detected and exact visibility
    thresholds, each one real number (``check_numeric``), and the keyword-only
    Renyi order ``alpha`` of the detection, with a dual order (``dual_order``).

    ``exact`` is None when the true boundary is not computable; the derived
    ``gap`` = detected - exact then stays None.  A detected threshold may
    never undershoot a known exact boundary by more than ``SUFFICIENCY``.
    """

    parameter: float
    detected: float
    exact: float | None = None
    gap: float | None = field(default=None, init=False)
    alpha: float = field(kw_only=True)
    saturated: bool = False

    def __post_init__(self):
        if not math.isfinite(check_numeric(self.parameter, "parameter", "number", real=True)):
            raise ValueError(f"parameter must be a finite real number, got {self.parameter!r}")
        dual_order(self.alpha)
        check_numeric(self.detected, "detected threshold", "number", real=True)
        if not 0.0 <= self.detected <= 1.0:
            raise ValueError(f"detected threshold {self.detected!r} outside [0, 1]")
        if self.exact is not None:
            check_numeric(self.exact, "exact threshold", "number", real=True)
            if not 0.0 <= self.exact <= 1.0:
                raise ValueError(f"exact threshold {self.exact!r} outside [0, 1]")
            gap = self.detected - self.exact
            if gap < -SUFFICIENCY:
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


def mub_jm_threshold_symmetric(d: int) -> float:
    """Symmetric visibility threshold (sqrt(d)+2)/(2(sqrt(d)+1)).

    Closed-form solution of the joint-measurability boundary at equal noise;
    the d = 2 limit 1/sqrt(2) is included.
    """
    d = check_int(d, 2, "dimension")
    s = math.sqrt(d)
    return (s + 2.0) / (2.0 * (s + 1.0))


def exact_eta_of_chi(d: int, vx: float) -> float:
    """Joint-measurability boundary va of the noisy MUB pair given vx: the
    known algebraic condition (d - 1)(va + vx) - sqrt(d - (d - 1)(va - vx)^2)
    <= d - 2, whose d = 2 case is its limit va^2 + vx^2 <= 1, solved for va.
    With y = 1 - vx it is min(1, ((d - 2) y + 2 sqrt(y (d - (d - 1) y)))/d),
    which is sqrt(1 - vx^2) at d = 2, 1 at vx = 0 and 0 at vx = 1."""
    d = check_int(d, 2, "dimension")
    y = 1.0 - check_visibility(vx, "vx")
    return min(1.0, ((d - 2) * y + 2.0 * math.sqrt(y * (d - (d - 1) * y))) / d)


def renyi_mub_threshold_symmetric(d: int, tol: float = 1e-9) -> float:
    """Symmetric visibility threshold of the min/max-entropy criterion for noisy
    MUBs, by the root-finder on its closed-form margin with
    ``BOUNDARY`` of slack; the one entropic formula kept, for a
    dimension (d = 400) whose bases the pipeline cannot yet build."""
    d = check_int(d, 2, "dimension")

    def margin(v: float) -> float:
        numer = (math.sqrt(v + (1.0 - v) / d) + (d - 1) * math.sqrt((1.0 - v) / d)) ** 2
        return 1.0 - BOUNDARY - numer / (1.0 + (d - 1) * v)

    return bisect_threshold(margin, tol).value


def qubit_exact_threshold(z, x) -> float:
    """Busch's visibility threshold min(1, 2/(|z+x| + |z-x|)) for equal-visibility
    unbiased qubit measurements along real Bloch vectors z and x of length at most
    1 (``PROJECTIVE`` of slack); the cap binds only for short ones."""
    z = check_numeric(z, "z", "vector", real=True)
    x = check_numeric(x, "x", "vector", real=True)
    for name, u in (("z", z), ("x", x)):
        if u.shape != (3,) or not math.sqrt(u @ u) <= 1.0 + PROJECTIVE:
            raise ValueError(f"{name} must be a real 3-vector of length at most 1")
    plus, minus = z + x, z - x
    s = math.sqrt(plus @ plus) + math.sqrt(minus @ minus)
    return 2.0 / s if s > 2.0 else 1.0
