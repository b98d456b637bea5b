"""Numerical tolerances used across the package, collected in one record."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Validation and comparison tolerances.

    Attributes
    ----------
    structural : float
        Hermiticity, unit trace, effect positivity and POVM completeness.
    prob_negativity : float
        Most negative probability entry tolerated before clamping to zero
        (Born-rule arithmetic leaves noise at this scale).
    prob_sum : float
        Deviation of a probability table's total from one.
    projective : float
        Slack on a Bloch vector's length in ``qubit_exact_threshold``.
    boundary : float
        Slack applied to analytic inequality boundaries so that exact
        equality points evaluate as satisfied.
    sufficiency : float
        Detected thresholds may undershoot the exact boundary by at most
        this much (the solver always reports the detecting side).
    """

    structural: float = 1e-10
    prob_negativity: float = 1e-12
    prob_sum: float = 1e-10
    projective: float = 1e-9
    boundary: float = 1e-12
    sufficiency: float = 1e-9


DEFAULT_TOLS = Tolerances()
