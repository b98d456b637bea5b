"""Steering-criterion engine: uncertainty bound, inequality evaluation, and a
local-hidden-state Monte-Carlo falsification harness.

The criterion evaluated here is

    H_a(X_B | X_A) + H_b(Z_B | Z_A) >= q(X_B, Z_B),    1/a + 1/b = 2,

with ``q`` the overlap bound of Bob's two measurements.  ``evaluate`` tests
Bob-first statistics, from ``born_statistics`` or ``lhs_statistics``, against
``q``: a positive violation (bound minus left-hand side) certifies steering;
statistics produced by any local-hidden-state model can never violate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLS
from .entropy import JointDistribution, as_distribution, conditional_renyi, dual_order
from .qobj import DensityMatrix, Povm, joint_distribution

MEASUREMENT_LABELS = ("x", "z")


class UnsupportedBoundError(ValueError):
    """Overlap bound requested for measurements it is not defined for."""


def overlap_bound(x: Povm, z: Povm) -> float:
    """Uncertainty bound q = -log2 c^2, c the largest eigenvector overlap.

    Defined for rank-1 projective measurements only; general POVMs are
    rejected rather than guessed at.
    """
    for p in (x, z):
        if not p.is_rank1_projective():
            raise UnsupportedBoundError(
                "overlap bound requires rank-1 projective measurements"
            )
    if x.dim != z.dim:
        raise ValueError("measurements act on different dimensions")
    ex, ez = np.stack(x.effects), np.stack(z.effects)
    # |<x_i|z_j>|^2 = tr[X_i Z_j]; evaluating both operand orders keeps the
    # bound exactly symmetric in its arguments.
    c2 = max(
        np.einsum("iab,jba->ij", ex, ez).real.max(),
        np.einsum("iab,jba->ij", ez, ex).real.max(),
    )
    c2 = min(max(float(c2), 1.0 / x.dim), 1.0)
    return float(-np.log2(c2))


@dataclass(frozen=True)
class SteeringCertificate:
    """Outcome of one steering test, all quantities in bits."""

    lhs: float
    bound: float
    violation: float
    alpha: float
    beta: float

    @property
    def detected(self) -> bool:
        return self.violation > 0.0


def steering_lhs(jx: JointDistribution, jz: JointDistribution, alpha: float) -> float:
    """Left-hand side H_a(X_B|X_A) + H_b(Z_B|Z_A) with b the dual order.

    Both tables carry Bob's outcome on the first axis and Alice's on the
    second (the conditioning side).
    """
    beta = dual_order(alpha)
    return conditional_renyi(jx, alpha) + conditional_renyi(jz, beta)


def born_statistics(
    rho: DensityMatrix, alice_x: Povm, alice_z: Povm, bob_x: Povm, bob_z: Povm
) -> tuple[JointDistribution, JointDistribution]:
    """Bob-first Born tables p(b, a) = tr[(E_a (x) F_b) rho] for both settings."""
    return (
        joint_distribution(rho, alice_x, bob_x).swapped(),
        joint_distribution(rho, alice_z, bob_z).swapped(),
    )


def evaluate(
    jx: JointDistribution, jz: JointDistribution, bound: float, alpha: float
) -> SteeringCertificate:
    """Steering test of Bob-first tables, from ``born_statistics`` or ``lhs_statistics``.

    ``bound`` is ``overlap_bound(bob_x, bob_z)``: it depends on Bob's
    measurements only (Alice's devices stay uncharacterized).
    """
    lhs = steering_lhs(jx, jz, alpha)
    return SteeringCertificate(
        lhs=lhs,
        bound=bound,
        violation=bound - lhs,
        alpha=float(alpha),
        beta=dual_order(alpha),
    )


@dataclass(frozen=True)
class LhsModel:
    """Local-hidden-state model: weights, Bob's states, Alice's responses.

    ``responses[label]``, for each label of ``MEASUREMENT_LABELS`` and no
    other, is a row-stochastic array of shape (n_lambda, n_outcomes): the
    distribution of Alice's announced outcome for each hidden variable.
    """

    weights: np.ndarray
    hidden_states: tuple[DensityMatrix, ...]
    responses: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        w = as_distribution(self.weights)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if len(self.hidden_states) != w.size:
            raise ValueError("one hidden state per weight is required")
        odd = sorted(set(self.responses) ^ set(MEASUREMENT_LABELS))
        if odd:
            raise ValueError(f"response map {odd[0]!r} is missing or unknown")
        for label, resp in self.responses.items():
            r = np.asarray(resp, dtype=float)
            if r.ndim != 2 or r.shape[0] != w.size:
                raise ValueError(
                    f"response map {label!r} must have shape ({w.size}, k), got {r.shape}"
                )
            if r.min() < -DEFAULT_TOLS.prob_negativity:
                raise ValueError(f"response map {label!r} has negative entries")
            if np.abs(r.sum(axis=1) - 1.0).max() > DEFAULT_TOLS.structural:
                raise ValueError(f"response map {label!r} is not row-stochastic")

    @property
    def n_lambda(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.hidden_states[0].dim


def _random_density_matrix(rng: np.random.Generator, d: int) -> DensityMatrix:
    """Mixture of 2d Haar-like pure states (normalized complex Gaussians)."""
    weights = rng.dirichlet(np.ones(2 * d))
    rho = np.zeros((d, d), dtype=complex)
    for w in weights:
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        rho += w * np.outer(psi, psi.conj())
    return DensityMatrix(rho)


def sample_lhs_model(rng_seed: int, d: int, n_lambda: int) -> LhsModel:
    """Draw a random local-hidden-state model, deterministic in the seed."""
    if n_lambda < 1:
        raise ValueError("n_lambda must be at least 1")
    rng = np.random.default_rng(rng_seed)
    weights = rng.dirichlet(np.ones(n_lambda))
    states = tuple(_random_density_matrix(rng, d) for _ in range(n_lambda))
    responses = {
        label: rng.dirichlet(np.ones(d), size=n_lambda)
        for label in MEASUREMENT_LABELS
    }
    return LhsModel(weights=weights, hidden_states=states, responses=responses)


def lhs_statistics(
    model: LhsModel, bob_x: Povm, bob_z: Povm
) -> tuple[JointDistribution, JointDistribution]:
    """Observable tables p(b, a) = sum_l p(l) resp(a|l) tr[F_b sigma_l]."""
    if bob_x.dim != model.dim or bob_z.dim != model.dim:
        raise ValueError("Bob's measurements do not match the model dimension")
    sigmas = np.stack([s.matrix for s in model.hidden_states])
    joints = []
    for label, bob in zip(MEASUREMENT_LABELS, (bob_x, bob_z)):
        effects = np.stack(bob.effects)
        born = np.einsum("bij,lji->bl", effects, sigmas).real  # tr[F_b sigma_l]
        table = np.einsum("l,bl,la->ba", model.weights, born, model.responses[label])
        joints.append(JointDistribution(table))
    return joints[0], joints[1]
