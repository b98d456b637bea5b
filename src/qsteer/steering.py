"""Steering-criterion engine: uncertainty bound, inequality evaluation, and a
local-hidden-state Monte-Carlo falsification harness.

The criterion evaluated here is

    H_a(X_B | X_A) + H_b(Z_B | Z_A) >= q(X_B, Z_B),    1/a + 1/b = 2,

with ``q`` the overlap bound of Bob's two measurements.  ``evaluate`` tests
Bob-first statistics against ``q``: the Born statistics of Alice's and Bob's
measurements on the maximally entangled state (``born_statistics``), or those
of a local-hidden-state model (``lhs_statistics``).  A positive violation
(bound minus left-hand side) certifies steering; statistics produced by any
local-hidden-state model can never violate it.  Bob's effects (``Povm.effects``)
and a model's hidden states arrive as validated read-only (n, d, d) stacks and
are contracted as they are; ``steering_lhs`` also takes stacks of tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

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
    # |<x_i|z_j>|^2 = tr[X_i Z_j] = sum_kl X_i[k,l] Z_j^T[k,l]: one product of the
    # flattened effects.  Both operand orders keep the bound exactly symmetric.
    fx, fz = (p.effects.reshape(p.n_outcomes, -1) for p in (x, z))
    tx, tz = (np.swapaxes(p.effects, 1, 2).reshape(p.n_outcomes, -1) for p in (x, z))
    c2 = max((fx @ tz.T).real.max(), (fz @ tx.T).real.max())
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


def steering_lhs(jx: JointDistribution, jz: JointDistribution, alpha: float):
    """Left-hand side H_a(X_B|X_A) + H_b(Z_B|Z_A) with b the dual order.

    Both tables carry Bob's outcome on the first axis and Alice's on the
    second (the conditioning side); stacks of tables give one value per pair.
    """
    beta = dual_order(alpha)
    return conditional_renyi(jx, alpha) + conditional_renyi(jz, beta)


def born_statistics(
    alice_x: Povm, alice_z: Povm, bob_x: Povm, bob_z: Povm
) -> tuple[JointDistribution, JointDistribution]:
    """Bob-first Born tables p(b, a) = tr(E_a F_b^T)/d on |Phi+> for both settings."""
    return (
        joint_distribution(alice_x, bob_x).swapped(),
        joint_distribution(alice_z, bob_z).swapped(),
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

    ``hidden_states`` is one :class:`DensityMatrix` holding the stack of
    Bob's states sigma_l, shape (n_lambda, d, d), one per weight.
    ``responses`` is a read-only mapping; ``responses[label]``, for each label
    of ``MEASUREMENT_LABELS`` and no other, is a read-only row-stochastic array
    of shape (n_lambda, n_outcomes): the distribution of Alice's announced
    outcome for each hidden variable.
    """

    weights: np.ndarray
    hidden_states: DensityMatrix
    responses: Mapping[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        w = as_distribution(self.weights)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        states = self.hidden_states
        if not isinstance(states, DensityMatrix) or states.matrix.shape[:-2] != (w.size,):
            raise ValueError(f"hidden states must be a DensityMatrix of shape ({w.size}, d, d)")
        odd = sorted(set(self.responses) ^ set(MEASUREMENT_LABELS))
        if odd:
            raise ValueError(f"response map {odd[0]!r} is missing or unknown")
        responses = {}
        for label, resp in self.responses.items():
            r = np.array(resp, dtype=float)
            if r.ndim != 2 or r.shape[0] != w.size:
                raise ValueError(
                    f"response map {label!r} must have shape ({w.size}, k), got {r.shape}"
                )
            if not r.min() >= -DEFAULT_TOLS.prob_negativity:
                raise ValueError(f"response map {label!r} has negative or NaN entries")
            if not np.abs(r.sum(axis=1) - 1.0).max() <= DEFAULT_TOLS.structural:
                raise ValueError(f"response map {label!r} is not row-stochastic")
            r.setflags(write=False)
            responses[label] = r
        object.__setattr__(self, "responses", MappingProxyType(responses))

    @property
    def n_lambda(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.hidden_states.dim


def _flat_dirichlet(rng: np.random.Generator, shape) -> np.ndarray:
    """``rng.dirichlet(np.ones(k), size)`` bit for bit, by its own recipe of
    exponentials over their running sum, without its per-call checks."""
    e = rng.standard_exponential(shape)
    return e * (1.0 / np.add.accumulate(e, axis=-1)[..., -1:])


def sample_lhs_model(rng_seed: int, d: int, n_lambda: int) -> LhsModel:
    """Draw a random local-hidden-state model, deterministic in the seed.

    Each hidden state mixes 2d Haar-like pure states (normalized complex
    Gaussians) with Dirichlet weights, drawn state by state; the states are
    summed and validated as one (n_lambda, d, d) stack.
    """
    if n_lambda < 1:
        raise ValueError("n_lambda must be at least 1")
    rng = np.random.default_rng(rng_seed)
    weights = _flat_dirichlet(rng, n_lambda)
    draws = [(_flat_dirichlet(rng, 2 * d), rng.normal(size=(2 * d, 2, d))) for _ in range(n_lambda)]
    mix, gauss = (np.array(a) for a in zip(*draws))
    psi = gauss[..., 0, :] + 1j * gauss[..., 1, :]
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    # sigma_l = sum_k mix_lk |psi_lk><psi_lk| for every l at once
    states = DensityMatrix(np.swapaxes(psi * mix[..., None], -1, -2) @ psi.conj())
    responses = {
        label: _flat_dirichlet(rng, (n_lambda, d))
        for label in MEASUREMENT_LABELS
    }
    return LhsModel(weights=weights, hidden_states=states, responses=responses)


def lhs_statistics(
    model: LhsModel, bob_x: Povm, bob_z: Povm
) -> tuple[JointDistribution, JointDistribution]:
    """Observable tables p(b, a) = sum_l p(l) resp(a|l) tr[F_b sigma_l]."""
    if bob_x.dim != model.dim or bob_z.dim != model.dim:
        raise ValueError("Bob's measurements do not match the model dimension")
    sigmas = model.hidden_states.matrix
    joints = []
    for label, bob in zip(MEASUREMENT_LABELS, (bob_x, bob_z)):
        born = np.einsum("bij,lji->bl", bob.effects, sigmas).real  # tr[F_b sigma_l]
        joints.append(JointDistribution((born * model.weights) @ model.responses[label]))
    return joints[0], joints[1]
