"""Steering-criterion engine: uncertainty bound, inequality evaluation, and a
local-hidden-state Monte-Carlo falsification harness.

The criterion evaluated here is

    H_a(X_B | X_A) + H_b(Z_B | Z_A) >= q(X_B, Z_B),    1/a + 1/b = 2,

with ``q`` the overlap bound of Bob's two measurements.  ``evaluate`` tests
Bob-first tables against ``q``, from one of the two table builders: the Born
rule on the maximally entangled state (``qobj.joint_distribution``, one
setting a call) or a local-hidden-state model (``lhs_statistics``).  A
positive violation (bound minus left-hand side) certifies steering;
statistics produced by any local-hidden-state model can never violate it.  Bob's effects (``Povm.effects``)
and a model's hidden states arrive as validated read-only stacks and are
contracted as they are.  An ``LhsModel`` may itself be a stack of models:
``sample_lhs_model`` draws one from one seed and one hidden-variable count
per model, one ``default_rng`` stream read in four calls for the whole stack
(weights, mixing exponentials, Gaussians, responses).  Models of fewer hidden
states are padded to the largest count with states of weight exactly 0, so
every row's tables are bit for bit those of the row alone; a sampled stack,
valid by how it is drawn, is stored unchecked.  ``lhs_statistics`` turns a
stack into one stack of plain tables, which ``steering_lhs`` checks on entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .entropy import (
    JointDistribution,
    check_int,
    check_numeric,
    check_probabilities,
    conditional_renyi,
    dual_order,
)
from .qobj import DensityMatrix, Povm

MEASUREMENT_LABELS = ("x", "z")


def overlap_bound(x: Povm, z: Povm) -> float:
    """Uncertainty bound q = -log2 c^2 for any two POVMs of one dimension d,
    c^2 = max_ab tr(F_a G_b) clamped to [1/d, 1]: for bases Maassen and
    Uffink's largest overlap max |<x_i|z_j>|^2 (PRL 60, 1103 (1988)).

    Krishna and Parthasarathy's Riesz-Thorin argument (Sankhya A 64, 842
    (2002)) gives the relation for POVMs and every dual pair 1/a + 1/b = 2
    with c^2 = max_ab ||sqrt(F_a) sqrt(G_b)||^2, never above tr(F_a G_b), so
    this bound is sound for every pair.  It is theirs when every effect of
    one of the two has rank at most 1 and c^2 >= 1/d, as each F_a G_b then
    has rank at most 1, its trace its largest eigenvalue.  Rank-1 projective
    pairs, once the only ones accepted, get the same value bit for bit.  Two
    bases X, Z give c by the d x d product X^+ Z, any other pair by its
    effects, each in both operand orders (they may round apart), so the
    bound is exactly symmetric."""
    if x.dim != z.dim:
        raise ValueError("measurements act on different dimensions")
    if x.basis is not None and z.basis is not None:
        c = max(np.abs(x.basis.conj().T @ z.basis).max(), np.abs(z.basis.conj().T @ x.basis).max())
        c2 = c * c
    else:  # tr[F_a G_b] = sum_kl F_a[k,l] G_b^T[k,l]: flattened effects
        fx, fz = (p.effects.reshape(p.n_outcomes, -1) for p in (x, z))
        tx, tz = (np.swapaxes(p.effects, 1, 2).reshape(p.n_outcomes, -1) for p in (x, z))
        c2 = max((fx @ tz.T).real.max(), (fz @ tx.T).real.max())
    c2 = min(max(float(c2), 1.0 / x.dim), 1.0)
    return float(0.0 - np.log2(c2))  # 0.0, not -0.0, when c^2 clamps to 1


@dataclass(frozen=True)
class SteeringCertificate:
    """Outcome of a steering test, all quantities in bits.  For a stack of
    tables ``lhs`` and ``violation`` are arrays, one entry per pair of tables,
    and ``detected`` is elementwise."""

    lhs: float
    bound: float
    violation: float

    @property
    def detected(self) -> bool:
        return self.violation > 0.0


def steering_lhs(jx, jz, alpha: float):
    """Left-hand side H_a(X_B|X_A) + H_b(Z_B|Z_A) with b the dual order.

    Both tables carry Bob's outcome on the first axis and Alice's on the
    second (the conditioning side); two stacks of one shape give one value per
    pair.  A plain table is checked as a ``JointDistribution`` first.
    """
    jx = jx if isinstance(jx, JointDistribution) else JointDistribution(jx)
    jz = jz if isinstance(jz, JointDistribution) else JointDistribution(jz)
    if jx.table.shape[:-2] != jz.table.shape[:-2]:
        raise ValueError(f"cannot pair x and z stacks of shapes {jx.table.shape[:-2]} and {jz.table.shape[:-2]}")
    beta = dual_order(alpha)
    return conditional_renyi(jx, alpha) + conditional_renyi(jz, beta)


def evaluate(
    jx: JointDistribution, jz: JointDistribution, bound: float, alpha: float
) -> SteeringCertificate:
    """Steering test of Bob-first tables, from ``qobj.joint_distribution`` or ``lhs_statistics``.

    ``bound`` is ``overlap_bound(bob_x, bob_z)``: it depends on Bob's
    measurements only (Alice's devices stay uncharacterized); a finite one of
    at least 0.  Plain tables are checked on entry; stacks give array values.
    """
    if type(bound) is not float:  # a Python float, as every solver margin passes, needs no rule
        bound = float(check_numeric(bound, "bound", "number", real=True))
    if not 0.0 <= bound < np.inf:  # also rejects NaN
        raise ValueError(f"bound must be finite and nonnegative, got {bound!r}")
    lhs = steering_lhs(jx, jz, alpha)
    return SteeringCertificate(lhs=lhs, bound=bound, violation=bound - lhs)


@dataclass(frozen=True)
class LhsModel:
    """Local-hidden-state model: weights, Bob's states, Alice's responses;
    or a stack of such models with one leading shape ``...``.

    ``weights`` has shape (..., n_lambda), one distribution per model.
    ``hidden_states`` is one :class:`DensityMatrix` holding Bob's states
    sigma_l, shape (..., n_lambda, d, d), one per weight.  ``responses`` is a
    read-only mapping; ``responses[label]``, for each label of
    ``MEASUREMENT_LABELS`` and no other, is a read-only array of shape
    (..., n_lambda, n_outcomes), n_outcomes >= 1: the distribution of Alice's
    announced outcome for each hidden variable.  Weights and every response
    row must be real numbers (``check_numeric``) and are validated and clamped
    like joint tables, by ``check_probabilities`` (``_valid`` trusts a model as made).
    """

    weights: np.ndarray
    hidden_states: DensityMatrix
    responses: Mapping[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        w = check_numeric(self.weights, "weights", "array", real=True)
        if w.ndim == 0 or w.size == 0:
            raise ValueError("weights must be a nonempty distribution or stack of them")
        w = check_probabilities(w, "distribution", -1)
        object.__setattr__(self, "weights", w)
        shape = ", ".join(map(str, w.shape))  # "n" for one model, "m, n" for a stack
        states = self.hidden_states
        if not isinstance(states, DensityMatrix) or states.matrix.shape[:-2] != w.shape:
            raise ValueError(f"hidden states must be a DensityMatrix of shape ({shape}, d, d)")
        odd = sorted(set(self.responses) ^ set(MEASUREMENT_LABELS))
        if odd:
            raise ValueError(f"response map {odd[0]!r} is missing or unknown")
        responses = {}
        for label, resp in self.responses.items():
            r = check_numeric(resp, f"response map {label!r}", "array", real=True)
            if r.shape[:-1] != w.shape or r.shape[-1] == 0:
                raise ValueError(
                    f"response map {label!r} must have shape ({shape}, k), k >= 1, got {r.shape}"
                )
            responses[label] = check_probabilities(r, f"response map {label!r}", -1)
        object.__setattr__(self, "responses", MappingProxyType(responses))

    @classmethod
    def _valid(cls, weights: np.ndarray, hidden_states: DensityMatrix, responses: dict) -> "LhsModel":
        """The model of these arrays, valid by how they were made, stored read-only unchecked."""
        model = object.__new__(cls)
        for a in (weights, *responses.values()):
            a.setflags(write=False)
        vars(model).update(weights=weights, hidden_states=hidden_states, responses=MappingProxyType(responses))
        return model

    @property
    def dim(self) -> int:
        return self.hidden_states.dim


def _flat_dirichlet(e: np.ndarray) -> np.ndarray:
    """``rng.dirichlet(np.ones(k), size)`` bit for bit from its standard
    exponentials ``e``, by its own recipe of ``e`` over the running sum of
    each row, without its per-call checks.  The sum runs along each row
    alone, so a stack of rows normalises as each row would on its own."""
    return e * (1.0 / np.add.accumulate(e, axis=-1)[..., -1:])


def sample_lhs_model(rng_seed, d: int, n_lambda) -> LhsModel:
    """Draw a random local-hidden-state model of ``n_lambda`` hidden states,
    deterministic in the one integer seed; or, for a nonempty 1-d sequence of
    counts, the stack of one model per count, leading shape (m,).

    One ``default_rng(seed)`` stream serves the whole stack, read in four
    calls, model after model within each: n weights, (n, 2d) mixing
    exponentials, (n, 2d, 2, d) Gaussians, then (2, n, d) response rows for x
    and z, n the sum of the counts.  One count makes exactly these four calls
    for one model.  The draws fill the drawn entries of (m, N) weights and
    (2, m, N, d) responses, N the largest count; a padded hidden state has
    weight exactly 0, is I/d and gets uniform responses, so it adds exactly 0
    to every table, and each row's tables are bit for bit those of the row
    alone.  Each hidden state mixes 2d Haar-like pure states (normalized
    complex Gaussians) with Dirichlet weights, built for the drawn entries
    only; Dirichlet rows and these states, padded with I/d, are valid by
    construction: stored unchecked.
    """
    d, seed = check_int(d, 2, "dimension"), check_int(rng_seed, 0, "seed")
    shape = np.shape(n_lambda)
    if len(shape) > 1 or shape == (0,):
        raise ValueError(f"n_lambda must be one count or a nonempty 1-d sequence of counts, got shape {shape}")
    if shape:  # each distinct count checked once
        rule = {c: check_int(c, 1, "n_lambda") for c in set(n_lambda)}
        counts = np.array([rule[c] for c in n_lambda])
    else:
        counts = np.array([check_int(n_lambda, 1, "n_lambda")])
    rng, n, k = np.random.default_rng(seed), counts.sum(), len(MEASUREMENT_LABELS)
    drawn = np.arange(counts.max()) < counts[:, None]
    weights, responses = np.zeros(drawn.shape), np.ones((k, *drawn.shape, d))
    weights[drawn] = rng.standard_exponential(n)
    mix = rng.standard_exponential((n, 2 * d))
    gauss = rng.normal(size=(n, 2 * d, 2, d))
    responses[:, drawn] = rng.standard_exponential((k, n, d))
    weights, mix, responses = (_flat_dirichlet(e) for e in (weights, mix, responses))
    psi = gauss[..., 0, :] + 1j * gauss[..., 1, :]
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    states = np.empty(weights.shape + (d, d), dtype=complex)
    states[...] = np.eye(d) / d
    # sigma_l = sum_k mix_lk |psi_lk><psi_lk| for every drawn state at once
    states[drawn] = np.swapaxes(psi * mix[..., None], -1, -2) @ psi.conj()
    if not shape:  # one count: index the stack of one
        weights, states, responses = weights[0], states[0], responses[:, 0]
    return LhsModel._valid(weights, DensityMatrix._valid(states), dict(zip(MEASUREMENT_LABELS, responses)))


def lhs_statistics(model: LhsModel, bob_x: Povm, bob_z: Povm) -> tuple[np.ndarray, np.ndarray]:
    """Observable tables p(b, a) = sum_l p(l) resp(a|l) tr[F_b sigma_l], plain
    arrays of shape (..., n_b, n_a) for a model stack of leading shape ``...``.

    The trace is one product over the flattened (i, j) index, summed in one
    order whatever the stack, and a padded hidden state of weight 0 adds
    exactly 0, so a stack's tables, ragged or not, are bit for bit those of
    each of its models alone.  Whichever consumer takes them checks them."""
    if bob_x.dim != model.dim or bob_z.dim != model.dim:
        raise ValueError("Bob's measurements do not match the model dimension")
    sigmas = model.hidden_states.matrix
    sigma_t = np.swapaxes(sigmas, -1, -2).reshape(sigmas.shape[:-2] + (-1,))
    tables = []
    for label, bob in zip(MEASUREMENT_LABELS, (bob_x, bob_z)):
        # tr[F_b sigma_l] = sum_ij F_b[i, j] sigma_l[j, i]
        born = np.einsum("bk,...lk->...bl", bob.effects.reshape(bob.n_outcomes, -1), sigma_t).real
        tables.append((born * model.weights[..., None, :]) @ model.responses[label])
    return tables[0], tables[1]
