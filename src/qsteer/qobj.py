"""Quantum objects: POVMs, noise, Born statistics, and the density matrices
of local hidden states.

Complex linear algebra lives here. Born tables are taken on the maximally
entangled state |Phi+> = sum_i |ii>/sqrt(d), on which steering with Alice's
measurements is the same as their incompatibility, so no bipartite state is
ever built. Conventions: 0-based basis labels, ``omega = exp(2 pi i / d)``,
Alice (subsystem A) first in tensor products, and visibility ``v`` meaning
``measurement = v * ideal + (1 - v) * white noise`` (so the fully noisy
limit is v = 0).  Every outcome table is Bob-first, p(b, a): Bob's outcome on
the first axis and Alice's, the conditioning side, on the second, as
``entropy`` conditions.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import (PROB_NEGATIVITY, STRUCTURAL, JointDistribution, check_int, check_numeric,
                      check_visibility)

# I, sigma_x, sigma_y, sigma_z, each flattened to a row: (b, r) @ _PAULI is b I + r.sigma
_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]], dtype=complex)
_PAULI.setflags(write=False)
_SIGNS = np.array([1.0, -1.0])[:, None, None]  # s in the effects (I + s (b I + r.sigma))/2
_SIGNS.setflags(write=False)


def is_hermitian(a: np.ndarray) -> bool:
    """True when ``a``, or every matrix of a ``(..., d, d)`` stack, is Hermitian."""
    return bool(np.abs(a - np.swapaxes(a, -1, -2).conj()).max() <= STRUCTURAL)


def _psd_within_tolerance(a: np.ndarray) -> bool:
    """The PSD rule for a Hermitian ``a`` or ``(..., d, d)`` stack: every
    a + STRUCTURAL I has a Cholesky factor, so no eigenvalue lies below
    ``-STRUCTURAL``."""
    try:
        np.linalg.cholesky(a + STRUCTURAL * np.eye(a.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def is_psd(a: np.ndarray) -> bool:
    """True when ``a``, or every matrix of a ``(..., d, d)`` stack, is PSD."""
    return is_hermitian(a) and _psd_within_tolerance(a)


class DensityMatrix:
    """Quantum state of one system, or a ``(..., d, d)`` stack such as an LHS
    model's hidden states, checked at once (Hermitian, unit trace, PSD) or trusted as made (``_valid``)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = check_numeric(matrix, "density matrix", "matrix")
        if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.size == 0:
            raise ValueError("density matrix must be a nonempty square matrix or stack")
        if not is_hermitian(m):
            raise ValueError("density matrix is not Hermitian")
        traces = np.trace(m, axis1=-2, axis2=-1).real
        off = np.abs(traces - 1.0)
        if not off.max() <= STRUCTURAL:
            tr = float(traces.flat[off.argmax()])
            raise ValueError(f"density matrix has trace {tr!r}, not 1")
        if not _psd_within_tolerance(m):
            raise ValueError("density matrix has a negative eigenvalue")
        m.setflags(write=False)
        self.matrix = m

    @classmethod
    def _valid(cls, matrix: np.ndarray) -> "DensityMatrix":
        """``matrix``, valid by how it was made, stored read-only unchecked."""
        state = object.__new__(cls)
        state.matrix = matrix
        matrix.setflags(write=False)
        return state

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


class Povm:
    """Finite measurement: PSD effects summing to the identity, kept as the
    validated stack itself, one read-only ``effects`` array of shape (n, d, d),
    or stored unchecked by ``_valid`` where its caller says why it is valid.
    ``from_basis`` also keeps its d x d matrix, read-only, as ``basis`` (else
    None), so that two bases contract by one d x d product; their effects are
    still validated here through ``is_psd``: a basis passes exactly when they do."""

    __slots__ = ("effects", "basis")

    def __init__(self, effects):
        try:
            stack = np.asarray(effects)
        except ValueError as exc:  # ragged input
            raise ValueError("POVM effects must be square matrices of equal size") from exc
        stack = check_numeric(stack, "POVM effects", "array")
        if stack.shape[:1] == (0,):
            raise ValueError("a POVM needs at least one effect")
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] == 0:
            raise ValueError("POVM effects must be square matrices of equal size")
        if not is_psd(stack):
            raise ValueError("POVM effect is not positive semidefinite")
        if np.abs(stack.sum(axis=0) - np.eye(stack.shape[1])).max() > STRUCTURAL:
            raise ValueError("POVM effects do not sum to the identity")
        stack.setflags(write=False)
        self.effects = stack
        self.basis = None

    @classmethod
    def _valid(cls, effects: np.ndarray | None, basis: np.ndarray | None = None) -> "Povm":
        """``effects`` (if None, ``basis``'s projectors), valid as made, stored read-only unchecked."""
        povm = object.__new__(cls)
        povm.effects = basis.T[:, :, None] * basis.T[:, None, :].conj() if effects is None else effects
        povm.effects.setflags(write=False)
        if basis is not None:
            basis.setflags(write=False)
        povm.basis = basis
        return povm

    @classmethod
    def from_basis(cls, basis) -> "Povm":
        """Rank-1 projective POVM |b_k><b_k| from the columns of a unitary matrix,
        kept as a read-only copy in ``basis``.  A basis is square, so any other
        shape is refused, like non-numeric input; a frame's POVM is ``Povm(effects)``."""
        b = check_numeric(basis, "basis", "matrix")
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"basis must be a square matrix, got shape {b.shape}")
        povm = cls._valid(None, b)
        cls(povm.effects)  # the projectors, validated
        return povm

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]

    def __repr__(self) -> str:
        return f"Povm(dim={self.dim}, n_outcomes={self.n_outcomes})"


def qubit_povm(bias: float, bloch) -> Povm:
    """Two-outcome qubit measurement (I +- (b I + r.sigma))/2.

    ``bias`` is the outcome imbalance b; ``bloch`` the subnormalized Bloch
    vector r, both real.  Validity of both effects requires |b| + |r| <= 1, and
    the call raises ``ValueError`` otherwise; the visibility of the measurement is |r|.
    """
    bias = float(check_numeric(bias, "bias", "number", real=True))
    r = check_numeric(bloch, "bloch", "vector", real=True)
    if r.shape != (3,):
        raise ValueError("bloch must be a real 3-vector")
    size = abs(bias) + math.sqrt(r @ r)
    if not size <= 1.0 + PROB_NEGATIVITY:
        raise ValueError(f"invalid qubit POVM: |bias| + |bloch| = {size:.6f} exceeds 1")
    shift = (np.array([bias, *r]) @ _PAULI).reshape(2, 2)
    return Povm((np.eye(2) + _SIGNS * shift) / 2.0)


def fourier_matrix(d: int) -> np.ndarray:
    """Discrete Fourier matrix F[j,k] = omega^(-jk)/sqrt(d), omega = e^(2 pi i/d)."""
    d = check_int(d, 2, "dimension")
    k = np.arange(d)
    return np.exp(-2j * np.pi * k[:, None] * k / d) / np.sqrt(d)


def mub_pair(d: int) -> tuple[Povm, Povm]:
    """Computational basis and its Fourier transform: two mutually unbiased bases."""
    d = check_int(d, 2, "dimension")
    comp = Povm.from_basis(np.eye(d, dtype=complex))
    fourier = Povm.from_basis(fourier_matrix(d))
    return comp, fourier


def depolarize(p: Povm, v: float) -> Povm:
    """Mix each effect with white noise, E -> v E + (1 - v) tr(E) I/d: two POVMs' mix, stored unchecked."""
    v = check_visibility(v, "visibility")
    # contiguous rows sum in the order np.trace takes on a single effect
    tr = np.ascontiguousarray(np.diagonal(p.effects, axis1=1, axis2=2)).sum(axis=1).real
    return Povm._valid(v * p.effects + ((1.0 - v) * tr)[:, None, None] * np.eye(p.dim) / p.dim)


def joint_distribution(alice: Povm, bob: Povm) -> JointDistribution:
    """Bob-first Born-rule outcome table on the maximally entangled state
    |Phi+> = sum_i |ii>/sqrt(d): p(b, a) = <Phi+|E_a (x) F_b|Phi+> = tr(E_a F_b^T)/d.

    Two bases (``Povm.from_basis``) give |a^T b|^2/d by one d x d product.
    """
    d = alice.dim
    if bob.dim != d:
        raise ValueError(f"measurements act on different dimensions: {d} and {bob.dim}")
    amp2 = (1.0 / np.sqrt(d)) ** 2  # |<ii|Phi+>|^2; may differ from 1/d in the last bit
    if alice.basis is not None and bob.basis is not None:  # tr(|a><a| |b*><b*|) = |a^T b|^2
        return JointDistribution((np.abs(alice.basis.T @ bob.basis) ** 2 * amp2).T)
    e = alice.effects.reshape(alice.n_outcomes, -1) * amp2
    f = bob.effects.reshape(bob.n_outcomes, -1)
    # tr(E F^T) = sum_ij E[i,j] F[i,j]: one product of the flattened effects, transposed
    return JointDistribution((e @ f.T).real.T)


# ---------------------------------------------------------------------------
# d = 3 rotated-basis family
# ---------------------------------------------------------------------------


# the family's frame, built once: f, its projector, the relabeled Fourier basis
_D3_F = np.exp(-2j * np.pi / 3.0 * np.array([0.0, 1.0, 1.0])) / np.sqrt(3.0)
_D3_PROJ = np.outer(_D3_F, _D3_F.conj())
_D3_FOURIER = fourier_matrix(3)[:, [0, 2, 1]]


def rotated_d3_bases(t: float) -> tuple[Povm, Povm]:
    """The d=3 family interpolating from a MUB pair (t=0) to equal bases (t=1/2).

    The computational and the Fourier basis are rotated by the conjugate
    phases I + (e^(+-2 pi i t/3) - 1)|f><f| on f = (1, wbar, wbar)/sqrt(3),
    wbar = e^(-2 pi i/3): a vector of the third basis unbiased to both
    (Wootters and Fields, Ann. Phys. 191, 363 (1989)), the eigenvector of
    least phase in [0, 2 pi) of the Weyl product shift @ clock.  Their
    pairwise overlap grows with ``t`` until the bases coincide at t = 1/2; the
    Fourier columns are relabeled 0, 2, 1 so that they coincide there outcome
    by outcome.
    """
    t = float(check_numeric(t, "family parameter", "number", real=True))
    if not 0.0 <= t <= 0.5:
        raise ValueError(f"family parameter must lie in [0, 0.5], got {t!r}")
    phase = np.exp(2j * np.pi * t / 3.0)
    u_plus = np.eye(3) + (phase - 1.0) * _D3_PROJ
    u_minus = np.eye(3) + (phase.conjugate() - 1.0) * _D3_PROJ
    return Povm.from_basis(u_plus), Povm.from_basis(u_minus @ _D3_FOURIER)
