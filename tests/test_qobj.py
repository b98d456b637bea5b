import re

import numpy as np
import pytest

from qsteer import qobj, scenarios
from qsteer.entropy import check_int, check_visibility
from qsteer.jointmeas import qubit_exact_threshold
from qsteer.qobj import (
    DensityMatrix,
    Povm,
    depolarize,
    fourier_matrix,
    is_hermitian,
    is_psd,
    joint_distribution,
    mub_pair,
    qubit_povm,
    rotated_d3_bases,
)
from qsteer.steering import overlap_bound

from helpers import random_unitary


def random_povm(rng, d, n_effects):
    """Random POVM via symmetrized Gram normalization."""
    gs = []
    for _ in range(n_effects):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gs.append(a @ a.conj().T)
    total = sum(gs)
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(w**-0.5) @ v.conj().T
    return Povm([inv_sqrt @ g @ inv_sqrt for g in gs])


class TestFourier:
    def test_d2_matrix(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(fourier_matrix(2) - expected).max() < 1e-15

    @pytest.mark.parametrize("d", range(2, 13))
    def test_unitary(self, d):
        f = fourier_matrix(d)
        assert np.abs(f @ f.conj().T - np.eye(d)).max() < 1e-12

    def test_constant_modulus(self):
        assert np.abs(np.abs(fourier_matrix(5)) - 1 / np.sqrt(5)).max() < 1e-13

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            fourier_matrix(1)

    def test_bytes_equal_the_meshgrid_formula(self):
        # broadcasting k[:, None] * k takes the same operations in the same order
        for d in range(2, 65):
            j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
            reference = np.exp(-2j * np.pi * j * k / d) / np.sqrt(d)
            assert fourier_matrix(d).tobytes() == reference.tobytes(), d


def assert_rank1_projective(effects):
    """E_a E_a = E_a and tr E_a = 1, each within 1e-12."""
    assert np.abs(effects @ effects - effects).max() <= 1e-12
    assert np.abs(np.trace(effects, axis1=1, axis2=2) - 1.0).max() <= 1e-12


class TestMubPair:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cross_overlaps(self, d):
        comp, four = mub_pair(d)
        for e in comp.effects:
            for f in four.effects:
                overlap2 = np.trace(e @ f).real
                assert overlap2 == pytest.approx(1.0 / d, abs=1e-12)

    def test_povm_structure(self):
        comp, four = mub_pair(4)
        for p in (comp, four):
            assert p.n_outcomes == 4
            assert_rank1_projective(p.effects)


class TestEffectStack:
    def test_effects_are_one_read_only_stack(self):
        given = np.array([np.diag([0.7, 0.2]), np.diag([0.3, 0.8])])
        comp, four = mub_pair(3)
        cases = [(Povm(given), 2, 2), (Povm(list(given)), 2, 2), (comp, 3, 3), (four, 3, 3),
                 (depolarize(four, 0.4), 3, 3), (qubit_povm(0.1, (0, 0.5, 0)), 2, 2)]
        for p, n, d in cases:
            assert type(p.effects) is np.ndarray and p.effects.dtype == complex
            assert p.effects.shape == (n, d, d) == (p.n_outcomes, p.dim, p.dim)
            assert not p.effects.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                p.effects[0, 0, 0] = 1.0
        # the stack is a copy: the caller's array stays writable and unshared
        given[0, 0, 0] = 0.5
        assert cases[0][0].effects[0, 0, 0] == 0.7

    def test_bases_and_noise_match_per_effect_builds(self):
        rng = np.random.default_rng(41)
        bases = [np.eye(d, dtype=complex) for d in range(2, 7)]
        bases += [fourier_matrix(d) for d in range(2, 7)]
        bases += [random_unitary(rng, d) for d in range(2, 7)]
        povms = [qubit_povm(0.25, (0.3, -0.2, 0.4))]
        for b in bases:
            p = Povm.from_basis(b)
            ref = [np.outer(b[:, k], b[:, k].conj()) for k in range(b.shape[1])]
            assert np.array_equal(p.effects, np.array(ref))
            povms.append(p)
        for p in povms:
            d = p.dim
            for v in (0.0, 0.3, 0.77, 1.0):
                ref = [v * e + (1.0 - v) * np.trace(e).real * np.eye(d) / d for e in p.effects]
                assert np.array_equal(depolarize(p, v).effects, np.array(ref))


# the 2 x 3 trine frame: three real unit vectors at 120 degrees, scaled by sqrt(2/3)
TRINE = np.sqrt(2.0 / 3.0) * np.array(
    [[np.cos(2 * np.pi * k / 3) for k in range(3)], [np.sin(2 * np.pi * k / 3) for k in range(3)]]
)


class TestFromBasis:
    def test_basis_kept_as_a_read_only_copy(self):
        given = fourier_matrix(3).copy()
        p = Povm.from_basis(given)
        assert p.basis.dtype == complex and np.array_equal(p.basis, given)
        assert not p.basis.flags.writeable and given.flags.writeable
        given[0, 0] = 7.0
        assert p.basis[0, 0] == 1.0 / np.sqrt(3.0)
        real = Povm.from_basis(np.eye(2, dtype=int))
        assert real.basis.dtype == complex and np.array_equal(real.basis, np.eye(2))

    def test_povms_built_from_effects_keep_no_basis(self):
        comp, four = mub_pair(3)
        assert comp.basis is not None and four.basis is not None
        others = [Povm(four.effects), depolarize(four, 1.0), qubit_povm(0.0, (0, 0, 1))]
        assert all(p.basis is None for p in others)

    @pytest.mark.parametrize(
        "basis, message",
        [
            ([1, 0], "square matrix, got shape (2,)"),
            ([[1, 0]], "square matrix, got shape (1, 2)"),
            (TRINE, "square matrix, got shape (2, 3)"),
            (np.eye(2)[None], "square matrix, got shape (1, 2, 2)"),
            (3.0, "square matrix, got shape ()"),
            ("ab", "numeric matrix, got 'ab'"),
            ([["1", "0"], ["0", "1"]], "numeric matrix, got [['1', '0'], ['0', '1']]"),
            (None, "numeric matrix, got None"),
            ([[1, 0], [0]], "inhomogeneous shape"),
        ],
    )
    def test_non_square_or_non_numeric_input_rejected(self, basis, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Povm.from_basis(basis)

    def test_trine_is_a_povm_that_is_not_projective(self):
        # the frame that from_basis refuses makes a valid three-outcome POVM
        trine = Povm([np.outer(c, c) for c in TRINE.T])
        assert trine.n_outcomes == 3 and trine.dim == 2
        assert trine.basis is None
        with pytest.raises(AssertionError):  # E_a E_a = (2/3) E_a and tr E_a = 2/3
            assert_rank1_projective(trine.effects)

    def test_stretched_column_gets_one_bound_from_basis_and_effects(self):
        # at d = 50 one Fourier column stretched to |b|^2 = 1 + 4.5e-9 keeps the
        # effects' sum within 9e-11 of I, so the POVM is valid; for rank-1 effects
        # of any norm both paths take |<x|z>|^2, here the stretched (1 + 4.5e-9)/d
        d = 50
        stretched = fourier_matrix(d)
        stretched[:, 0] *= np.sqrt(1.0 + 4.5e-9)
        p = Povm.from_basis(stretched)
        comp = Povm.from_basis(np.eye(d, dtype=complex))
        bound = overlap_bound(p, comp)
        assert abs(bound - overlap_bound(Povm(p.effects), comp)) <= 1e-14
        assert bound == pytest.approx(-np.log2((1.0 + 4.5e-9) / d), abs=1e-12)


class TestDepolarize:
    def test_identity_at_full_visibility(self):
        comp, _ = mub_pair(3)
        out = depolarize(comp, 1.0)
        for a, b in zip(out.effects, comp.effects):
            assert np.abs(a - b).max() < 1e-15

    def test_full_noise_limit(self):
        comp, _ = mub_pair(3)
        out = depolarize(comp, 0.0)
        for e in out.effects:
            assert np.abs(e - np.eye(3) / 3).max() < 1e-15

    def test_d2_example(self):
        comp, _ = mub_pair(2)
        out = depolarize(comp, 0.6)
        assert np.abs(out.effects[0] - np.diag([0.8, 0.2])).max() < 1e-15

    def test_visibility_range(self):
        comp, _ = mub_pair(2)
        with pytest.raises(ValueError):
            depolarize(comp, 1.1)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_preserves_completeness_on_random_povms(self, d):
        # depolarize stores its mix unchecked: Povm's own checks must pass it bit for bit
        rng = np.random.default_rng(100 + d)
        povms = [random_povm(rng, d, rng.integers(2, 6)) for _ in range(100)] + list(mub_pair(d))
        if d == 2:  # biased qubit POVMs, up to the edge |b| + |r| = 1
            for size in (0.5, 0.9, 1.0):
                for bias in rng.uniform(-1.0, 1.0, size=20) * size:
                    u = rng.normal(size=3)
                    povms.append(qubit_povm(bias, (size - abs(bias)) * u / np.linalg.norm(u)))
        for p in povms:
            for v in (0.0, 0.3, 0.8, 1.0):
                out = depolarize(p, v)
                assert Povm(out.effects).effects.tobytes() == out.effects.tobytes()
                assert out.basis is None and not out.effects.flags.writeable

    def test_bad_input_rejected_before_a_trusted_construction(self, monkeypatch):
        comp, _ = mub_pair(2)
        monkeypatch.setattr(Povm, "_valid", classmethod(lambda *args: pytest.fail("stored unchecked")))
        with pytest.raises(ValueError, match=re.escape("visibility must lie in [0, 1], got 1.5")):
            depolarize(comp, 1.5)
        with pytest.raises(ValueError, match=re.escape("family parameter must lie in [0, 0.5], got 0.6")):
            rotated_d3_bases(0.6)


class TestMaxEntangledState:
    def test_reduced_states_maximally_mixed(self):
        # a reduced state is I/d iff every projective measurement on its side
        # has uniform outcomes; four random bases of C^3 are tomographically
        # complete, so uniform marginals on both sides of the |Phi+> Born
        # table pin both reduced states to I/3
        rng = np.random.default_rng(7)
        bases = []
        for _ in range(4):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            bases.append(Povm([np.outer(q[:, k], q[:, k].conj()) for k in range(3)]))
        for alice in bases:
            for bob in bases:
                j = joint_distribution(alice, bob).table
                assert np.abs(j.sum(axis=1) - 1.0 / 3.0).max() < 1e-12
                assert np.abs(j.sum(axis=0) - 1.0 / 3.0).max() < 1e-12


class TestJointDistributionOp:
    def test_perfect_correlation_comp_basis(self):
        comp, _ = mub_pair(2)
        j = joint_distribution(comp, comp)
        assert np.abs(j.table - np.diag([0.5, 0.5])).max() < 1e-12

    def test_depolarized_alice_gives_product(self):
        comp, four = mub_pair(3)
        j = joint_distribution(depolarize(comp, 0.0), four).table
        marg_b = j.sum(axis=1)
        assert np.abs(j - np.outer(marg_b, np.full(3, 1.0 / 3.0))).max() < 1e-12

    def test_fourier_pair_relabeled_correlation(self):
        _, four = mub_pair(3)
        j = joint_distribution(four, four).table
        for a in range(3):
            b = (-a) % 3
            assert j[b, a] == pytest.approx(1.0 / 3.0, abs=1e-12)
            assert j[:, a].sum() == pytest.approx(j[b, a], abs=1e-12)

    def test_marginals_match_independent_evaluation(self):
        # both reduced states of |Phi+> are I/d, so the marginals are tr(E_a)/d
        # and tr(F_b)/d
        rng = np.random.default_rng(3)
        alice = random_povm(rng, 3, 4)
        bob = random_povm(rng, 3, 3)
        j = joint_distribution(alice, bob).table
        for a, e in enumerate(alice.effects):
            assert j[:, a].sum() == pytest.approx(np.trace(e).real / 3, abs=1e-10)
        for b, f in enumerate(bob.effects):
            assert j[b].sum() == pytest.approx(np.trace(f).real / 3, abs=1e-10)

    @pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 3)])
    def test_matches_kron_reference(self, da, db):
        rng = np.random.default_rng(10 * da + db)
        alice = random_povm(rng, da, 3)
        bob = random_povm(rng, db, 4)
        if da != db:  # |Phi+> needs equal dimensions
            with pytest.raises(ValueError, match="different dimensions: 2 and 3"):
                joint_distribution(alice, bob)
            return
        phi = np.eye(da).reshape(-1) / np.sqrt(da)
        expected = np.array(
            [[(phi @ np.kron(e, f) @ phi).real for e in alice.effects] for f in bob.effects]
        )
        table = joint_distribution(alice, bob).table
        assert np.abs(table - expected).max() <= 1e-12

    def test_dimension_mismatch(self):
        comp2, _ = mub_pair(2)
        comp3, _ = mub_pair(3)
        with pytest.raises(ValueError):
            joint_distribution(comp2, comp3)

    @pytest.mark.parametrize("d", [*range(2, 11), 50])
    def test_bases_match_their_effects(self, d):
        # two bases take |A^T B|^2/d from their matrices; every other pair
        # contracts the effects exactly as a pair without bases does
        rng = np.random.default_rng(100 + d)
        for _ in range(3):
            a, b = (Povm.from_basis(random_unitary(rng, d)) for _ in range(2))
            bare_a, bare_b = Povm(a.effects), Povm(b.effects)
            reference = joint_distribution(bare_a, bare_b).table
            assert np.abs(joint_distribution(a, b).table - reference).max() <= 1e-15
            for x, y in ((a, bare_b), (bare_a, b)):
                assert joint_distribution(x, y).table.tobytes() == reference.tobytes()


class TestQubitPovm:
    def test_projective_sigma_z(self):
        p = qubit_povm(0.0, (0, 0, 1))
        assert np.abs(p.effects[0] - np.diag([1.0, 0.0])).max() < 1e-15
        assert_rank1_projective(p.effects)

    def test_subnormalized_bloch(self):
        p = qubit_povm(0.0, (0, 0, 0.3))
        assert np.abs(p.effects[0] - np.diag([0.65, 0.35])).max() < 1e-15
        assert np.abs(p.effects[1] - np.diag([0.35, 0.65])).max() < 1e-15

    def test_biased_effects_within_unit_interval(self):
        # valid iff |b| + |r| <= 1; (0.4, 0.6) puts eigenvalues exactly at 0 and 1
        for b, r in [(0.3, 0.6), (0.4, 0.6)]:
            p = qubit_povm(b, (r, 0, 0))
            for e, sign in zip(p.effects, (1.0, -1.0)):
                w = np.linalg.eigvalsh(e)
                assert w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12
                expected = np.sort([(1 + sign * b - r) / 2, (1 + sign * b + r) / 2])
                assert np.abs(w - expected).max() < 1e-12

    def test_validity_violation(self):
        with pytest.raises(ValueError):
            qubit_povm(0.5, (0.8, 0, 0))

    @pytest.mark.parametrize("bloch", [(0.5, 0.0), (0.5, 0.0, 0.0, 0.0), [[0.5, 0.0, 0.0]]])
    def test_bloch_must_be_a_3_vector(self, bloch):
        with pytest.raises(ValueError, match="bloch must be a real 3-vector"):
            qubit_povm(0.0, bloch)

    @pytest.mark.parametrize("bias, bloch", [(np.nan, (0, 0, 0.5)), (0.0, (np.nan, 0, 0))])
    def test_nan_input_rejected_as_invalid(self, bias, bloch):
        with pytest.raises(ValueError, match=r"invalid qubit POVM: \|bias\| \+ \|bloch\| must be at most 1, got nan"):
            qubit_povm(bias, bloch)

    def test_roundtrip_through_type(self):
        total = sum(qubit_povm(0.2, (0.1, 0.2, 0.3)).effects)
        assert np.abs(total - np.eye(2)).max() < 1e-14

    def test_effects_equal_the_pauli_generator_sum(self):
        # the generator sum b I + sum_k r_k sigma_k, one effect at a time, is the
        # reference: each entry of the one product has one nonzero term per part
        sigma = [
            np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
            np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
            np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
        ]

        def reference(bias, bloch):
            shift = bias * np.eye(2) + sum(c * s for c, s in zip(bloch, sigma))
            return Povm([(np.eye(2) + shift) / 2.0, (np.eye(2) - shift) / 2.0])

        rng = np.random.default_rng(2253)
        cases = [(0.0, np.zeros(3)), (1.0, np.zeros(3)), (-0.4, np.array([0.0, -0.6, 0.0]))]
        for i in range(1200):
            r = rng.normal(size=3)
            r[rng.random(3) < 0.3] = 0.0
            norm = np.linalg.norm(r)
            if norm:  # lengths in [1/2, 1] leave 1 - |r| exact, so |b| + |r| = 1 exactly
                r *= rng.uniform(0.5, 1.0) / norm if i % 3 == 0 else rng.uniform(0.0, 1.0) / norm
            room = 1.0 - np.linalg.norm(r)
            cases.append((room * (rng.choice([-1.0, 1.0]) if i % 3 == 0 else rng.uniform(-1.0, 1.0)), r))
        on_boundary = [abs(b) + np.linalg.norm(r) == 1.0 for b, r in cases]
        assert sum(on_boundary) >= 400
        assert sum(0.0 in r for _, r in cases) >= 400 and sum((r < 0.0).any() for _, r in cases) >= 800
        for bias, bloch in cases:
            assert np.array_equal(qubit_povm(bias, bloch).effects, reference(bias, bloch).effects), (bias, bloch)
        stack = np.stack([np.eye(2), *sigma]).reshape(4, 4)
        assert np.array_equal(qobj._PAULI, stack) and not qobj._PAULI.flags.writeable

    def test_trusted_qubit_equals_the_validated_one(self):
        # Povm._qubit stores qubit_povm's effects unchecked: bit for bit the same, read-only,
        # and passed by Povm's own checks, inside and on the edge |b| + |r| = 1
        rng = np.random.default_rng(2255)
        cases = [(0.0, (1.0, 0.0, 0.0)), (0.0, [0, 0, 1]), (-1.0, np.zeros(3)), (0.3, (0.0, -0.7, 0.0))]
        for i in range(600):
            r = rng.normal(size=3)
            r *= rng.uniform(0.0, 1.0) / np.linalg.norm(r)
            room = 1.0 - np.linalg.norm(r)
            cases.append((room * (rng.choice([-1.0, 1.0]) if i % 2 else rng.uniform(-1.0, 1.0)), r))
        for bias, bloch in cases:
            trusted = Povm._qubit(bias, bloch)
            assert trusted.effects.tobytes() == qubit_povm(bias, bloch).effects.tobytes(), (bias, bloch)
            assert Povm(trusted.effects).effects.tobytes() == trusted.effects.tobytes()
            assert trusted.basis is None and not trusted.effects.flags.writeable
        assert not qobj._I2.flags.writeable and np.array_equal(qobj._I2, np.eye(2))

    @pytest.mark.parametrize("bias, bloch", [(0.5, (0.8, 0.0, 0.0)), (-0.2, (0.0, 0.6, 0.6)), (1e-9, (0, 0, 1))])
    def test_bias_past_the_edge_rejected_before_construction(self, monkeypatch, bias, bloch):
        # the trusted formula would store an effect with a negative eigenvalue; qubit_povm,
        # where the input comes in, rejects it before any construction
        assert not is_psd(Povm._qubit(bias, bloch).effects)
        monkeypatch.setattr(Povm, "_qubit", classmethod(lambda *args: pytest.fail("constructed")))
        monkeypatch.setattr(Povm, "_valid", classmethod(lambda *args: pytest.fail("stored unchecked")))
        with pytest.raises(ValueError, match=r"invalid qubit POVM: \|bias\| \+ \|bloch\| must be at most 1"):
            qubit_povm(bias, bloch)

    def test_unit_vectors_equal_the_norm_formula(self):
        rng = np.random.default_rng(2254)
        for _ in range(1000):
            u = rng.normal(size=3) * rng.uniform(1e-3, 1e3)
            u[rng.random(3) < 0.2] = 0.0
            if u.any():
                assert scenarios._unit(u).tobytes() == (u / np.linalg.norm(u)).tobytes(), u
                assert scenarios._unit(tuple(u)).tobytes() == (u / np.linalg.norm(u)).tobytes(), u


def weyl_frame():
    """The d = 3 frame derived at run time: eigenvectors of the Weyl product
    shift @ clock ordered by phase in [0, 2 pi), the first one's projector,
    and the outcome pairing of the two bases at t = 1/2 by largest overlap."""
    shift = np.roll(np.eye(3, dtype=complex), 1, axis=0)  # |j> -> |j + 1 mod 3>
    clock = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    evals, evecs = np.linalg.eig(shift @ clock)
    first = evecs[:, np.argsort(np.angle(evals) % (2.0 * np.pi))[0]]
    first = first / np.linalg.norm(first)
    proj = np.outer(first, first.conj())
    half_turn = [np.eye(3) + (np.exp(s * 1j * np.pi / 3) - 1.0) * proj for s in (1, -1)]
    overlap = np.abs(half_turn[0].conj().T @ (half_turn[1] @ fourier_matrix(3)))
    return shift @ clock, evals, proj, np.argmax(overlap, axis=1)


class TestRotatedD3:
    def test_frame_vector_is_the_weyl_eigenvector_of_least_phase(self):
        weyl, evals, proj, _ = weyl_frame()
        f = qobj._D3_F
        eigenvalue = np.vdot(f, weyl @ f)
        assert np.abs(weyl @ f - eigenvalue * f).max() < 1e-15
        phases = np.angle(evals) % (2.0 * np.pi)
        assert abs(np.angle(eigenvalue) % (2.0 * np.pi) - phases.min()) < 1e-15
        assert np.abs(qobj._D3_PROJ - proj).max() < 1e-15

    def test_frame_vector_is_unbiased_to_both_bases(self):
        for basis in (np.eye(3), fourier_matrix(3)):
            assert np.abs(np.abs(basis.conj().T @ qobj._D3_F) ** 2 - 1.0 / 3.0).max() < 1e-15

    def test_fourier_relabeling_is_the_coincidence_pairing(self):
        _, _, _, pairing = weyl_frame()
        assert pairing.tolist() == [0, 2, 1]
        assert qobj._D3_FOURIER.tobytes() == fourier_matrix(3)[:, pairing].tobytes()

    def test_t0_is_mub_pair(self):
        z0, x0 = rotated_d3_bases(0.0)
        comp, four = mub_pair(3)
        for a, b in zip(z0.effects, comp.effects):
            assert np.abs(a - b).max() < 1e-12
        # the family relabels the Fourier outcomes; same effects as a set
        for e in x0.effects:
            assert any(np.abs(e - f).max() < 1e-12 for f in four.effects)

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.25, 0.4, 0.49, 0.4999999, 0.5])
    def test_overlap_equality_claims(self, t):
        z, x = rotated_d3_bases(t)
        # |<z|x>| = ||E_z E_x||_F for rank-1 projectors; a square root of
        # tr(E_z E_x) would amplify its ~1e-17 rounding noise to ~1e-9 near t = 1/2
        overlaps = np.array(
            [[np.linalg.norm(ez @ ex) for ex in x.effects] for ez in z.effects]
        )
        diag = np.diag(overlaps)
        off = overlaps[~np.eye(3, dtype=bool)]
        assert diag.max() - diag.min() < 1e-12
        assert off.max() - off.min() < 1e-12

    def test_bases_coincide_at_half(self):
        z, x = rotated_d3_bases(0.5)
        for ez, ex in zip(z.effects, x.effects):
            overlap = np.sqrt(max(np.trace(ez @ ex).real, 0.0))
            assert abs(overlap - 1.0) < 1e-9

    def test_overlap_grows_with_t(self):
        values = []
        for t in np.linspace(0.0, 0.5, 6):
            z, x = rotated_d3_bases(t)
            values.append(np.trace(z.effects[0] @ x.effects[0]).real)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rotated_d3_bases(0.6)
        with pytest.raises(ValueError):
            rotated_d3_bases(-0.1)

    @pytest.mark.parametrize("t", ["0.2", None, 0.2 + 0j, [0.2]])
    def test_parameter_that_is_no_real_number_rejected(self, t):
        # float() used to parse "0.2" and raise TypeError on the others
        with pytest.raises(ValueError, match=re.escape(f"family parameter must be a real number, got {t!r}")):
            rotated_d3_bases(t)


class TestValidation:
    def test_density_matrix_invariants(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.1j], [0.1j, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue

    def test_trace_message_is_a_plain_float(self):
        with pytest.raises(ValueError, match=r"has trace 2\.0, not 1$"):
            DensityMatrix(np.eye(2))

    @pytest.mark.parametrize(
        "member, message",
        [
            (np.array([[0.5, 0.1j], [0.1j, 0.5]]), "not Hermitian"),
            (np.eye(2), r"has trace 2\.0, not 1$"),
            (np.diag([1.5, -0.5]), "negative eigenvalue"),
        ],
    )
    def test_stack_with_one_bad_member_rejected(self, member, message):
        stack = np.stack([np.eye(2) / 2, member, np.diag([1.0, 0.0])])
        with pytest.raises(ValueError, match=message):
            DensityMatrix(stack)

    def test_each_member_of_a_stack_needs_unit_trace(self):
        # traces 2 and 0 average to one, so a whole-stack check would pass them
        with pytest.raises(ValueError, match=r"has trace (2|0)\.0, not 1$"):
            DensityMatrix(np.stack([np.eye(2), np.zeros((2, 2))]))

    def test_valid_stack_kept_whole(self):
        stack = np.stack([np.eye(3) / 3, np.diag([0.2, 0.3, 0.5])])
        rho = DensityMatrix(stack)
        assert rho.dim == 3
        assert np.array_equal(rho.matrix, stack)
        with pytest.raises(ValueError, match="must be a nonempty square matrix or stack"):
            DensityMatrix(np.zeros((0, 2, 2)))

    @pytest.mark.parametrize(
        "effects, message",
        [
            ([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])], "do not sum to the identity"),
            ([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])], "not positive semidefinite"),
            ([1.0], "must be square matrices of equal size"),
            ([[1.0, 0.0]], "must be square matrices of equal size"),
            ([np.eye(2) / 2, np.eye(3) / 2], "must be square matrices of equal size"),
            ([], "needs at least one effect"),
            ([np.zeros((0, 0))], "must be square matrices of equal size"),
        ],
        ids=["not-complete", "not-psd", "scalar", "row", "ragged", "empty", "zero-dim"],
    )
    def test_povm_invariants(self, effects, message):
        with pytest.raises(ValueError, match=message):
            Povm(effects)

    def test_non_hermitian_effects_summing_to_identity(self):
        skew = np.array([[0.5, 0.2], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="^POVM effect is not positive semidefinite$"):
            Povm([skew, np.eye(2) - skew])

    def test_negative_eigenvalue_in_first_of_three_effects(self):
        effects = [np.diag([-0.1, 0.0]), np.diag([0.6, 0.5]), np.diag([0.5, 0.5])]
        with pytest.raises(ValueError, match="^POVM effect is not positive semidefinite$"):
            Povm(effects)

    def test_predicates(self):
        assert is_hermitian(np.eye(2))
        assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
        assert is_psd(np.diag([0.5, 0.5]))
        assert not is_psd(np.diag([1.0, -0.1]))

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_predicates_on_stacks_with_one_failing_member(self, bad):
        good = [np.eye(2), np.diag([0.5, 0.5]), np.array([[0.5, 0.5j], [-0.5j, 0.5]])]
        assert is_hermitian(np.stack(good)) and is_psd(np.stack(good))

        not_psd = list(good)
        not_psd[bad] = np.diag([1.0, -0.1])
        assert is_hermitian(np.stack(not_psd))
        assert not is_psd(np.stack(not_psd))

        not_hermitian = list(good)
        not_hermitian[bad] = np.array([[0.5, 0.2], [0.0, 0.5]])
        assert not is_hermitian(np.stack(not_hermitian))
        assert not is_psd(np.stack(not_hermitian))

    @pytest.mark.parametrize("value", ["3", None, 3 + 0j, np.complex128(3 + 1j), np.array([3, 4])])
    def test_integer_rule_names_a_value_that_is_no_number(self, value):
        # these used to escape as TypeError: '>=' not supported ..., or, for
        # numpy values, pass as 3 with a ComplexWarning or raise numpy's error
        message = f"dimension must be an integer of at least 2, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_int(value, 2, "dimension")
        with pytest.raises(ValueError, match=re.escape(message)):
            mub_pair(value)

    def test_integer_rule_keeps_every_integer_exact(self):
        # a float() round trip would move 2**63 - 1 and overflow on 10**400
        for value in (np.int64(2**63 - 1), np.uint64(2**64 - 1), 10**400, 3.0, np.float32(3.0), True):
            assert check_int(value, 0, "seed") == int(value)
            assert type(check_int(value, 0, "seed")) is int

    @pytest.mark.parametrize("value", ["0.5", None, 1 + 0j, "x"])
    def test_visibility_rule_names_a_value_that_is_no_number(self, value):
        # "0.5" used to pass as 0.5, and None and 1+0j escaped as TypeError from float()
        message = f"visibility must lie in [0, 1], got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_visibility(value, "visibility")
        with pytest.raises(ValueError, match=re.escape(message)):
            depolarize(mub_pair(2)[0], value)

    @pytest.mark.parametrize("value", [np.complex128(0.5 + 1j), np.complex128(0.5), np.str_("0.5")])
    def test_visibility_rule_rejects_complex_and_string_numpy_scalars(self, value):
        # numpy orders complex scalars, so 0.5+1j used to pass and depolarize
        # returned the v = 0.5 POVM with only a ComplexWarning
        message = f"visibility must lie in [0, 1], got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_visibility(value, "visibility")
        with pytest.raises(ValueError, match=re.escape(message)):
            depolarize(mub_pair(2)[0], value)

    @pytest.mark.parametrize(
        "build, value, message",
        [
            (Povm, [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]], "POVM effects must be a numeric array"),
            (Povm, None, "POVM effects must be a numeric array, got array(None, dtype=object)"),
            (Povm, np.array([np.eye(2) / 2] * 2, dtype=object), "POVM effects must be a numeric array"),
            (DensityMatrix, [["1", "0"], ["0", "0"]], "density matrix must be a numeric matrix, got [['1', '0'], ['0', '0']]"),
            (DensityMatrix, None, "density matrix must be a numeric matrix, got None"),
            (DensityMatrix, np.eye(2, dtype=object) / 2, "density matrix must be a numeric matrix, got array("),
            (Povm.from_basis, np.eye(2, dtype=object), "basis must be a numeric matrix, got array("),
        ],
        ids=["povm-strings", "povm-none", "povm-objects", "state-strings", "state-none", "state-objects", "basis-objects"],
    )
    def test_numeric_rule_rejects_what_is_no_number(self, build, value, message):
        # strings used to be parsed as numbers and object arrays converted
        with pytest.raises(ValueError, match=re.escape(message)):
            build(value)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("0.1", (0.5, 0.0, 0.0)), "bias must be a real number, got '0.1'"),
            ((None, (0.5, 0.0, 0.0)), "bias must be a real number, got None"),
            ((0.1 + 0j, (0.5, 0.0, 0.0)), "bias must be a real number, got (0.1+0j)"),
            ((np.array(0.1, dtype=object), (0.5, 0.0, 0.0)), "bias must be a real number, got array(0.1, dtype=object)"),
            (([0.1], (0.5, 0.0, 0.0)), "bias must be a real number, got [0.1]"),
            ((0.1, ["0.5", "0", "0"]), "bloch must be a real vector, got ['0.5', '0', '0']"),
            ((0.0, None), "bloch must be a real vector, got None"),
            ((0.0, np.array([0.5 + 0.3j, 0, 0])), "bloch must be a real vector, got array([0.5+0.3j, 0. +0.j , 0. +0.j ])"),
            ((0.0, np.array([0.5, 0, 0], dtype=object)), "bloch must be a real vector, got array([0.5, 0, 0], dtype=object)"),
        ],
        ids=["bias-string", "bias-none", "bias-complex", "bias-object", "bias-list", "bloch-strings", "bloch-none", "bloch-complex", "bloch-objects"],
    )
    def test_numeric_rule_takes_only_real_qubit_parameters(self, args, message):
        # strings used to be parsed, None escaped as TypeError and a complex
        # Bloch vector lost its imaginary part with only a ComplexWarning
        with pytest.raises(ValueError, match=re.escape(message)):
            qubit_povm(*args)

    @pytest.mark.parametrize(
        "z, message",
        [
            (("0", "0", "1"), "z must be a real vector, got ('0', '0', '1')"),
            (None, "z must be a real vector, got None"),
            ((0, 0, 1 + 0j), "z must be a real vector, got (0, 0, (1+0j))"),
            (np.array([0, 0, 1], dtype=object), "z must be a real vector, got array([0, 0, 1], dtype=object)"),
        ],
        ids=["strings", "none", "complex", "objects"],
    )
    def test_numeric_rule_takes_only_real_bloch_directions(self, z, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            qubit_exact_threshold(z, (1, 0, 0))
        with pytest.raises(ValueError, match=re.escape(message.replace("z must", "x must"))):
            qubit_exact_threshold((1, 0, 0), z)

    def test_visibility_rule_names_a_numpy_scalar_as_a_float(self):
        with pytest.raises(ValueError, match=re.escape("visibility must lie in [0, 1], got 1.5")):
            depolarize(mub_pair(2)[0], np.float64(1.5))
        assert type(check_visibility(np.float64(0.5), "visibility")) is float


class TestPsdTolerance:
    """One PSD rule for effects and states: no eigenvalue below -1e-10."""

    @staticmethod
    def rotated(least, rest):
        # a Hermitian matrix with eigenvalues (least, *rest) in a random basis
        q = random_unitary(np.random.default_rng(4), 3)
        return q @ np.diag([least, *rest]) @ q.conj().T

    @pytest.mark.parametrize("least, psd", [(-0.5e-10, True), (-2e-10, False)])
    def test_is_psd_single_and_stacked(self, least, psd):
        a = self.rotated(least, [0.3, 0.7])
        assert is_hermitian(a)
        assert is_psd(a) is psd
        assert is_psd(np.stack([np.eye(3), a, np.eye(3) / 3])) is psd
        assert is_psd(np.stack([[np.eye(3), a], [np.eye(3), np.eye(3)]])) is psd

    @pytest.mark.parametrize("least, psd", [(-0.5e-10, True), (-2e-10, False)])
    def test_povm_effect(self, least, psd):
        effect = self.rotated(least, [0.3, 0.7])
        effects = [effect, np.eye(3) - effect]
        if psd:
            assert Povm(effects).n_outcomes == 2
        else:
            with pytest.raises(ValueError, match="^POVM effect is not positive semidefinite$"):
                Povm(effects)

    @pytest.mark.parametrize("least, psd", [(-0.5e-10, True), (-2e-10, False)])
    def test_density_matrix_single_and_stacked(self, least, psd):
        rho = self.rotated(least, [0.3, 0.7 - least])
        for m in (rho, np.stack([np.eye(3) / 3, rho])):
            if psd:
                assert DensityMatrix(m).dim == 3
            else:
                with pytest.raises(ValueError, match="^density matrix has a negative eigenvalue$"):
                    DensityMatrix(m)
