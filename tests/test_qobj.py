import re

import numpy as np
import pytest

from qsteer import qobj
from qsteer.entropy import check_visibility
from qsteer.qobj import (
    DensityMatrix,
    Povm,
    check_int,
    depolarize,
    fourier_matrix,
    is_hermitian,
    is_psd,
    joint_distribution,
    mub_pair,
    qubit_povm,
    rotated_d3_bases,
)


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
            assert p.is_rank1_projective()


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
        rng = np.random.default_rng(100 + d)
        for _ in range(100):
            p = random_povm(rng, d, rng.integers(2, 6))
            for v in (0.0, 0.3, 0.8):
                depolarize(p, v)  # Povm validation is the assertion


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
        marg_b = j.sum(axis=0)
        assert np.abs(j - np.outer(np.full(3, 1.0 / 3.0), marg_b)).max() < 1e-12

    def test_fourier_pair_relabeled_correlation(self):
        _, four = mub_pair(3)
        j = joint_distribution(four, four).table
        for a in range(3):
            b = (-a) % 3
            assert j[a, b] == pytest.approx(1.0 / 3.0, abs=1e-12)
            assert j[a].sum() == pytest.approx(j[a, b], abs=1e-12)

    def test_marginals_match_independent_evaluation(self):
        # both reduced states of |Phi+> are I/d, so the marginals are tr(E_a)/d
        # and tr(F_b)/d
        rng = np.random.default_rng(3)
        alice = random_povm(rng, 3, 4)
        bob = random_povm(rng, 3, 3)
        j = joint_distribution(alice, bob).table
        for a, e in enumerate(alice.effects):
            assert j[a].sum() == pytest.approx(np.trace(e).real / 3, abs=1e-10)
        for b, f in enumerate(bob.effects):
            assert j[:, b].sum() == pytest.approx(np.trace(f).real / 3, abs=1e-10)

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
            [[(phi @ np.kron(e, f) @ phi).real for f in bob.effects] for e in alice.effects]
        )
        table = joint_distribution(alice, bob).table
        assert np.abs(table - expected).max() <= 1e-12

    def test_dimension_mismatch(self):
        comp2, _ = mub_pair(2)
        comp3, _ = mub_pair(3)
        with pytest.raises(ValueError):
            joint_distribution(comp2, comp3)


class TestQubitPovm:
    def test_projective_sigma_z(self):
        p = qubit_povm(0.0, (0, 0, 1))
        assert np.abs(p.effects[0] - np.diag([1.0, 0.0])).max() < 1e-15
        assert p.is_rank1_projective()

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
        with pytest.raises(ValueError, match=r"invalid qubit POVM: \|bias\| \+ \|bloch\| = nan"):
            qubit_povm(bias, bloch)

    def test_roundtrip_through_type(self):
        total = sum(qubit_povm(0.2, (0.1, 0.2, 0.3)).effects)
        assert np.abs(total - np.eye(2)).max() < 1e-14


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

    @pytest.mark.parametrize("value", ["3", None, 3 + 0j])
    def test_integer_rule_names_a_value_that_is_no_number(self, value):
        # these used to escape as TypeError: '>=' not supported ...
        message = f"dimension must be an integer of at least 2, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_int(value, 2, "dimension")
        with pytest.raises(ValueError, match=re.escape(message)):
            mub_pair(value)

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
