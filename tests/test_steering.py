import math

import numpy as np
import pytest

from qsteer.entropy import JointDistribution, NoDualOrderError
from qsteer.qobj import DensityMatrix, Povm, depolarize, mub_pair, qubit_povm, rotated_d3_bases
from qsteer.steering import (
    LhsModel,
    UnsupportedBoundError,
    born_statistics,
    evaluate,
    lhs_statistics,
    overlap_bound,
    sample_lhs_model,
    steering_lhs,
)

LHS_V08_ORACLE = 0.83007499855768763709  # log2(1.6) - log2(0.9), 50-digit evaluation
BOUND_60DEG = 0.41503749927884381855  # -log2 cos^2(pi/6)


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def parent_sample_lhs_model(rng_seed, d, n_lambda):
    """The sampler as it was before hidden states were stacked: one
    ``dirichlet`` and 2d pairs of ``normal(size=d)`` draws per state, summed
    one outer product at a time.  Returns weights, states and responses."""
    rng = np.random.default_rng(rng_seed)
    weights = rng.dirichlet(np.ones(n_lambda))
    states = []
    for _ in range(n_lambda):
        rho = np.zeros((d, d), dtype=complex)
        for w in rng.dirichlet(np.ones(2 * d)):
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi /= np.linalg.norm(psi)
            rho += w * np.outer(psi, psi.conj())
        states.append(rho)
    responses = {label: rng.dirichlet(np.ones(d), size=n_lambda) for label in ("x", "z")}
    return weights, np.array(states), responses


def certify(alice_x, alice_z, bob_x, bob_z, alpha):
    """The criterion on the Born-rule statistics of the maximally entangled state."""
    jx, jz = born_statistics(alice_x, alice_z, bob_x, bob_z)
    return evaluate(jx, jz, overlap_bound(bob_x, bob_z), alpha)


class TestOverlapBound:
    @pytest.mark.parametrize("d", [2, 3, 5, 50])
    def test_mub_pair_reaches_log_d(self, d):
        comp, four = mub_pair(d)
        assert overlap_bound(comp, four) == pytest.approx(np.log2(d), abs=1e-12)

    def test_identical_bases_give_zero(self):
        comp, _ = mub_pair(3)
        assert overlap_bound(comp, comp) == 0.0

    def test_bloch_angle_60deg(self):
        a = qubit_povm(0.0, (0, 0, 1))
        b = qubit_povm(0.0, (math.sin(math.pi / 3), 0, math.cos(math.pi / 3)))
        assert overlap_bound(a, b) == pytest.approx(BOUND_60DEG, abs=1e-12)

    def test_symmetry_is_exact(self):
        a = qubit_povm(0.0, (0, 0, 1))
        b = qubit_povm(0.0, (math.sin(1.1), 0, math.cos(1.1)))
        assert overlap_bound(a, b) == overlap_bound(b, a)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 30])
    def test_matches_basis_overlaps(self, d):
        # c^2 = max_ij |<x_i|z_j>|^2 = max |X^dagger Z|^2 for basis matrices X and Z
        rng = np.random.default_rng(d)
        for _ in range(3):
            u, v = random_unitary(rng, d), random_unitary(rng, d)
            c2 = np.clip((np.abs(u.conj().T @ v) ** 2).max(), 1.0 / d, 1.0)
            bound = overlap_bound(Povm.from_basis(u), Povm.from_basis(v))
            assert bound == pytest.approx(-np.log2(c2), abs=1e-12)

    def test_non_projective_rejected(self):
        comp, four = mub_pair(2)
        noisy = depolarize(comp, 0.7)
        with pytest.raises(UnsupportedBoundError):
            overlap_bound(noisy, four)


class TestSteeringLhs:
    def test_product_uniform_two_bits(self):
        uniform = JointDistribution(np.full((2, 2), 0.25))
        assert steering_lhs(uniform, uniform, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_perfect_correlations_zero(self):
        corr = JointDistribution(np.diag([0.5, 0.5]))
        assert steering_lhs(corr, corr, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_visibility_08_closed_form(self):
        v = 0.8
        table = np.array(
            [[(1 + v) / 4, (1 - v) / 4], [(1 - v) / 4, (1 + v) / 4]]
        )
        j = JointDistribution(table)
        assert steering_lhs(j, j, 0.5) == pytest.approx(LHS_V08_ORACLE, abs=1e-13)

    def test_alpha_below_half_rejected(self):
        j = JointDistribution(np.full((2, 2), 0.25))
        with pytest.raises(NoDualOrderError):
            steering_lhs(j, j, 0.4)


class TestEvaluate:
    def test_ideal_mubs_violate_by_one_bit(self):
        comp, four = mub_pair(2)
        cert = certify(four, comp, four, comp, 0.5)
        assert cert.violation == pytest.approx(1.0, abs=1e-10)
        assert cert.detected

    def test_zero_visibility_never_detects(self):
        comp, four = mub_pair(2)
        cert = certify(depolarize(four, 0.0), depolarize(comp, 0.0), four, comp, 0.5)
        assert cert.violation == pytest.approx(-1.0, abs=1e-10)
        assert not cert.detected

    def test_visibility_08_pipeline_matches_closed_form(self):
        comp, four = mub_pair(2)
        cert = certify(depolarize(four, 0.8), depolarize(comp, 0.8), four, comp, 0.5)
        assert cert.lhs == pytest.approx(LHS_V08_ORACLE, abs=1e-12)
        assert cert.violation == pytest.approx(1.0 - LHS_V08_ORACLE, abs=1e-12)

    def test_separable_state_never_violates(self):
        # the statistics of the product state I/4: one hidden state I/2 and
        # uniform answers from Alice
        uniform = np.full((1, 2), 0.5)
        model = LhsModel(np.ones(1), DensityMatrix([np.eye(2) / 2]), {"x": uniform, "z": uniform})
        comp, four = mub_pair(2)
        tilted = qubit_povm(0.0, (math.sin(0.9), 0, math.cos(0.9)))
        for alpha in (0.5, 1.0, 2.0, math.inf):
            for bx, bz in ((four, comp), (tilted, comp)):
                jx, jz = lhs_statistics(model, bx, bz)
                assert evaluate(jx, jz, overlap_bound(bx, bz), alpha).violation <= 0.0

    def test_certificate_consistency_bit_for_bit(self):
        comp, four = mub_pair(3)
        cert = certify(depolarize(four, 0.71), depolarize(comp, 0.71), four, comp, 0.7)
        assert cert.violation == cert.bound - cert.lhs
        assert cert.beta == pytest.approx(0.7 / (2 * 0.7 - 1), abs=1e-15)

    def test_monotone_in_visibility(self):
        comp, four = mub_pair(3)
        for alpha in (0.5, 1.0, 2.0):
            previous = -np.inf
            for v in np.linspace(0.0, 1.0, 9):
                cert = certify(depolarize(four, v), depolarize(comp, v), four, comp, alpha)
                assert cert.violation >= previous - 1e-12
                previous = cert.violation


class TestBornStatistics:
    """Born tables are affine in Alice's visibility, T(v) = v T(1) + (1 - v) T(0):
    the identity the threshold solver's once-per-solve tables rest on."""

    @staticmethod
    def _conjugate(p):
        return Povm([e.conj() for e in p.effects])

    def _scenario(self, name):
        if name.startswith("mub"):
            d = int(name[-1])
            comp, four = mub_pair(d)
            return four, comp, four, comp
        if name == "biased-qubit":
            alice_x = qubit_povm(0.3, 0.6 * np.array([0.6, 0.0, 0.8]))
            alice_z = qubit_povm(-0.2, 0.7 * np.array([0.0, 0.6, -0.8]))
            comp, four = mub_pair(2)
            return alice_x, alice_z, four, comp
        alice_z, alice_x = rotated_d3_bases(float(name.split("-t")[1]))
        bob_x, bob_z = self._conjugate(alice_x), self._conjugate(alice_z)
        return alice_x, alice_z, bob_x, bob_z

    @pytest.mark.parametrize(
        "name", ["mub-2", "mub-3", "mub-5", "biased-qubit", "d3-t0.2", "d3-t0.5"]
    )
    def test_tables_affine_in_visibility(self, name):
        alice_x, alice_z, bob_x, bob_z = self._scenario(name)
        sharp = born_statistics(alice_x, alice_z, bob_x, bob_z)
        noisy = born_statistics(depolarize(alice_x, 0.0), depolarize(alice_z, 0.0), bob_x, bob_z)
        for v in (0.0, 0.3, 0.71, 1.0):
            direct = born_statistics(depolarize(alice_x, v), depolarize(alice_z, v), bob_x, bob_z)
            for j, t1, t0 in zip(direct, sharp, noisy):
                mixed = v * t1.table + (1.0 - v) * t0.table
                assert np.abs(j.table - mixed).max() <= 1e-12

    def test_tables_are_bob_first(self):
        # Alice's reduced state is I/2, so her biased outcome has marginal
        # (1 +- bias)/2 on the second (conditioning) axis; Bob's is uniform
        comp, four = mub_pair(2)
        alice_x, alice_z = qubit_povm(0.3, (0.6, 0, 0)), qubit_povm(-0.2, (0, 0, 0.7))
        jx, jz = born_statistics(alice_x, alice_z, four, comp)
        assert np.abs(jx.table.sum(axis=0) - [0.65, 0.35]).max() < 1e-12
        assert np.abs(jz.table.sum(axis=0) - [0.4, 0.6]).max() < 1e-12
        assert np.abs(jx.table.sum(axis=1) - 0.5).max() < 1e-12


class TestLhsModel:
    def test_deterministic_in_seed(self):
        a = sample_lhs_model(123, 3, 4)
        b = sample_lhs_model(123, 3, 4)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.hidden_states.matrix, b.hidden_states.matrix)
        for key in a.responses:
            assert np.array_equal(a.responses[key], b.responses[key])
        c = sample_lhs_model(124, 3, 4)
        assert not np.array_equal(a.weights, c.weights)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_same_draws_as_the_per_state_sampler(self, d):
        # one normal(size=(2d, 2, d)) call per state reads the stream exactly
        # as 2d pairs of normal(size=d) calls did
        for seed in range(12):
            for n_lambda in (1, 2, 3, 4, 8):
                model = sample_lhs_model(seed * 1009 + d, d, n_lambda)
                weights, states, responses = parent_sample_lhs_model(seed * 1009 + d, d, n_lambda)
                assert np.array_equal(model.weights, weights)
                for label in responses:
                    assert np.array_equal(model.responses[label], responses[label])
                assert model.hidden_states.matrix.shape == (n_lambda, d, d)
                assert np.abs(model.hidden_states.matrix - states).max() <= 1e-14

    def test_invariants_hold_for_samples(self):
        for seed in range(20):
            model = sample_lhs_model(seed, 2, 3)  # constructor validates
            assert model.n_lambda == 3
            assert model.dim == 2

    def test_single_lambda_gives_product_statistics(self):
        model = sample_lhs_model(7, 2, 1)
        comp, four = mub_pair(2)
        jx, jz = lhs_statistics(model, four, comp)
        for j in (jx, jz):
            outer = np.outer(j.table.sum(axis=1), j.table.sum(axis=0))
            assert np.abs(j.table - outer).max() < 1e-12

    def test_lambda_blind_responses_decouple_alice(self):
        model = sample_lhs_model(9, 2, 3)
        flat = np.tile(model.responses["x"][0], (3, 1))
        blind = type(model)(
            weights=model.weights,
            hidden_states=model.hidden_states,
            responses={"x": flat, "z": flat},
        )
        comp, four = mub_pair(2)
        jx, _ = lhs_statistics(blind, four, comp)
        outer = np.outer(jx.table.sum(axis=1), jx.table.sum(axis=0))
        assert np.abs(jx.table - outer).max() < 1e-12

    def test_malformed_responses_rejected(self):
        model = sample_lhs_model(9, 2, 3)
        with pytest.raises(ValueError, match="response map 'z' is missing"):
            LhsModel(model.weights, model.hidden_states, {"x": model.responses["x"]})
        flat = {"x": model.responses["x"], "z": np.full(3, 1.0)}
        with pytest.raises(ValueError, match=r"response map 'z' must have shape \(3, k\)"):
            LhsModel(model.weights, model.hidden_states, flat)

    def test_responses_stored_as_read_only_float_arrays(self):
        given = np.array([[0.25, 0.75]])
        state = DensityMatrix([np.eye(2) / 2])
        model = LhsModel(np.ones(1), state, {"x": [[1.0, 0.0]], "z": given})
        for r in model.responses.values():
            assert type(r) is np.ndarray and r.dtype == float and r.shape == (1, 2)
            assert not r.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            model.responses["z"][0] = [3.0, -2.0]
        with pytest.raises(TypeError):
            model.responses["z"] = np.array([[1.5, -0.5]])
        given[0] = [3.0, -2.0]  # the caller's array is not shared
        assert given.flags.writeable and model.responses["z"].tolist() == [[0.25, 0.75]]

    @pytest.mark.parametrize("row", [[math.nan, 1.0], [math.nan, math.nan]])
    def test_nan_response_rejected(self, row):
        with pytest.raises(ValueError, match="response map 'x'"):
            LhsModel(np.ones(1), DensityMatrix([np.eye(2) / 2]), {"x": [row], "z": [[0.5, 0.5]]})

    def test_state_stack_must_match_the_weights(self):
        # two hidden states of a qubit: a single 2 x 2 matrix has the right length
        model = sample_lhs_model(9, 2, 2)
        one = DensityMatrix(model.hidden_states.matrix[:1])
        single = DensityMatrix(model.hidden_states.matrix[0])
        nested = DensityMatrix(model.hidden_states.matrix[None])
        for states in (one, single, nested, tuple(model.hidden_states.matrix)):
            with pytest.raises(ValueError, match=r"DensityMatrix of shape \(2, d, d\)"):
                LhsModel(model.weights, states, model.responses)
        lone = LhsModel(np.ones(1), DensityMatrix([np.eye(2) / 2]), {"x": [[1.0]], "z": [[1.0]]})
        assert (lone.n_lambda, lone.dim) == (1, 2)

    def test_statistics_never_violate_bound(self):
        comp, four = mub_pair(2)
        bound = overlap_bound(four, comp)
        for seed in range(200):
            model = sample_lhs_model(seed, 2, [1, 2, 4, 8][seed % 4])
            jx, jz = lhs_statistics(model, four, comp)
            for alpha in (0.5, 1.0, 2.0):
                assert bound - steering_lhs(jx, jz, alpha) <= 1e-9

    def test_dimension_mismatch(self):
        model = sample_lhs_model(1, 2, 2)
        comp3, four3 = mub_pair(3)
        with pytest.raises(ValueError):
            lhs_statistics(model, four3, comp3)
