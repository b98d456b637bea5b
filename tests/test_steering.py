import math
import re

import numpy as np
import pytest

from qsteer import steering
from qsteer.entropy import JointDistribution
from qsteer.qobj import (DensityMatrix, Povm, depolarize, joint_distribution, mub_pair, qubit_povm,
                         rotated_d3_bases)
from qsteer.scenarios import LHS_ALPHAS, LHS_N_LAMBDAS
from qsteer.steering import (
    MEASUREMENT_LABELS,
    LhsModel,
    evaluate,
    lhs_statistics,
    overlap_bound,
    sample_lhs_model,
    steering_lhs,
)

from helpers import certify, random_unitary

LHS_V08_ORACLE = 0.83007499855768763709  # log2(1.6) - log2(0.9), 50-digit evaluation
BOUND_60DEG = 0.41503749927884381855  # -log2 cos^2(pi/6)


def per_model_sample_lhs_model(rng_seed, d, n_lambda):
    """One model in the sampler's draw order, from numpy's own samplers:
    ``dirichlet`` weights, n Dirichlet mixes of size 2d, one ``normal`` run of
    (n, 2d, 2, d) Gaussians, then the x and z responses; each state summed
    one outer product at a time.  Returns weights, states and responses."""
    rng = np.random.default_rng(rng_seed)
    weights = rng.dirichlet(np.ones(n_lambda))
    mixes = rng.dirichlet(np.ones(2 * d), size=n_lambda)
    gaussians = rng.normal(size=(n_lambda, 2 * d, 2, d))
    states = []
    for mix, pairs in zip(mixes, gaussians):
        rho = np.zeros((d, d), dtype=complex)
        for w, (re, im) in zip(mix, pairs):
            psi = re + 1j * im
            psi /= np.linalg.norm(psi)
            rho += w * np.outer(psi, psi.conj())
        states.append(rho)
    responses = {label: rng.dirichlet(np.ones(d), size=n_lambda) for label in ("x", "z")}
    return weights, np.array(states), responses


def per_stack_sample_lhs_model(rng_seed, d, counts):
    """A stack in the sampler's draw order, from numpy's own samplers on one
    stream, each kind of draw model after model: every model's ``dirichlet``
    weights, then every model's n Dirichlet mixes of size 2d, then every
    model's ``normal`` run of (n, 2d, 2, d) Gaussians, then every model's x
    responses and every model's z responses.  Each model's states are its
    mix of normalized pure states, summed in one product.  Returns (weights,
    states, responses) per model."""
    rng = np.random.default_rng(rng_seed)
    weights = [rng.dirichlet(np.ones(n)) for n in counts]
    mixes = [rng.dirichlet(np.ones(2 * d), size=n) for n in counts]
    gaussians = [rng.normal(size=(n, 2 * d, 2, d)) for n in counts]
    responses = [[rng.dirichlet(np.ones(d), size=n) for n in counts] for _ in ("x", "z")]
    models = []
    for w, mix, g, x, z in zip(weights, mixes, gaussians, *responses):
        psi = g[..., 0, :] + 1j * g[..., 1, :]
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        states = np.swapaxes(psi * mix[..., None], -1, -2) @ psi.conj()
        models.append((w, states, {"x": x, "z": z}))
    return models


def model_row(stack, i, n):
    """The first n hidden states of row i of a stack, rebuilt through the public checks."""
    responses = {label: r[i, :n] for label, r in stack.responses.items()}
    return LhsModel(stack.weights[i, :n], DensityMatrix(stack.hidden_states.matrix[i, :n]), responses)


def random_povm(rng, d, n):
    """n effects from random Gram matrices A_k = M_k^+ M_k, M_k of random rank,
    made to sum to I by S^(-1/2) A_k S^(-1/2) with S = sum_k A_k."""
    ranks = rng.integers(1, d + 1, size=n)
    while ranks.sum() < d:  # S must be invertible
        ranks = rng.integers(1, d + 1, size=n)
    grams = []
    for r in ranks:
        m = rng.normal(size=(r, d)) + 1j * rng.normal(size=(r, d))
        grams.append(m.conj().T @ m)
    w, v = np.linalg.eigh(sum(grams))
    root = (v / np.sqrt(w)) @ v.conj().T
    return Povm([root @ g @ root for g in grams])


def psd_sqrt(effects):
    w, v = np.linalg.eigh(effects)
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def kp_bound(x, z):
    """Krishna and Parthasarathy's POVM bound -log2 max_ab ||sqrt(F_a) sqrt(G_b)||^2,
    the norm the largest singular value from an SVD."""
    products = psd_sqrt(x.effects)[:, None] @ psd_sqrt(z.effects)[None]
    return -math.log2((np.linalg.svd(products, compute_uv=False)[..., 0] ** 2).max())


# the qubit trine: effects (2/3)|t_k><t_k|, t_k = (cos 2 pi k/3, sin 2 pi k/3)
_ANGLES = 2 * np.pi * np.arange(3) / 3
TRINE = Povm([2.0 / 3.0 * np.outer(t, t) for t in np.stack([np.cos(_ANGLES), np.sin(_ANGLES)], axis=1)])


class TestOverlapBound:
    @pytest.mark.parametrize("d", [2, 3, 5, 50])
    def test_mub_pair_reaches_log_d(self, d):
        comp, four = mub_pair(d)
        assert overlap_bound(comp, four) == pytest.approx(np.log2(d), abs=1e-12)

    def test_identical_bases_give_zero(self):
        # c^2 clamps to 1 for both pairs, and the bound reads +0.0, never -0.0
        comp, _ = mub_pair(3)
        for x, z in ((comp, comp), rotated_d3_bases(0.5)):
            assert repr(overlap_bound(x, z)) == "0.0"

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

    def test_noisy_basis_reads_one_bit(self):
        # tr[(0.7 P + 0.15 I) Q] = 0.35 + 0.15 for unbiased projectors P and Q
        comp, four = mub_pair(2)
        noisy = depolarize(comp, 0.7)
        assert overlap_bound(noisy, four) == overlap_bound(four, noisy) == pytest.approx(1.0, abs=1e-12)

    def test_different_dimensions_rejected(self):
        with pytest.raises(ValueError, match="measurements act on different dimensions"):
            overlap_bound(mub_pair(2)[0], mub_pair(3)[1])

    @pytest.mark.parametrize("d", [*range(2, 11), 20, 50])
    def test_bases_match_their_effects_and_are_exactly_symmetric(self, d):
        # two bases take c from X^+ Z; a pair with one POVM built from effects
        # takes the effects' path, bit for bit as a pair with none
        rng = np.random.default_rng(200 + d)
        for _ in range(5):
            x, z = (Povm.from_basis(random_unitary(rng, d)) for _ in range(2))
            bare_x, bare_z = Povm(x.effects), Povm(z.effects)
            reference = overlap_bound(bare_x, bare_z)
            assert overlap_bound(x, z) == overlap_bound(z, x)
            assert abs(overlap_bound(x, z) - reference) <= 1e-14
            for a, b in ((x, bare_z), (bare_x, z)):
                assert overlap_bound(a, b) == overlap_bound(b, a) == reference

    def test_trine_with_a_basis_reads_the_trine_overlap(self):
        # the trine effects (2/3)|t_k><t_k| meet |0><0| at most in (2/3) cos^2 0
        comp, _ = mub_pair(2)
        assert overlap_bound(TRINE, comp) == pytest.approx(-math.log2(2.0 / 3.0), abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3])
    def test_never_above_the_povm_bound_and_equal_to_it_against_a_basis(self, d):
        rng = np.random.default_rng(31 + d)
        for _ in range(40):
            x, z = (random_povm(rng, d, n) for n in rng.integers(2, 5, size=2))
            assert overlap_bound(x, z) <= kp_bound(x, z) + 1e-12
            basis = Povm.from_basis(random_unitary(rng, d))
            for a, b in ((x, basis), (basis, z)):  # rank-1 effects: equal, up to the cap at log2 d
                assert overlap_bound(a, b) == pytest.approx(min(kp_bound(a, b), math.log2(d)), abs=1e-12)

    def test_two_noisy_bases_fall_below_the_povm_bound(self):
        # both effects have rank 2, so tr[F_a G_b] = 1/2 exceeds ||sqrt(F_a) sqrt(G_b)||^2
        noisy = [depolarize(p, 0.7) for p in mub_pair(2)]
        assert overlap_bound(*noisy) == pytest.approx(1.0, abs=1e-12)
        assert kp_bound(*noisy) == pytest.approx(1.1046, abs=1e-4)

    @pytest.mark.parametrize("d", [2, 3])
    def test_lhs_models_never_violate_it_for_povm_bobs(self, d):
        # every hidden state obeys the POVM relation, so no LHS table may violate the bound
        rng = np.random.default_rng(d)
        comp, four = mub_pair(d)
        pairs = [(depolarize(four, 0.8), comp), (depolarize(four, 0.7), depolarize(comp, 0.9))]
        pairs += [(random_povm(rng, d, n), random_povm(rng, d, m)) for n, m in ((2, 3), (3, 4), (4, 2))]
        if d == 2:
            pairs.append((TRINE, comp))
        for n_lambda in LHS_N_LAMBDAS:
            models = sample_lhs_model(10 * n_lambda, d, [n_lambda] * 10)
            for bx, bz in pairs:
                bound = overlap_bound(bx, bz)
                jx, jz = lhs_statistics(models, bx, bz)
                for alpha in LHS_ALPHAS:
                    assert (bound - steering_lhs(jx, jz, alpha)).max() <= 1e-9


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

    @pytest.mark.parametrize("plain", [np.array, np.ndarray.tolist])
    def test_plain_tables_read_as_their_joint_distributions(self, plain):
        table = np.array([[0.4, 0.1], [0.1, 0.4]])
        j, t = JointDistribution(table), plain(table)
        assert steering_lhs(t, t, 0.5) == steering_lhs(j, j, 0.5)
        assert evaluate(t, t, 1.0, 0.5) == evaluate(j, j, 1.0, 0.5)

    @pytest.mark.parametrize(
        "table, message",
        [([[0.5, 0.6], [0.1, 0.1]], "joint table sums to"), ([0.5, 0.5], "nonempty 2-d table"),
         ([[0.9, -0.1], [0.1, 0.1]], "joint table has negative or NaN entry")],
    )
    def test_malformed_plain_table_gets_the_joint_distribution_rule(self, table, message):
        good = JointDistribution(np.full((2, 2), 0.25))
        for jx, jz in ((table, good), (good, table)):
            with pytest.raises(ValueError, match=message):
                steering_lhs(jx, jz, 0.5)
            with pytest.raises(ValueError, match=message):
                evaluate(jx, jz, 1.0, 0.5)

    def test_alpha_below_half_rejected(self):
        j = JointDistribution(np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match="no dual order"):
            steering_lhs(j, j, 0.4)

    @pytest.mark.parametrize("x_stack, z_stack", [((), (3,)), ((3,), ()), ((2,), (3,)), ((2, 3), (3, 2))])
    def test_stacks_of_different_shapes_rejected(self, x_stack, z_stack):
        # one table against a stack used to broadcast to the stack's values
        jx, jz = (JointDistribution(np.full(s + (2, 2), 0.25)) for s in (x_stack, z_stack))
        message = f"cannot pair x and z stacks of shapes {x_stack} and {z_stack}"
        with pytest.raises(ValueError, match=re.escape(message)):
            steering_lhs(jx, jz, 0.5)
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate(jx, jz, 1.0, 0.5)


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

    @pytest.mark.parametrize("bound", [math.nan, -0.5, math.inf])
    def test_bound_that_is_nan_negative_or_infinite_rejected(self, bound):
        # a NaN bound used to give detected=False with a NaN violation
        j = JointDistribution(np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match=re.escape(f"bound must be finite and nonnegative, got {bound!r}")):
            evaluate(j, j, bound, 0.5)

    @pytest.mark.parametrize("bound", ["1", None, 1 + 0j, [1.0], np.array([1.0, 2.0]), np.complex128(1)])
    def test_bound_that_is_no_real_number_rejected(self, bound):
        # these used to raise TypeError, numpy's ambiguous-truth error, or,
        # for np.complex128, return a complex violation
        j = JointDistribution(np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match=re.escape(f"bound must be a real number, got {bound!r}")):
            evaluate(j, j, bound, 0.5)

    @pytest.mark.parametrize("bound", [1, np.float64(1.0), np.int64(1)])
    def test_real_bound_of_any_numeric_type_is_a_float(self, bound):
        j = JointDistribution(np.full((2, 2), 0.25))
        cert = evaluate(j, j, bound, 0.5)
        assert type(cert.bound) is float and cert.violation == evaluate(j, j, 1.0, 0.5).violation

    def test_certificate_consistency_bit_for_bit(self):
        comp, four = mub_pair(3)
        cert = certify(depolarize(four, 0.71), depolarize(comp, 0.71), four, comp, 0.7)
        assert cert.violation == cert.bound - cert.lhs

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
        for alice, bob in ((alice_x, bob_x), (alice_z, bob_z)):
            t1 = joint_distribution(alice, bob).table
            t0 = joint_distribution(depolarize(alice, 0.0), bob).table
            for v in (0.0, 0.3, 0.71, 1.0):
                direct = joint_distribution(depolarize(alice, v), bob).table
                assert np.abs(direct - (v * t1 + (1.0 - v) * t0)).max() <= 1e-12

    def test_tables_are_bob_first(self):
        # Alice's reduced state is I/2, so her biased outcome has marginal
        # (1 +- bias)/2 on the second (conditioning) axis; Bob's is uniform
        comp, four = mub_pair(2)
        alice_x, alice_z = qubit_povm(0.3, (0.6, 0, 0)), qubit_povm(-0.2, (0, 0, 0.7))
        jx, jz = joint_distribution(alice_x, four), joint_distribution(alice_z, comp)
        assert np.abs(jx.table.sum(axis=0) - [0.65, 0.35]).max() < 1e-12
        assert np.abs(jz.table.sum(axis=0) - [0.4, 0.6]).max() < 1e-12
        assert np.abs(jx.table.sum(axis=1) - 0.5).max() < 1e-12

    @pytest.mark.parametrize("builder", ["basis pair", "trine and biased qubit", "lhs model"])
    def test_every_table_builder_is_bob_first(self, builder):
        # each table has shape (n_b, n_a), Bob's marginal summed along axis 1
        # and Alice's along axis 0; the marginals or the entries tell Alice from
        # Bob, so a transposed table fails
        rng = np.random.default_rng(11)
        if builder == "lhs model":
            bobs = qubit_povm(0.3, (0.6, 0, 0)), mub_pair(2)[0]
            weights = np.array([0.2, 0.5, 0.3])
            psi = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            states = psi[:, :, None] * psi[:, None, :].conj()
            responses = {"x": rng.dirichlet(np.ones(3), size=3), "z": rng.dirichlet(np.ones(4), size=3)}
            model = LhsModel(weights, DensityMatrix(states), responses)
            cases = [
                (table, np.einsum("l,bij,lji->b", weights, bob.effects, states).real,
                 weights @ responses[label], None)
                for table, bob, label in zip(lhs_statistics(model, *bobs), bobs, MEASUREMENT_LABELS)
            ]
        else:
            if builder == "basis pair":
                alice, bob = (Povm.from_basis(random_unitary(rng, 3)) for _ in range(2))
            else:
                alice, bob = TRINE, qubit_povm(0.3, (0.6, 0, 0))
            phi = np.eye(alice.dim).reshape(-1) / np.sqrt(alice.dim)
            reference = np.array([[(phi @ np.kron(e, f) @ phi).real for e in alice.effects] for f in bob.effects])
            assert reference.shape != reference.T.shape or not np.allclose(reference, reference.T)
            cases = [(joint_distribution(alice, bob).table, *(np.trace(p.effects, axis1=1, axis2=2).real / p.dim
                                                             for p in (bob, alice)), reference)]
        for table, bob_marginal, alice_marginal, reference in cases:
            assert table.shape == (bob_marginal.size, alice_marginal.size)
            assert np.abs(table.sum(axis=1) - bob_marginal).max() < 1e-12
            assert np.abs(table.sum(axis=0) - alice_marginal).max() < 1e-12
            if reference is not None:
                assert np.abs(table - reference).max() < 1e-12


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
        # one stream a stack, read in four calls as numpy's dirichlet and normal
        # samplers read it, each kind of draw model after model; one count is
        # one model, drawn as a stack of one, its states summed outer product
        # by outer product
        ragged = [1, 2, 3, 4, 8, 3, 1, 8, 2, 4, 1, 2]
        for stack_seed, counts in enumerate([ragged] + [[n] * 12 for n in (1, 2, 3, 4, 8)]):
            seed = stack_seed * 1009 + d
            stack = sample_lhs_model(seed, d, counts)
            assert stack.weights.shape == (12, max(counts))
            assert stack.hidden_states.matrix.shape == (12, max(counts), d, d)
            assert stack.dim == d
            for i, (n, (weights, states, responses)) in enumerate(
                    zip(counts, per_stack_sample_lhs_model(seed, d, counts))):
                assert stack.weights[i, :n].tobytes() == weights.tobytes()
                assert stack.hidden_states.matrix[i, :n].tobytes() == states.tobytes()
                for label in responses:
                    assert stack.responses[label][i, :n].tobytes() == responses[label].tobytes()
        for n_lambda in (1, 2, 3, 4, 8):
            model = sample_lhs_model(d, d, n_lambda)
            weights, states, responses = per_model_sample_lhs_model(d, d, n_lambda)
            (one_weights, one_states, one_responses), = per_stack_sample_lhs_model(d, d, [n_lambda])
            assert model.weights.tobytes() == weights.tobytes() == one_weights.tobytes()
            for label in responses:
                assert model.responses[label].tobytes() == responses[label].tobytes()
                assert model.responses[label].tobytes() == one_responses[label].tobytes()
            assert model.hidden_states.matrix.shape == (n_lambda, d, d)
            assert np.abs(model.hidden_states.matrix - states).max() <= 1e-14
            assert model.hidden_states.matrix.tobytes() == one_states.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stacked_statistics_are_each_models_own(self, d):
        # each row's tables are those of the row alone, rebuilt through the public checks
        rng = np.random.default_rng(d)
        comp, four = mub_pair(d)
        pairs = [(four, comp), (Povm.from_basis(random_unitary(rng, d)), comp)]
        if d == 2:
            pairs.append((qubit_povm(0.0, (math.sin(math.pi / 3), 0, math.cos(math.pi / 3))), comp))
        for n_lambda in (1, 2, 3, 4, 8):
            stack = sample_lhs_model(40 * n_lambda, d, [n_lambda] * 40)
            for bx, bz in pairs:
                jx, jz = lhs_statistics(stack, bx, bz)
                assert type(jx) is type(jz) is np.ndarray
                assert jx.shape == jz.shape == (40, d, d)
                for i in range(40):
                    one_x, one_z = lhs_statistics(model_row(stack, i, n_lambda), bx, bz)
                    assert np.array_equal(jx[i], one_x)
                    assert np.array_equal(jz[i], one_z)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_ragged_stack_rows_are_each_models_own(self, d):
        # one count a model: each row is padded to 8 hidden states of weight 0,
        # I/d and uniform responses, and its tables are those of its drawn
        # entries alone, rebuilt through the public checks
        counts = [1, 2, 3, 4, 8] * 3
        stack = sample_lhs_model(1013 + d, d, counts)
        assert stack.weights.shape == (15, 8)
        comp, four = mub_pair(d)
        tables = lhs_statistics(stack, four, comp)
        for i, n in enumerate(counts):
            assert (stack.weights[i, n:] == 0.0).all()
            assert (stack.hidden_states.matrix[i, n:] == np.eye(d) / d).all()
            for label in MEASUREMENT_LABELS:
                assert (stack.responses[label][i, n:] == 1.0 / d).all()
            for table, own in zip(tables, lhs_statistics(model_row(stack, i, n), four, comp)):
                assert np.array_equal(table[i], own)

    def test_one_count_per_seed(self):
        # one seed a stack, one count a model: a sequence of one count is a stack of one
        assert sample_lhs_model(3, 2, np.array([2, 2])).weights.tobytes() == (
            sample_lhs_model(3, 2, [2, 2]).weights.tobytes()
        )
        one, stack = sample_lhs_model(3, 2, 2), sample_lhs_model(3, 2, [2])
        assert stack.weights.shape == (1, 2) and stack.weights[0].tobytes() == one.weights.tobytes()
        assert stack.hidden_states.matrix[0].tobytes() == one.hidden_states.matrix.tobytes()
        for counts, shape in (([], "(0,)"), ([[1, 2]], "(1, 2)"), (np.ones((2, 2), int), "(2, 2)")):
            message = re.escape(f"n_lambda must be one count or a nonempty 1-d sequence of counts, got shape {shape}")
            with pytest.raises(ValueError, match=message):
                sample_lhs_model(3, 2, counts)
        with pytest.raises(ValueError, match=re.escape("seed must be an integer of at least 0, got [3, 4]")):
            sample_lhs_model([3, 4], 2, [2, 2])
        for bad in (0, 2.5, math.nan):
            with pytest.raises(ValueError, match=f"n_lambda must be an integer of at least 1, got {bad!r}"):
                sample_lhs_model(3, 2, [2, bad])

    def test_stack_axes_must_agree(self):
        stack = sample_lhs_model(3, 2, [3] * 4)
        w, sigma, resp = stack.weights, stack.hidden_states.matrix, dict(stack.responses)
        assert LhsModel(w, stack.hidden_states, resp).weights.shape == (4, 3)
        with pytest.raises(ValueError, match=r"DensityMatrix of shape \(4, 3, d, d\)"):
            LhsModel(w, DensityMatrix(sigma[:3]), resp)
        with pytest.raises(ValueError, match=r"DensityMatrix of shape \(4, 3, d, d\)"):
            LhsModel(w, DensityMatrix(sigma[:, :2]), resp)
        with pytest.raises(ValueError, match=r"DensityMatrix of shape \(3, 3, d, d\)"):
            LhsModel(w[:3], stack.hidden_states, resp)
        for bad in (resp["x"][:3], resp["x"][:, :2], resp["x"][0]):
            with pytest.raises(ValueError, match=r"response map 'x' must have shape \(4, 3, k\)"):
                LhsModel(w, stack.hidden_states, {"x": bad, "z": resp["z"]})

    @pytest.mark.parametrize("bad", ["0.5", None, 0.5 + 0j])
    def test_weights_and_responses_that_are_no_real_number_rejected(self, bad):
        # strings used to be parsed, a complex entry raised TypeError and None
        # read as "negative or NaN entry nan"
        model = sample_lhs_model(3, 2, 2)
        w, resp = model.weights.tolist(), {k: v.tolist() for k, v in model.responses.items()}
        with pytest.raises(ValueError, match=re.escape(f"weights must be a real array, got {[bad, 0.5]!r}")):
            LhsModel([bad, 0.5], model.hidden_states, resp)
        rows = [[bad, 0.5], resp["x"][1]]
        with pytest.raises(ValueError, match=re.escape(f"response map 'x' must be a real array, got {rows!r}")):
            LhsModel(w, model.hidden_states, {"x": rows, "z": resp["z"]})
        assert LhsModel(w, model.hidden_states, resp).weights.tobytes() == model.weights.tobytes()

    @pytest.mark.parametrize(
        "seeds, message",
        [
            ([], r"seed must be an integer of at least 0, got \[\]"),
            ([[1, 2]], r"seed must be an integer of at least 0, got \[\[1, 2\]\]"),
            ([1, -2], r"seed must be an integer of at least 0, got \[1, -2\]"),
            ([1, 2.5], r"seed must be an integer of at least 0, got \[1, 2\.5\]"),
        ],
    )
    def test_malformed_seed_sequences_rejected(self, seeds, message):
        # a stack takes one seed: every sequence of seeds, well formed or not, is rejected
        for counts in (2, [2] * max(len(seeds), 1)):
            with pytest.raises(ValueError, match=message):
                sample_lhs_model(seeds, 2, counts)

    def test_invariants_hold_for_samples(self):
        for seed in range(20):
            model = sample_lhs_model(seed, 2, 3)  # stored unchecked: the public validators run here
            LhsModel(model.weights, DensityMatrix(model.hidden_states.matrix), dict(model.responses))
            assert model.weights.shape[-1] == 3
            assert model.dim == 2

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_sampled_stacks_pass_the_public_validators(self, d):
        # sample_lhs_model stores its stack unchecked; DensityMatrix and LhsModel
        # must pass it and keep it bit for bit, ragged, uniform and single alike
        rng = np.random.default_rng(d)
        counts = [1, 2, 3, 4, 8]
        cases = [(int(rng.integers(0, 2**63 - 1)), counts * 3)]
        cases += [(int(rng.integers(0, 2**63 - 1)), [n] * 6) for n in counts]
        cases += [(int(rng.integers(0, 2**63 - 1)), n) for n in counts]
        for seed, n_lambda in cases:
            stack = sample_lhs_model(seed, d, n_lambda)
            states = DensityMatrix(stack.hidden_states.matrix)
            checked = LhsModel(stack.weights, states, dict(stack.responses))
            pairs = [(states.matrix, stack.hidden_states.matrix), (checked.weights, stack.weights)]
            pairs += [(checked.responses[label], stack.responses[label]) for label in MEASUREMENT_LABELS]
            for public, trusted in pairs:
                assert public.shape == trusted.shape and public.tobytes() == trusted.tobytes()
                assert not trusted.flags.writeable
            assert sorted(stack.responses) == sorted(MEASUREMENT_LABELS)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((-1, 2, 2), "seed must be an integer of at least 0, got -1"),
            (([3, -1], 2, 2), "seed must be an integer of at least 0, got [3, -1]"),
            ((3, 2, 0), "n_lambda must be an integer of at least 1, got 0"),
            ((3, 2, [2, 0]), "n_lambda must be an integer of at least 1, got 0"),
            ((3, 1, 2), "dimension must be an integer of at least 2, got 1"),
            (([3, 4], 2, [2, 2]), "seed must be an integer of at least 0, got [3, 4]"),
            ((np.array([3]), 2, [2]), "seed must be an integer of at least 0, got array([3])"),
            ((3, 2, []), "n_lambda must be one count or a nonempty 1-d sequence of counts, got shape (0,)"),
            ((3, 2, [[2, 2]]), "n_lambda must be one count or a nonempty 1-d sequence of counts, got shape (1, 2)"),
            ((3, 2, [2, 2.5]), "n_lambda must be an integer of at least 1, got 2.5"),
            ((3, 2, [2, "2"]), "n_lambda must be an integer of at least 1, got '2'"),
        ],
    )
    def test_bad_input_rejected_before_any_draw(self, args, message, monkeypatch):
        # the stack is trusted because its seed, counts and dimension are checked where they come in
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew before checking"))
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_lhs_model(*args)

    def test_single_lambda_gives_product_statistics(self):
        model = sample_lhs_model(7, 2, 1)
        comp, four = mub_pair(2)
        jx, jz = lhs_statistics(model, four, comp)
        for j in (jx, jz):
            outer = np.outer(j.sum(axis=1), j.sum(axis=0))
            assert np.abs(j - outer).max() < 1e-12

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
        outer = np.outer(jx.sum(axis=1), jx.sum(axis=0))
        assert np.abs(jx - outer).max() < 1e-12

    def test_malformed_responses_rejected(self):
        model = sample_lhs_model(9, 2, 3)
        with pytest.raises(ValueError, match="response map 'z' is missing"):
            LhsModel(model.weights, model.hidden_states, {"x": model.responses["x"]})
        for z in (np.full(3, 1.0), np.empty((3, 0))):  # no outcome at all is no map either
            with pytest.raises(ValueError, match=r"response map 'z' must have shape \(3, k\)"):
                LhsModel(model.weights, model.hidden_states, {"x": model.responses["x"], "z": z})

    def test_responses_clamped_and_summed_like_tables(self):
        state = DensityMatrix([np.eye(2) / 2])
        model = LhsModel(np.ones(1), state, {"x": [[1.0, -1e-13]], "z": [[0.5, 0.5]]})
        assert model.responses["x"].tolist() == [[1.0, 0.0]]
        with pytest.raises(ValueError, match=r"response map 'z' sums to 0\.9, not 1"):
            LhsModel(np.ones(1), state, {"x": [[1.0, 0.0]], "z": [[0.5, 0.4]]})

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
        with pytest.raises(ValueError, match="response map 'x' has negative or NaN entry nan"):
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
        assert (lone.weights.shape[-1], lone.dim) == (1, 2)

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
