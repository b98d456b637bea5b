import math
from collections import Counter

import numpy as np
import pytest

from qsteer import acceptance, qobj, scenarios, steering
from qsteer.entropy import dual_order
from qsteer.jointmeas import (
    mub_jm_holds,
    mub_jm_threshold_symmetric,
    renyi_mub_holds,
    renyi_mub_threshold_symmetric,
)
from qsteer.qobj import Povm, depolarize, joint_distribution, mub_pair, qubit_povm, rotated_d3_bases
from qsteer.scenarios import (
    d3_family_scan,
    fig1_scan,
    lhs_falsification_suite,
    mub_pipeline_threshold,
    qubit_angle_scan,
    qubit_random_povm_check,
)
from qsteer.steering import born_statistics, evaluate, overlap_bound


def certify(alice_x, alice_z, bob_x, bob_z, alpha):
    """The criterion on the Born-rule statistics of the maximally entangled state."""
    jx, jz = born_statistics(alice_x, alice_z, bob_x, bob_z)
    return evaluate(jx, jz, overlap_bound(bob_x, bob_z), alpha)


class TestPipelineFormulaEquivalence:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.7071, 1.0])
    def test_conditionals_match_closed_form(self, d, v):
        comp, four = mub_pair(d)
        jz = joint_distribution(depolarize(comp, v), comp).table
        expected = np.full((d, d), (1 - v) / d**2)
        expected[np.arange(d), np.arange(d)] += v / d
        assert np.abs(jz - expected).max() < 1e-12

        jx = joint_distribution(depolarize(four, v), four).table
        expected = np.full((d, d), (1 - v) / d**2)
        expected[np.arange(d), (-np.arange(d)) % d] += v / d
        assert np.abs(jx - expected).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_pipeline_reproduces_formula_threshold(self, d):
        pipeline = mub_pipeline_threshold(d, 0.5, tol=1e-7)
        formula = renyi_mub_threshold_symmetric(d, tol=1e-9)
        assert pipeline == pytest.approx(formula, abs=2e-7)

    @pytest.mark.parametrize("d", [30, 50])
    def test_large_d_meets_exact_boundary(self, d):
        exact = mub_jm_threshold_symmetric(d)
        assert exact <= mub_pipeline_threshold(d, 0.5, tol=1e-6) <= exact + 1e-6


class TestFig1Scan:
    def test_structure_and_sufficiency(self):
        scan = fig1_scan(range(2, 5), [0.5, 1.0], tol=1e-6)
        assert len(scan.records) == 6
        params = [r.parameter for r in scan.records]
        assert params == sorted(params)
        for rec in scan.records:
            assert rec.gap is not None and rec.gap >= -1e-9

    def test_half_alpha_rows_are_tight(self):
        scan = fig1_scan(range(2, 6), [0.5], tol=5e-7)
        for rec in scan.records:
            assert rec.gap <= 1e-6

    def test_shannon_rows_strictly_above(self):
        scan = fig1_scan([4], [0.5, 1.0], tol=1e-6)
        by_alpha = {r.alpha: r.detected for r in scan.records}
        assert by_alpha[1.0] - by_alpha[0.5] > 1e-4

    def test_records_equal_single_solves(self):
        # the tables are built once per dimension and shared by its orders
        alphas = [0.5, 0.7, 1.0, math.inf]
        scan = fig1_scan(range(2, 11), alphas, tol=1e-6)
        expected = [mub_pipeline_threshold(d, a, tol=1e-6) for d in range(2, 11) for a in alphas]
        assert [r.detected for r in scan.records] == expected

    def test_metadata_complete(self):
        scan = fig1_scan([2], [0.5], tol=1e-6)
        for key in ("scenario", "parameter_name", "alphas", "betas", "grid", "tol", "seed"):
            assert key in scan.metadata

    def test_rejects_alpha_below_half(self):
        with pytest.raises(ValueError):
            fig1_scan([2], [0.4])

    def test_rejects_empty_dimensions_or_orders(self):
        with pytest.raises(ValueError, match="at least one dimension and one order"):
            fig1_scan([], [0.5])
        with pytest.raises(ValueError, match="at least one dimension and one order"):
            fig1_scan([2], [])


DIMENSION_CALLS = {
    "mub_pair": lambda d: mub_pair(d)[1].effects.tolist(),
    "mub_jm_holds": lambda d: mub_jm_holds(d, 0.7, 0.7),
    "mub_jm_threshold_symmetric": mub_jm_threshold_symmetric,
    "renyi_mub_holds": lambda d: renyi_mub_holds(d, 0.7, 0.7),
    "mub_pipeline_threshold": lambda d: mub_pipeline_threshold(d, 0.5, tol=1e-3),
    "fig1_scan": lambda d: fig1_scan([d], [0.5], tol=1e-3).records,
}


@pytest.mark.parametrize("name", sorted(DIMENSION_CALLS))
def test_dimension_must_be_an_integer_of_at_least_two(name):
    call = DIMENSION_CALLS[name]
    for d in (2.7, 3.9, 2.5, 1, 1.0, 0, math.inf, math.nan):  # 2.7 used to run as d = 2
        with pytest.raises(ValueError, match="dimension must be an integer of at least 2"):
            call(d)
    expected = call(3)
    for d in (np.int64(3), 3.0):
        assert call(d) == expected


class TestBisectionStability:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_threshold_stable_under_tol_halving(self, alpha):
        coarse = mub_pipeline_threshold(2, alpha, tol=1e-6)
        fine = mub_pipeline_threshold(2, alpha, tol=5e-7)
        assert abs(coarse - fine) <= 1e-6


class TestPipelineSolveCost:
    """A pipeline threshold computes its Born tables and Bob's bound once per
    solve; every solver probe is one steering.evaluate."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # the bindings the pipeline calls: steering.born_statistics contracts
        # through steering.joint_distribution; depolarize is counted wherever
        # scenarios could reach it
        counts = Counter()
        bindings = [(steering, n) for n in ("evaluate", "joint_distribution", "overlap_bound")]
        bindings += [(qobj, "depolarize"), (scenarios, "depolarize")]
        for module, name in bindings:
            original = getattr(module, name, None)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted, raising=False)
        return counts

    @pytest.mark.parametrize("d, alpha", [(2, 0.5), (3, 1.0), (5, math.inf)])
    def test_mub_solve_costs_22_evaluations(self, calls, d, alpha):
        # v = 1 and v = 0 once each, then 20 halvings down to 1e-6
        mub_pipeline_threshold(d, alpha, tol=1e-6)
        assert calls["evaluate"] == 22

    @pytest.mark.parametrize("tol", [1e-3, 1e-8])
    @pytest.mark.parametrize("d, alpha", [(2, 0.5), (5, math.inf)])
    def test_tables_and_bound_once_per_solve(self, calls, d, alpha, tol):
        mub_pipeline_threshold(d, alpha, tol=tol)
        assert calls["joint_distribution"] == 2  # T(1) for both settings
        assert calls["depolarize"] == 0  # T(0) is Bob's marginal times tr(E_a)/d
        assert calls["overlap_bound"] == 1

    def test_fig1_scan_builds_tables_once_per_dimension(self, calls):
        fig1_scan([2, 3], [0.5, 1.0, math.inf], tol=1e-3)
        assert calls["joint_distribution"] == 4 and calls["overlap_bound"] == 2

    def test_criterion_4_builds_tables_once_per_dimension(self, calls):
        # d = 2..8 at four orders: two contractions per d, not two per solve
        assert acceptance.criterion_4_shannon_suboptimality().passed
        assert calls["joint_distribution"] == 14

    def test_never_detecting_scenario_costs_one_evaluation(self, calls):
        scan = d3_family_scan([0.5], tol=1e-6)
        assert scan.records[0].saturated and scan.records[0].detected == 1.0
        assert calls == {"evaluate": 1, "joint_distribution": 2, "overlap_bound": 1}


class TestPipelineTables:
    """The v = 0 tables, built from Bob's marginal, equal the Born tables of
    fully depolarized measurements."""

    @staticmethod
    def assert_v0_tables_match(alice_x, alice_z, bob_x, bob_z):
        _, t0, _ = scenarios._pipeline_tables(alice_x, alice_z, bob_x, bob_z)
        noisy_x, noisy_z = depolarize(alice_x, 0.0), depolarize(alice_z, 0.0)
        born = born_statistics(noisy_x, noisy_z, bob_x, bob_z)
        for table, reference in zip(t0, born):
            assert np.abs(table.table - reference.table).max() <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_mub(self, d):
        comp, four = mub_pair(d)
        self.assert_v0_tables_match(four, comp, four, comp)

    def test_biased_qubit_pair(self):
        alice_x = qubit_povm(0.3, (0.5, 0.2, 0.1))
        alice_z = qubit_povm(-0.2, (0.1, -0.3, 0.6))
        bob_x, bob_z = qubit_povm(0.0, (1.0, 0.0, 0.0)), qubit_povm(0.0, (0.0, 0.0, 1.0))
        self.assert_v0_tables_match(alice_x, alice_z, bob_x, bob_z)

    def test_three_outcome_qubit_povm(self):
        # x with a third "no answer" outcome: tr(E_a)/d = 1/4, 1/4, 1/2, not 1/3 each
        bob_x, bob_z = qubit_povm(0.0, (1.0, 0.0, 0.0)), qubit_povm(0.0, (0.0, 0.0, 1.0))
        plus, minus = bob_x.effects
        alice_x = Povm([plus / 2.0, minus / 2.0, np.eye(2) / 2.0])
        alice_z = qubit_povm(0.2, (0.0, 0.0, 0.7))
        self.assert_v0_tables_match(alice_x, alice_z, bob_x, bob_z)

    def test_d3_family(self):
        alice_z, alice_x = rotated_d3_bases(0.2)
        bob_z, bob_x = scenarios._conjugate_povm(alice_z), scenarios._conjugate_povm(alice_x)
        self.assert_v0_tables_match(alice_x, alice_z, bob_x, bob_z)


class TestAlphaOptimality:
    def test_grid_extremes(self):
        scan = fig1_scan([3], [0.5, 0.7, 1.0, 2.0, math.inf], tol=1e-6)
        by_alpha = {r.alpha: r.detected for r in scan.records}
        top = max(by_alpha.values())
        bottom = min(by_alpha.values())
        assert by_alpha[1.0] == pytest.approx(top, abs=2e-6)
        assert by_alpha[0.5] == pytest.approx(bottom, abs=2e-6)
        assert by_alpha[0.5] == pytest.approx(mub_jm_threshold_symmetric(3), abs=2e-6)

    def test_dual_symmetry_under_measurement_swap(self):
        comp, four = mub_pair(3)
        v = 0.72
        for alpha in (0.7, 2.0, 5.0):
            direct = certify(depolarize(four, v), depolarize(comp, v), four, comp, alpha)
            swapped = certify(
                depolarize(comp, v), depolarize(four, v), comp, four, dual_order(alpha)
            )
            assert direct.lhs == pytest.approx(swapped.lhs, abs=1e-12)
            assert direct.violation == pytest.approx(swapped.violation, abs=1e-12)


class TestQubitAngleScan:
    def test_matches_both_formulas(self):
        thetas = np.linspace(0.0, 0.7, 6)
        scan = qubit_angle_scan(thetas, tol=1e-6)
        for rec in scan.records:
            formula = 1.0 / (math.sqrt(2.0) * math.cos(rec.parameter))
            assert rec.detected == pytest.approx(formula, abs=1e-5)
            assert rec.detected == pytest.approx(rec.exact, abs=1e-5)
            assert rec.gap >= -1e-9

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            qubit_angle_scan([math.pi / 4])


class TestQubitRandomPovmCheck:
    @pytest.fixture(scope="class")
    def scan(self):
        return qubit_random_povm_check(n_cases=6, seed=7, tol=1e-6)

    def test_unbiased_symmetric_cases_tight(self, scan):
        for rec, case in zip(scan.records, scan.metadata["cases"]):
            if case["kind"] == "unbiased-symmetric":
                assert rec.gap is not None and rec.gap <= 1e-5

    def test_sufficiency_on_unbiased_cases(self, scan):
        for rec, case in zip(scan.records, scan.metadata["cases"]):
            if case["kind"].startswith("unbiased"):
                assert rec.exact is not None
                assert rec.detected >= rec.exact - 1e-9

    def test_biased_cases_report_without_exact(self, scan):
        kinds = [c["kind"] for c in scan.metadata["cases"]]
        assert "biased" in kinds
        for rec, case in zip(scan.records, scan.metadata["cases"]):
            if case["kind"] == "biased":
                assert rec.exact is None

    def test_baseline_gap_reported(self, scan):
        for case in scan.metadata["cases"]:
            assert case["gap_vs_baseline"] <= 1e-9  # optimizer never loses to its start

    def test_seed_reproducible(self, scan):
        again = qubit_random_povm_check(n_cases=6, seed=7, tol=1e-6)
        for a, b in zip(scan.records, again.records):
            assert a.detected == b.detected and a.exact == b.exact


class TestQubitClosedForm:
    """The closed-form qubit violation agrees with the Born-rule pipeline."""

    @staticmethod
    def _cases(rng):
        kinds = ("unbiased-symmetric", "unbiased-asymmetric", "biased", "extremal")
        for kind in kinds * 8:  # enough extremal draws for a radicand to round below zero
            dir_z = scenarios._unit(rng.normal(size=3))
            dir_x = scenarios._unit(rng.normal(size=3))
            if kind == "unbiased-symmetric":
                len_z = len_x = 1.0
                bias_z = bias_x = 0.0
            elif kind == "unbiased-asymmetric":
                len_z, len_x = rng.uniform(0.55, 1.0, size=2)
                bias_z = bias_x = 0.0
            elif kind == "biased":
                len_z, len_x = rng.uniform(0.55, 0.95, size=2)
                bias_z = rng.uniform(-1.0, 1.0) * 0.9 * (1.0 - len_z)
                bias_x = rng.uniform(-1.0, 1.0) * 0.9 * (1.0 - len_x)
            else:  # |b| + |r| = 1, so an effect has a zero eigenvalue
                len_z, len_x = rng.uniform(0.55, 0.95, size=2)
                sign_z, sign_x = rng.choice((-1.0, 1.0), size=2)
                bias_z, bias_x = sign_z * (1.0 - len_z), sign_x * (1.0 - len_x)
            u_x = scenarios._unit(rng.normal(size=3))
            u_z = scenarios._unit(rng.normal(size=3))
            if kind == "extremal":  # Bob along Alice's x: a radicand is zero at v = 1
                u_x = scenarios._mirror_y(dir_x)
            yield kind, bias_z, len_z * dir_z, bias_x, len_x * dir_x, u_x, u_z

    def test_matches_evaluate_on_depolarized_pipeline(self):
        rng = np.random.default_rng(2024)
        worst = {}
        for kind, bias_z, bloch_z, bias_x, bloch_x, u_x, u_z in self._cases(rng):
            alice_x, alice_z = qubit_povm(bias_x, bloch_x), qubit_povm(bias_z, bloch_z)
            bob_x, bob_z = qubit_povm(0.0, u_x), qubit_povm(0.0, u_z)
            violation = scenarios._qubit_violation(bias_x, bloch_x, bloch_z, u_x, u_z)
            for v in (0.0, 0.25, 0.6, 0.85, 1.0):
                pipeline = certify(
                    depolarize(alice_x, v), depolarize(alice_z, v), bob_x, bob_z, 0.5
                ).violation
                # an extremal table at v = 1 has zero entries, where sqrt has an
                # infinite slope: a rounding of 1e-17 in either computation moves
                # the max-entropy term by about 1e-8
                key = "extremal, v = 1" if (kind, v) == ("extremal", 1.0) else kind
                worst[key] = max(worst.get(key, 0.0), abs(violation(v) - pipeline))
        at_zero = worst.pop("extremal, v = 1")
        assert set(worst) == {"unbiased-symmetric", "unbiased-asymmetric", "biased", "extremal"}
        assert max(worst.values()) <= 1e-12, worst
        assert at_zero <= 1e-7


class TestD3FamilyScan:
    @pytest.fixture(scope="class")
    def scan(self):
        return d3_family_scan(np.linspace(0.0, 0.5, 6), tol=1e-6)

    def test_mub_endpoint(self, scan):
        assert scan.records[0].detected == pytest.approx(
            mub_jm_threshold_symmetric(3), abs=1e-5
        )

    def test_coincident_endpoint_never_detects(self, scan):
        last = scan.records[-1]
        assert last.saturated and last.detected == 1.0 and last.exact == 1.0

    def test_detected_nondecreasing(self, scan):
        detected = [r.detected for r in scan.records]
        assert all(b >= a - 2e-6 for a, b in zip(detected, detected[1:]))

    def test_interior_exact_unknown(self, scan):
        for rec in scan.records[1:-1]:
            assert rec.exact is None

    def test_refinement_never_hurts(self):
        grid = [0.2]
        plain = d3_family_scan(grid, tol=1e-5)
        refined = d3_family_scan(grid, tol=1e-5, refine_bob=True)
        assert refined.records[0].detected <= plain.records[0].detected + 1e-5

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            d3_family_scan([0.7])


class TestLhsFalsification:
    def test_no_violations_and_reproducible(self):
        report = lhs_falsification_suite(seed=42, n_models=400)
        assert report.max_violation <= 1e-9
        again = lhs_falsification_suite(seed=42, n_models=400)
        assert report.max_violation == again.max_violation
        assert report.worst_case == again.worst_case

    def test_single_deterministic_model_has_margin(self):
        report = lhs_falsification_suite(seed=1, n_models=1)
        assert report.max_violation < 0.0

    def test_dims_split(self):
        report = lhs_falsification_suite(seed=3, n_models=10)
        assert report.n_models == 10
        assert report.dims == (2, 3)

    @staticmethod
    def per_model_reference(seed, n_models):
        """The suite as one loop over models, Bob pairs and orders, with one
        scalar steering_lhs call per evaluation; the first strict maximum wins."""
        master = np.random.default_rng(seed)
        max_violation, worst, n_evals = -math.inf, {}, 0
        dims = scenarios.LHS_DIMS
        per_dim = [n_models // len(dims)] * len(dims)
        per_dim[0] += n_models - sum(per_dim)
        for d, count in zip(dims, per_dim):
            pairs = scenarios._bob_pairs(d)
            model_seeds = master.integers(0, 2**63 - 1, size=count)
            for index in range(count):
                n_lambda = scenarios.LHS_N_LAMBDAS[index % len(scenarios.LHS_N_LAMBDAS)]
                model = steering.sample_lhs_model(int(model_seeds[index]), d, n_lambda)
                for name, bx, bz in pairs:
                    bound = overlap_bound(bx, bz)
                    jx, jz = steering.lhs_statistics(model, bx, bz)
                    for alpha in scenarios.LHS_ALPHAS:
                        violation = bound - steering.steering_lhs(jx, jz, alpha)
                        n_evals += 1
                        if violation > max_violation:
                            max_violation = violation
                            worst = {
                                "d": d,
                                "model_index": index,
                                "model_seed": int(model_seeds[index]),
                                "n_lambda": n_lambda,
                                "alpha": alpha,
                                "bob_pair": name,
                            }
        return n_evals, max_violation, worst

    @pytest.mark.parametrize("seed, n_models", [(42, 400), (1, 1), (3, 10), (7, 3)])
    def test_stacked_suite_matches_per_model_loop(self, seed, n_models):
        report = lhs_falsification_suite(seed=seed, n_models=n_models)
        n_evals, max_violation, worst = self.per_model_reference(seed, n_models)
        assert report.n_evaluations == n_evals
        assert report.worst_case == worst
        assert abs(report.max_violation - max_violation) <= 1e-12

    def test_dims_lists_only_dimensions_with_models(self):
        assert lhs_falsification_suite(seed=1, n_models=1).dims == (2,)
        assert lhs_falsification_suite(seed=1, n_models=2).dims == (2, 3)
