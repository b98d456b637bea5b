import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qsteer import acceptance, entropy, qobj, scenarios, steering
from qsteer.entropy import JointDistribution, dual_order
from qsteer.jointmeas import (
    ThresholdRecord,
    ThresholdSolution,
    bisect_threshold,
    exact_eta_of_chi,
    mub_jm_holds,
    mub_jm_threshold_symmetric,
    renyi_mub_threshold_symmetric,
)
from qsteer.qobj import Povm, depolarize, joint_distribution, mub_pair, qubit_povm, rotated_d3_bases
from qsteer.scenarios import (
    ScanResult,
    d3_family_scan,
    fig1_scan,
    lhs_falsification_suite,
    mub_eta_scan,
    mub_pipeline_threshold,
    qubit_angle_scan,
    qubit_random_povm_check,
)
from qsteer.steering import evaluate, overlap_bound

from helpers import certify


def d3_measurements(t):
    """Alice's rotated bases at ``t`` and Bob's conjugate bases, in (x, z, x, z) order."""
    alice_z, alice_x = rotated_d3_bases(t)
    return alice_x, alice_z, *(Povm.from_basis(a.basis.conj()) for a in (alice_x, alice_z))


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
        # every scan, not only this one, writes its metadata through the same driver
        common = ("scenario", "parameter_name", "alphas", "betas", "grid", "tol", "seed")
        scans = [
            (fig1_scan([3, 2], [1.0, 0.5], tol=1e-3), ()),
            (qubit_angle_scan([0.3, 0.1], tol=1e-3), ()),
            (d3_family_scan([0.5, 0.0], tol=1e-3), ("refine_bob", "max_entropy_settings")),
            (qubit_random_povm_check(2, 0, tol=1e-1), ("cases",)),
            (mub_eta_scan(3, 3, tol=1e-3), ("d",)),
        ]
        for scan, extras in scans:
            assert list(scan.metadata) == [*common, *extras]
            alphas = scan.metadata["alphas"]
            assert alphas == sorted(alphas)
            assert scan.metadata["betas"] == [dual_order(a) for a in alphas]
            assert [(r.parameter, r.alpha) for r in scan.records] == [
                (p, a) for p in scan.metadata["grid"] for a in alphas
            ]

    def test_records_keep_the_solvers_saturated_flag(self, monkeypatch):
        monkeypatch.setattr(
            scenarios, "_pipeline_threshold", lambda *args: ThresholdSolution(1.0, True)
        )
        (rec,) = fig1_scan([2], [0.5], tol=1e-6).records
        assert rec.detected == 1.0 and rec.saturated

    def test_matches_the_benchmark_reference(self):
        # the benchmark's mub_scan check, on its whole grid: every threshold
        # within tol of the committed reference, the alpha = 1/2 rows also
        # within tol of the exact boundary
        data = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "mub_reference.json").read_text())
        reference = {(row["d"], row["alpha"]): row["threshold"] for row in data["thresholds"]}
        alphas = [0.5, 0.55, 0.6, 0.7, 0.85, 1.0, 1.25, 1.5, 2.0, 4.0, 8.0, math.inf]
        scan = fig1_scan(range(2, 11), alphas, tol=1e-6)
        assert data["tol"] == 1e-6 and len(scan.records) == 108
        for rec in scan.records:
            key = "inf" if math.isinf(rec.alpha) else repr(rec.alpha)
            assert abs(rec.detected - reference[(rec.parameter, key)]) <= 1e-6, rec
            if rec.alpha == 0.5:
                assert abs(rec.detected - mub_jm_threshold_symmetric(rec.parameter)) <= 1e-6, rec

    def test_rejects_alpha_below_half(self):
        with pytest.raises(ValueError):
            fig1_scan([2], [0.4])

    def test_rejects_empty_dimensions_or_orders(self):
        with pytest.raises(ValueError, match="at least one dimension and one order"):
            fig1_scan([], [0.5])
        with pytest.raises(ValueError, match="at least one dimension and one order"):
            fig1_scan([2], [])

    def test_iterators_of_dimensions_and_orders(self):
        # the order check used to exhaust an iterator, so no order was left to solve
        scan = fig1_scan(iter([3, 2]), iter([1.0, 0.5]), tol=1e-3)
        assert scan.records == fig1_scan([3, 2], [1.0, 0.5], tol=1e-3).records
        assert scan.metadata["alphas"] == [0.5, 1.0]

    @pytest.mark.parametrize("dims, alphas, message", [
        ([3], [0.5, "0.7"], "no dual order for alpha='0.7': it must be a real number of at least 1/2"),
        ([3], [0.5, None], "no dual order for alpha=None: it must be a real number of at least 1/2"),
        ([3, "4"], [0.5], "dimension must be an integer of at least 2, got '4'"),
    ])
    def test_rejects_entry_before_sorting(self, dims, alphas, message, monkeypatch):
        # sorted() used to meet the entry first and raise TypeError
        monkeypatch.setattr(scenarios, "_pipeline_threshold", lambda *args: pytest.fail("a solve ran"))
        with pytest.raises(ValueError, match=re.escape(message)):
            fig1_scan(dims, alphas)


@pytest.mark.parametrize("alpha", [0.4, math.nan, "0.7", None, np.complex128(0.7 + 1j), np.array([0.7])])
def test_pipeline_threshold_rejects_orders_without_a_dual(alpha):
    # "0.7" and None used to escape as TypeError, and fig1_scan parsed "0.7" and
    # dropped the imaginary part of 0.7+1j with only a ComplexWarning
    message = re.escape(f"no dual order for alpha={alpha!r}: it must be a real number of at least 1/2")
    for call in (dual_order, lambda a: mub_pipeline_threshold(3, a), lambda a: fig1_scan([3], [a], tol=1e-3)):
        with pytest.raises(ValueError, match=message):
            call(alpha)


DIMENSION_CALLS = {
    "mub_pair": lambda d: mub_pair(d)[1].effects.tolist(),
    "mub_jm_holds": lambda d: mub_jm_holds(d, 0.7, 0.7),
    "mub_jm_threshold_symmetric": mub_jm_threshold_symmetric,
    "renyi_mub_threshold_symmetric": lambda d: renyi_mub_threshold_symmetric(d, tol=1e-3),
    "exact_eta_of_chi": lambda d: exact_eta_of_chi(d, 0.7),
    "mub_eta_scan": lambda d: mub_eta_scan(d, 3, tol=1e-3).records,
    "mub_pipeline_threshold": lambda d: mub_pipeline_threshold(d, 0.5, tol=1e-3),
    "fig1_scan": lambda d: fig1_scan([d], [0.5], tol=1e-3).records,
    "sample_lhs_model": lambda d: steering.sample_lhs_model(5, d, 2).hidden_states.matrix.tolist(),
}


@pytest.mark.parametrize("name", sorted(DIMENSION_CALLS))
def test_dimension_must_be_an_integer_of_at_least_two(name):
    call = DIMENSION_CALLS[name]
    # 2.7 used to run as d = 2, 3+1j as d = 3 with only a ComplexWarning
    for d in (2.7, 3.9, 2.5, 1, 1.0, 0, math.inf, math.nan, np.complex128(3 + 1j), np.array([3, 4])):
        with pytest.raises(ValueError, match="dimension must be an integer of at least 2"):
            call(d)
    expected = call(3)
    for d in (np.int64(3), 3.0):
        assert call(d) == expected


COUNT_CALLS = {
    "n_cases": lambda n: qubit_random_povm_check(n, 7, tol=1e-3),
    "n_models": lambda n: lhs_falsification_suite(1, n),
    "n_lambda": lambda n: steering.sample_lhs_model(5, 2, n),
}


@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_count_must_be_an_integer_of_at_least_one(name):
    for n in (2.5, math.nan, 0):
        with pytest.raises(ValueError, match=f"{name} must be an integer of at least 1, got {n!r}"):
            COUNT_CALLS[name](n)


SEED_CALLS = {
    "qubit_random_povm_check": lambda s: qubit_random_povm_check(1, s, tol=1e-3),
    "lhs_falsification_suite": lambda s: lhs_falsification_suite(s, 1),
    "sample_lhs_model": lambda s: steering.sample_lhs_model(s, 2, 1),
}


@pytest.mark.parametrize("name", sorted(SEED_CALLS))
def test_seed_must_be_a_non_negative_integer(name, monkeypatch):
    def no_draw(*args):
        raise AssertionError("random numbers were drawn before the seed was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for s in (-1, 1.5, None, math.nan, "3"):
        message = re.escape(f"seed must be an integer of at least 0, got {s!r}")
        with pytest.raises(ValueError, match=message):
            SEED_CALLS[name](s)


@pytest.mark.parametrize("tol", [-1e-3, 0.0, 1.0, math.nan, "x"])
def test_qubit_check_rejects_a_bad_tolerance_before_the_search(tol, monkeypatch):
    def no_search(*args):
        raise AssertionError("the search ran before the tolerance was checked")

    monkeypatch.setattr(scenarios, "_bob_qubit_pair", no_search)
    message = re.escape(f"tolerance must lie in (0, 1), got {tol!r}")
    with pytest.raises(ValueError, match=message):
        qubit_random_povm_check(3, 1, tol=tol)


@pytest.mark.parametrize(
    "scan, tol",
    [(qubit_angle_scan, -1), (qubit_angle_scan, 1.0), (d3_family_scan, math.nan), (d3_family_scan, 0.0),
     (qubit_angle_scan, np.complex128(0.5 + 1j)), (d3_family_scan, np.array([0.5])),
     (d3_family_scan, np.array([0.5, 0.6]))],
)
def test_scans_reject_a_bad_tolerance_on_an_empty_grid(scan, tol):
    # no solve runs on an empty grid, so the scan itself checks the tolerance
    with pytest.raises(ValueError, match=re.escape(f"tolerance must lie in (0, 1), got {tol!r}")):
        scan([], tol=tol)
    assert scan([], tol=1e-3).metadata["tol"] == 1e-3


def test_scan_records_must_be_sorted_by_parameter():
    records = [ThresholdRecord(parameter=p, detected=0.8) for p in (1.0, 0.0)]
    with pytest.raises(ValueError, match="scan records must be sorted by parameter"):
        ScanResult(records, {})


class TestBisectionStability:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_threshold_stable_under_tol_halving(self, alpha):
        coarse = mub_pipeline_threshold(2, alpha, tol=1e-6)
        fine = mub_pipeline_threshold(2, alpha, tol=5e-7)
        assert abs(coarse - fine) <= 1e-6


class TestPipelineSolveCost:
    """A pipeline threshold computes its Born tables and Bob's bound once per
    solve; every solver call is one steering.evaluate on one visibility."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # the bindings the pipeline calls: scenarios._pipeline_tables contracts
        # through scenarios.joint_distribution; depolarize is counted wherever
        # scenarios could reach it
        counts = Counter()
        bindings = [(steering, n) for n in ("evaluate", "overlap_bound")]
        bindings += [(scenarios, "joint_distribution"), (qobj, "depolarize"), (scenarios, "depolarize")]
        for module, name in bindings:
            original = getattr(module, name, None)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                if _name == "evaluate":  # visibilities: one per table of the stack
                    counts["points"] += math.prod(args[0].table.shape[:-2])
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted, raising=False)
        return counts

    @pytest.mark.parametrize("d, alpha", [(2, 0.5), (3, 1.0), (5, math.inf), (10, 0.7)])
    def test_mub_solve_costs_at_most_10_evaluations(self, calls, d, alpha):
        # v = 1, v = 0, then Anderson-Bjorck points down to a bracket of 1e-6
        mub_pipeline_threshold(d, alpha, tol=1e-6)
        assert calls["evaluate"] <= 10
        assert calls["points"] == calls["evaluate"]

    @pytest.mark.parametrize("d, alpha", [(2, 0.5), (7, 1.0), (10, math.inf), (50, 0.5)])
    def test_solve_checks_4_tables(self, monkeypatch, d, alpha):
        # the two Born tables and the two v = 0 tables; their mixtures are
        # valid by construction and not checked again
        checks = Counter()

        def counted(*args, _original=entropy.check_probabilities):
            checks[args[1]] += 1
            return _original(*args)

        monkeypatch.setattr(entropy, "check_probabilities", counted)
        mub_pipeline_threshold(d, alpha, tol=1e-6)
        assert checks == {"joint table": 4}

    def test_d50_solve_costs_at_most_10_single_evaluations(self, calls):
        mub_pipeline_threshold(50, 0.5, tol=1e-6)
        assert calls["evaluate"] == calls["points"] <= 10

    @pytest.mark.parametrize("tol, budget", [(1e-6, 10), (1e-13, 12)])
    def test_every_mub_scan_order_solves_within_budget(self, calls, tol, budget):
        # the benchmark's twelve orders at d = 2..20, 30 and 50
        for d in [*range(2, 21), 30, 50]:
            tables = scenarios._mub_tables(d)
            for alpha in MUB_SCAN_ALPHAS:
                calls.clear()
                scenarios._pipeline_threshold(tables, alpha, tol)
                assert calls["evaluate"] == calls["points"] <= budget, (d, alpha, calls)

    def test_each_mub_scan_solve_costs_7_to_9_evaluations(self, calls):
        # the benchmark's 108 solves, d = 2..10 at its twelve orders: 870
        # evaluations in all, 8.06 a solve
        total = 0
        for d in range(2, 11):
            for alpha in MUB_SCAN_ALPHAS:
                calls.clear()
                mub_pipeline_threshold(d, alpha, tol=1e-6)
                assert 7 <= calls["evaluate"] == calls["points"] <= 9, (d, alpha, calls)
                total += calls["evaluate"]
        assert total == 870

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

    @pytest.fixture
    def validations(self, monkeypatch):
        # the benchmark's traced run counts these: every Povm is checked by is_psd
        counts = Counter()
        for target, name in ((qobj, "is_psd"), (qobj.Povm, "__init__")):
            def counted(*args, _name=name, _original=getattr(target, name), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(target, name, counted)
        return counts

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_qubit_case_validates_2_povms(self, validations, seed):
        # Alice's two POVMs, each built and checked once; Bob's pair is stored unchecked
        qubit_random_povm_check(1, seed, 1e-4)
        assert validations == {"is_psd": 2, "__init__": 2}

    def test_d3_family_point_validates_2_povms(self, validations):
        # Alice's two rotated bases; Bob's conjugate bases are stored unchecked
        d3_family_scan([0.1], 1e-6)
        assert validations == {"is_psd": 2, "__init__": 2}

    @pytest.mark.parametrize("d, alpha", [(2, 0.5), (5, 1.0), (10, math.inf)])
    def test_mub_solve_validates_2_povms(self, validations, d, alpha):
        mub_pipeline_threshold(d, alpha)
        assert validations == {"is_psd": 2, "__init__": 2}

    def test_never_detecting_scenario_costs_one_evaluation(self, calls):
        scan = d3_family_scan([0.5], tol=1e-6)
        assert scan.records[0].saturated and scan.records[0].detected == 1.0
        assert calls == {"evaluate": 1, "points": 1, "joint_distribution": 2, "overlap_bound": 1}


# the twelve orders of the benchmark's mub_scan workload
MUB_SCAN_ALPHAS = (0.5, 0.55, 0.6, 0.7, 0.85, 1.0, 1.25, 1.5, 2.0, 4.0, 8.0, math.inf)


class TestStackedSolves:
    """``steering.evaluate`` on a stack of tables, as the LHS suite calls it,
    gives the values of the single tables, bit for bit."""

    @pytest.mark.parametrize("d", range(2, 11))
    def test_stacked_evaluate_equals_single_tables(self, d):
        t1, t0, bound = scenarios._mub_tables(d)
        dyadic = np.arange(32) / 32  # a first stacked call, from v = 0; 5/8 is d = 9's exact boundary
        assert dyadic[0] == 0.0 and 0.625 in dyadic
        for vs in (dyadic, dyadic[1:], np.random.default_rng(d).uniform(size=31)):
            w = vs[:, None, None]
            jx, jz = (JointDistribution(w * a.table + (1.0 - w) * b.table) for a, b in zip(t1, t0))
            singles = [
                [JointDistribution(v * a.table + (1.0 - v) * b.table) for a, b in zip(t1, t0)]
                for v in vs.tolist()
            ]
            for alpha in MUB_SCAN_ALPHAS:
                stacked = evaluate(jx, jz, bound, alpha)
                single = [evaluate(x, z, bound, alpha) for x, z in singles]
                assert stacked.violation.tolist() == [c.violation for c in single]
                assert stacked.detected.tolist() == [c.detected for c in single]


class TestRootFinderPrecision:
    """At tol 1e-13 the root-finder on the violation lands within rounding of
    the boundary: within 1e-12 of the exact column where one is known, and of
    a boolean bisection at tol 1e-14 elsewhere."""

    def test_fig1_half_alpha_records_meet_the_exact_boundary(self):
        scan = fig1_scan(range(2, 21), [0.5], tol=1e-13)
        assert len(scan.records) == 19
        for rec in scan.records:
            assert abs(rec.detected - rec.exact) <= 1e-12, rec

    def test_qubit_angle_records_meet_busch_boundary(self):
        scan = qubit_angle_scan(np.linspace(0.0, 0.78, 20), tol=1e-13)
        for rec in scan.records:
            assert abs(rec.detected - rec.exact) <= 1e-12, rec

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_unbiased_qubit_records_meet_busch_boundary(self, seed):
        scan = qubit_random_povm_check(30, seed, tol=1e-13)
        unbiased = [r for r in scan.records if r.exact is not None]
        assert len(unbiased) == 20
        for rec in unbiased:
            assert abs(rec.detected - rec.exact) <= 1e-12, rec

    def test_other_orders_meet_a_boolean_bisection(self):
        alphas = [a for a in MUB_SCAN_ALPHAS if a != 0.5]
        scan = fig1_scan(range(2, 11), alphas, tol=1e-13)
        tables = {d: scenarios._mub_tables(d) for d in range(2, 11)}
        for rec in scan.records:
            t1, t0, bound = tables[int(rec.parameter)]

            def detects(v, alpha=rec.alpha):
                jx, jz = (JointDistribution.mixture(a, b, v) for a, b in zip(t1, t0))
                return evaluate(jx, jz, bound, alpha).detected

            assert abs(rec.detected - bisect_threshold(detects, 1e-14).value) <= 1e-12, rec


class TestPipelineTables:
    """The v = 0 tables, built from Bob's marginal, equal the Born tables of
    fully depolarized measurements."""

    @staticmethod
    def assert_v0_tables_match(alice_x, alice_z, bob_x, bob_z):
        _, t0, _ = scenarios._pipeline_tables(alice_x, alice_z, bob_x, bob_z)
        noisy_x, noisy_z = depolarize(alice_x, 0.0), depolarize(alice_z, 0.0)
        born = joint_distribution(noisy_x, bob_x), joint_distribution(noisy_z, bob_z)
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
        self.assert_v0_tables_match(*d3_measurements(0.2))

    @pytest.mark.parametrize("d", [2, 3, 5, 10])
    def test_v0_tables_equal_the_trace_and_outer_formula(self, d):
        # the diagonal sum and the broadcast product are np.trace and np.outer bit for bit,
        # on projective and on depolarized (full-rank) effects of Alice
        comp, four = mub_pair(d)
        rng = np.random.default_rng(d)
        for alice_x, alice_z in [(four, comp), *((depolarize(four, v), depolarize(comp, v)) for v in rng.random(5))]:
            t1, t0, _ = scenarios._pipeline_tables(alice_x, alice_z, four, comp)
            for one, zero, a in zip(t1, t0, (alice_x, alice_z)):
                w = np.trace(a.effects, axis1=1, axis2=2).real / a.dim
                assert zero.table.tobytes() == JointDistribution(np.outer(one.table.sum(axis=1), w)).table.tobytes()


class TestTrustedBobMeasurements:
    """The Bob measurements a scenario builds by its own formula are stored
    unchecked; the public validators must pass each one bit for bit."""

    @staticmethod
    def assert_valid(bob):
        assert Povm(bob.effects).effects.tobytes() == bob.effects.tobytes()
        assert not bob.effects.flags.writeable
        if bob.basis is not None:
            assert Povm.from_basis(bob.basis).effects.tobytes() == bob.effects.tobytes()
            assert not bob.basis.flags.writeable

    @pytest.fixture
    def bobs(self, monkeypatch):
        seen, tables = [], scenarios._pipeline_tables

        def recorded(*povms):
            seen.extend(povms[2:])
            return tables(*povms)

        monkeypatch.setattr(scenarios, "_pipeline_tables", recorded)
        return seen

    def test_random_povm_check_bob_pairs(self, bobs):
        # seeds 1..20, three cases each: one of every kind, biased ones searched
        kinds = Counter()
        for seed in range(1, 21):
            kinds.update(case["kind"] for case in qubit_random_povm_check(3, seed, 1e-4).metadata["cases"])
        assert len(bobs) == 120 and kinds == {k: 20 for k in ("unbiased-symmetric", "unbiased-asymmetric", "biased")}
        for bob in bobs:
            self.assert_valid(bob)

    def test_angle_scan_pair(self, bobs):
        qubit_angle_scan(np.linspace(0.0, 0.76, 5), 1e-4)
        assert len(bobs) == 10 and all(b is bobs[0] for b in bobs[::2]) and all(b is bobs[1] for b in bobs[1::2])
        self.assert_valid(bobs[0])
        self.assert_valid(bobs[1])
        assert bobs[0].effects.tobytes() == qubit_povm(0.0, (1.0, 0.0, 0.0)).effects.tobytes()
        assert bobs[1].basis.tobytes() == Povm.from_basis(np.eye(2)).basis.tobytes()

    def test_tilted_qubit(self):
        (name, tilted, _), = [pair for pair in scenarios._bob_pairs(2) if pair[0] != "mub"]
        assert name == "tilted-60deg"
        self.assert_valid(tilted)
        direction = (math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3))
        assert tilted.effects.tobytes() == qubit_povm(0.0, direction).effects.tobytes()

    def test_d3_conjugate_bases(self, bobs):
        ts = np.sort(np.random.default_rng(2257).uniform(0.0, 0.5, size=40))
        d3_family_scan(ts, 1e-3)
        assert len(bobs) == 80
        for t, pair in zip(ts, zip(bobs[::2], bobs[1::2])):
            for bob, want in zip(pair, d3_measurements(t)[2:]):
                self.assert_valid(bob)
                assert bob.basis.tobytes() == want.basis.tobytes()


class TestDualOrderAssignment:
    """Putting the max-entropy on z is the dual order alpha = inf on the tables
    in (x, z) order: bit for bit the threshold of the reversed settings at
    alpha = 1/2, because addition commutes and the bound is bit-symmetric."""

    @staticmethod
    def assert_dual_equals_reversed(alice_x, alice_z, bob_x, bob_z, tol, cutoff=math.inf):
        forward = scenarios._pipeline_tables(alice_x, alice_z, bob_x, bob_z)
        reversed_ = scenarios._pipeline_tables(alice_z, alice_x, bob_z, bob_x)
        dual = scenarios._pipeline_threshold(forward, math.inf, tol, cutoff)
        assert dual == scenarios._pipeline_threshold(reversed_, 0.5, tol, cutoff)
        return dual

    def test_random_qubit_cases(self):
        # 30 cases of the random check, a third of them biased, with the Bob pair it finds
        scan = qubit_random_povm_check(30, 4, 1e-6)
        detected = 0
        for case in scan.metadata["cases"]:
            _, u_x, u_z = scenarios._bob_qubit_pair(
                case["bias_x"], case["bias_z"], np.array(case["bloch_x"]), np.array(case["bloch_z"]), 1e-6
            )
            alice = [qubit_povm(case[f"bias_{s}"], case[f"bloch_{s}"]) for s in "xz"]
            bob = [qubit_povm(0.0, u) for u in (u_x, u_z)]
            for tol in (1e-4, 1e-6, 1e-13):
                detected += not self.assert_dual_equals_reversed(*alice, *bob, tol).saturated
        assert detected >= 60

    def test_d3_grid(self):
        for t in np.linspace(0.0, 0.5, 11):
            for cutoff in (math.inf, 0.9):
                self.assert_dual_equals_reversed(*d3_measurements(t), 1e-6, cutoff)

    def test_qubit_check_solves_the_z_setting_at_the_dual_order(self, monkeypatch):
        solve, alphas = scenarios._pipeline_threshold, []

        def recorded(tables, alpha, tol):
            alphas.append(alpha)
            return solve(tables, alpha, tol)

        monkeypatch.setattr(scenarios, "_pipeline_threshold", recorded)
        scan = qubit_random_povm_check(6, 7, 1e-4)
        settings = [c["max_entropy_setting"] for c in scan.metadata["cases"]]
        assert alphas == [0.5 if s == "x" else math.inf for s in settings] and "z" in settings
        assert all(r.alpha == 0.5 for r in scan.records)


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


class TestMubEtaScan:
    """The eta(chi) curve of noisy MUBs through the pipeline; its closed-form
    oracle and the exact column are checked in test_jointmeas.py."""

    @pytest.mark.parametrize("d", [2, 3, 5, 10])
    def test_meets_the_exact_boundary(self, d):
        scan = mub_eta_scan(d, 21, 1e-13)
        assert scan.metadata["scenario"] == "mub-eta-of-chi" and scan.metadata["d"] == d
        assert scan.metadata["parameter_name"] == "chi" and scan.metadata["alphas"] == [0.5]
        assert max(abs(r.gap) for r in scan.records) <= 1e-12

    def test_inputs_checked_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("tables were built before the inputs were checked")

        monkeypatch.setattr(scenarios, "_mub_tables", no_work)
        for args, message in [
            ((1, 5, 1e-6), "dimension must be an integer of at least 2, got 1"),
            ((3, 0, 1e-6), "grid_points must be an integer of at least 1, got 0"),
            ((3, 5, 0.0), "tolerance must lie in (0, 1), got 0.0"),
            ((3, 5, "x"), "tolerance must lie in (0, 1), got 'x'"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                mub_eta_scan(*args)


class TestQubitAngleScan:
    def test_matches_both_formulas(self):
        thetas = np.linspace(0.0, 0.7, 6)
        scan = qubit_angle_scan(thetas, tol=1e-13)
        for rec in scan.records:
            formula = 1.0 / (math.sqrt(2.0) * math.cos(rec.parameter))
            assert rec.detected == pytest.approx(formula, abs=1e-12)
            assert rec.detected == pytest.approx(rec.exact, abs=1e-12)
            assert rec.gap >= -1e-9

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            qubit_angle_scan([math.pi / 4])

    @pytest.mark.parametrize("theta", ["0.1", None, 0.1 + 0j, [0.1]])
    def test_grid_entry_that_is_no_real_number_rejected(self, theta):
        # float() used to parse "0.1" and raise TypeError on the others
        with pytest.raises(ValueError, match=re.escape(f"theta must be a real number, got {theta!r}")):
            qubit_angle_scan([0.2, theta])

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.7])
    def test_pipeline_tables_match_the_closed_form(self, theta):
        # the scan's geometry mixed at v: p(b, a) = (1 +- v cos theta)/4 on both settings
        dir_z = (math.sin(theta), 0.0, math.cos(theta))
        dir_x = (math.cos(theta), 0.0, math.sin(theta))
        bob_z, bob_x = Povm.from_basis(np.eye(2, dtype=complex)), qubit_povm(0.0, (1.0, 0.0, 0.0))
        t1, t0, _ = scenarios._pipeline_tables(qubit_povm(0.0, dir_x), qubit_povm(0.0, dir_z), bob_x, bob_z)
        for v in (0.0, 0.7, 1.0):
            c = v * math.cos(theta)
            expected = np.array([[1 + c, 1 - c], [1 - c, 1 + c]]) / 4
            for one, zero in zip(t1, t0):
                assert np.abs(JointDistribution.mixture(one, zero, v).table - expected).max() <= 1e-12


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

    def test_seed_reproducible(self, scan):
        again = qubit_random_povm_check(n_cases=6, seed=7, tol=1e-6)
        for a, b in zip(scan.records, again.records):
            assert a.detected == b.detected and a.exact == b.exact

    @pytest.mark.parametrize("seed", [1, 2])
    def test_exact_column_is_buschs_formula(self, seed):
        scan = qubit_random_povm_check(9, seed, tol=1e-4)
        for rec, case in zip(scan.records, scan.metadata["cases"]):
            if case["kind"] != "biased":
                z, x = np.array(case["bloch_z"]), np.array(case["bloch_x"])
                busch = 2.0 / (np.linalg.norm(z + x) + np.linalg.norm(z - x))
                assert rec.exact == min(1.0, busch), (rec, case)

    def test_results_pinned(self):
        # values of the one-angle search; a change that moves it fails here
        scan = qubit_random_povm_check(6, 7, tol=1e-4)
        assert [r.detected for r in scan.records] == [
            0.7122159322148536,
            1.0,
            1.0,
            0.7132638054745736,
            0.9564368835118986,
            0.9730082238033952,
        ]
        settings = [c["max_entropy_setting"] for c in scan.metadata["cases"]]
        assert settings == ["x", "x", "x", "x", "x", "z"]

    def test_search_path_pinned(self):
        # the eigenvector start is where the search ends on unbiased pairs, so
        # pin a search that moves: from 0.25 rad off it, on a biased pair
        (args, start), = searched_qubit_cases(1)
        x, f = scenarios._coordinate_search(qubit_objective(*args), start, ftol=5e-5)
        assert x == [-3.124113289217265]
        assert f == 0.8272494715018748
        assert f < qubit_objective(*args)(start, math.inf)

    def test_search_runs_no_solver(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("the qubit search called the threshold solver")

        for name in ("bisect_threshold", "_pipeline_threshold"):
            monkeypatch.setattr(scenarios, name, no_solve)
        for args, _ in searched_qubit_cases(3):
            setting, u_x, u_z = scenarios._bob_qubit_pair(args[0], -args[0], *args[1:], 1e-6)
            assert setting in ("x", "z") and abs(np.dot(u_x, u_z)) < 1e-12

    def test_unbiased_settings_run_no_search(self, monkeypatch):
        # with the max-entropy setting's bias 0 the search would end at its
        # start, so only the biased case searches, once per assignment
        calls = []
        search = scenarios._coordinate_search

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(scenarios, "_coordinate_search", counted)
        qubit_random_povm_check(3, 7, 1e-6)
        assert len(calls) == 2
        calls.clear()
        qubit_random_povm_check(1, 7, 1e-4)
        assert calls == []

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
    def test_same_pair_as_searching_both_assignments(self, tol):
        rng = np.random.default_rng(33)
        for k in range(210):
            dir_z, dir_x = scenarios._unit(rng.normal(size=3)), scenarios._unit(rng.normal(size=3))
            len_z, len_x = (1.0, 1.0) if k % 6 == 0 else rng.uniform(0.55, 1.0, size=2)
            bias = rng.uniform(-1.0, 1.0) * 0.9 * (1.0 - rng.uniform(0.55, 0.95))
            biases = ((0.0, 0.0), (0.0, bias), (bias, 0.0))[k % 3]
            args = (*biases, len_x * dir_x, len_z * dir_z, tol)
            setting, u_x, u_z = scenarios._bob_qubit_pair(*args)
            parent_setting, parent_x, parent_z = parent_bob_qubit_pair(*args)
            assert setting == parent_setting, (k, args)
            assert np.array_equal(u_x, parent_x) and np.array_equal(u_z, parent_z), (k, args)

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_unbiased_records_meet_busch_boundary(self, seed):
        # Busch, PRD 33, 2253 (1986): 2/(|r_x + r_z| + |r_x - r_z|), capped at 1
        tol = 1e-6
        scan = qubit_random_povm_check(30, seed, tol)
        unbiased = 0
        for rec, case in zip(scan.records, scan.metadata["cases"]):
            if case["kind"] == "biased":
                continue
            r_x, r_z = np.array(case["bloch_x"]), np.array(case["bloch_z"])
            exact = min(1.0, 2.0 / (np.linalg.norm(r_x + r_z) + np.linalg.norm(r_x - r_z)))
            assert exact <= rec.detected <= exact + tol, (case, rec)
            unbiased += 1
        assert unbiased == 20

    def test_swapped_assignment_named_and_rederived(self):
        tol = 1e-6
        scan = qubit_random_povm_check(6, 7, tol)
        rec, case = scan.records[5], scan.metadata["cases"][5]
        assert case["kind"] == "biased" and case["max_entropy_setting"] == "z"
        _, u_x, u_z = scenarios._bob_qubit_pair(
            case["bias_x"], case["bias_z"], tuple(case["bloch_x"]), tuple(case["bloch_z"]), tol
        )
        alice_x, alice_z = (qubit_povm(case[f"bias_{s}"], case[f"bloch_{s}"]) for s in "xz")
        bob_x, bob_z = qubit_povm(0.0, u_x), qubit_povm(0.0, u_z)
        swapped = scenarios._pipeline_tables(alice_z, alice_x, bob_z, bob_x)
        assert rec.detected == scenarios._pipeline_threshold(swapped, 0.5, tol).value
        direct = scenarios._pipeline_tables(alice_x, alice_z, bob_x, bob_z)
        assert scenarios._pipeline_threshold(direct, 0.5, tol).value > rec.detected

    def test_biased_cases_meet_a_dense_in_plane_grid(self):
        # 720 angles over half a turn, both assignments, each in closed form
        tol = 1e-6
        scan = qubit_random_povm_check(12, 3, tol)
        cases = zip(scan.records, scan.metadata["cases"])
        biased = [(r, c) for r, c in cases if c["kind"] == "biased"]
        assert len(biased) == 4 and not any(r.saturated for r, _ in biased)
        for rec, case in biased:
            coordinates = plane_coordinates(case["bloch_x"], case["bloch_z"])
            grid = min(
                min(
                    scenarios._qubit_threshold(case["bias_x"], c_x, c_z),
                    scenarios._qubit_threshold(case["bias_z"], c_z, c_x),
                )
                for c_x, c_z in map(coordinates, np.arange(720) * math.pi / 720)
            )
            assert abs(rec.detected - grid) <= 2 * tol, (case, rec.detected, grid)


class TestQubitClosedForm:
    """The closed-form qubit threshold agrees with the Born-rule pipeline on
    Bob's orthogonal in-plane pairs, for both order assignments."""

    TOL = 1e-13

    @staticmethod
    def _cases(rng):
        kinds = ("unbiased-symmetric", "unbiased-asymmetric", "biased", "extremal")
        for kind in kinds * 100:
            dir_z = scenarios._unit(rng.normal(size=3))
            dir_x = scenarios._unit(rng.normal(size=3))
            t = rng.uniform(0.0, math.pi)
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
                t = 0.0  # Bob along Alice's x: a radicand is zero at v = 1
            yield kind, bias_x, len_x * dir_x, bias_z, len_z * dir_z, t

    def check(self, bias_x, bloch_x, bias_z, bloch_z, t):
        """Both assignments of one case against the pipeline solve at TOL:
        the closed form lies within 1e-12 of it and saturates exactly where
        the pipeline does.  Returns how many saturate."""
        alice_x, alice_z = qubit_povm(bias_x, bloch_x), qubit_povm(bias_z, bloch_z)
        bob_x, bob_z = (qubit_povm(0.0, u) for u in in_plane_pair(bloch_x, bloch_z)[0](t))
        c_x, c_z = plane_coordinates(bloch_x, bloch_z)(t)
        saturated = 0
        for bias, c_max, c_min, measurements in (
            (bias_x, c_x, c_z, (alice_x, alice_z, bob_x, bob_z)),
            (bias_z, c_z, c_x, (alice_z, alice_x, bob_z, bob_x)),
        ):
            pipeline = scenarios._pipeline_threshold(
                scenarios._pipeline_tables(*measurements), 0.5, self.TOL
            )
            closed = scenarios._qubit_threshold(bias, c_max, c_min)
            assert (closed == 1.0) == pipeline.saturated, (closed, pipeline)
            assert abs(closed - pipeline.value) <= 1e-12, (closed, pipeline)
            saturated += pipeline.saturated
        return saturated

    def test_matches_the_pipeline_threshold(self):
        kinds, saturated = Counter(), Counter()
        for kind, *case in self._cases(np.random.default_rng(2024)):
            saturated[kind] += self.check(*case)
            kinds[kind] += 2
        assert set(kinds) == {"unbiased-symmetric", "unbiased-asymmetric", "biased", "extremal"}
        assert 0 < sum(saturated.values()) < sum(kinds.values()), saturated

    def test_spurious_root_saturates(self):
        # squaring twice adds a root below 1 where the criterion detects nothing
        bias, c_max, c_min = -0.0527, 0.9228, 0.1424
        quadratic = [c_min**2 * (c_max**2 + c_min**2), -(c_min**2) * (1 + bias**2), bias**2]
        assert math.sqrt(max(np.roots(quadratic).real)) == pytest.approx(0.9958, abs=1e-4)
        assert scenarios._qubit_threshold(bias, c_max, c_min) == 1.0
        # Bob along x and z at t = 0, so the Bloch vectors give c_max and c_min
        assert self.check(bias, (c_max, 0.0, 0.0), 0.3, (0.0, 0.0, c_min), 0.0) == 2


def parent_bob_qubit_pair(bias_x, bias_z, bloch_x, bloch_z, tol):
    """``scenarios._bob_qubit_pair`` as it was before an unbiased max-entropy
    setting took its start unsearched: both assignments run the pattern search
    from Busch's eigenvector start."""
    e1 = scenarios._unit(bloch_x)
    p = float(np.dot(bloch_z, e1))
    e2 = scenarios._unit(bloch_z - p * e1)
    q = float(np.dot(bloch_z, e2))
    length = float(np.linalg.norm(bloch_x))
    start = [0.5 * math.atan2(-2.0 * p * q, float(np.dot(bloch_x, bloch_x)) + q * q - p * p)]
    ftol = tol * 0.5

    def search(bias, order):
        def threshold(t, cutoff):
            c, s = math.cos(t[0]), math.sin(t[0])
            return scenarios._qubit_threshold(bias, *(length * c, q * c - p * s)[::order])

        (t,), f = scenarios._coordinate_search(threshold, start, ftol=ftol)
        return f, t

    (f_x, t_x), (f_z, t_z) = search(bias_x, 1), search(bias_z, -1)
    setting, t = ("z", t_z) if f_z < f_x - ftol else ("x", t_x)
    c, s = math.cos(t), math.sin(t)
    return setting, scenarios._mirror_y(c * e1 + s * e2), scenarios._mirror_y(c * e2 - s * e1)


def in_plane_pair(bloch_x, bloch_z):
    """Bob's orthogonal pairs in the plane of Alice's Bloch vectors, read
    through the y mirror, as a function of one angle t, and the angle of the
    top eigenvector of a a^T + b b^T (a = r_x, b = J^T r_z in plane
    coordinates), where an unbiased pair meets Busch's boundary."""
    e1 = scenarios._unit(bloch_x)
    e2 = scenarios._unit(np.asarray(bloch_z) - np.dot(bloch_z, e1) * e1)
    a = np.array([np.dot(bloch_x, e1), 0.0])
    b = np.array([np.dot(bloch_z, e2), -np.dot(bloch_z, e1)])
    top = np.linalg.eigh(np.outer(a, a) + np.outer(b, b))[1][:, -1]

    def pair(t):
        w, jw = math.cos(t) * e1 + math.sin(t) * e2, math.cos(t) * e2 - math.sin(t) * e1
        return tuple(tuple(map(float, scenarios._mirror_y(u))) for u in (w, jw))

    return pair, math.atan2(top[1], top[0])


def searched_qubit_cases(n):
    """``n`` seeded qubit pairs of Bloch lengths 0.8 and 0.9 and x biases
    -0.1, 0, 0.1, ... as plain floats, each with a start 0.25 rad off the
    eigenvector angle of ``in_plane_pair``."""
    rng = np.random.default_rng(3)
    for k in range(n):
        dir_z, dir_x = scenarios._unit(rng.normal(size=3)), scenarios._unit(rng.normal(size=3))
        args = (0.1 * (k - 1), tuple(map(float, 0.8 * dir_x)), tuple(map(float, 0.9 * dir_z)))
        yield args, [in_plane_pair(*args[1:])[1] + 0.25]


def plane_coordinates(bloch_x, bloch_z):
    """c_x and c_z of ``in_plane_pair``'s Bob pair at angle t: each Bloch
    vector dotted with Bob's direction for its setting, read through the y
    mirror."""
    pair = in_plane_pair(bloch_x, bloch_z)[0]

    def coordinates(t):
        return tuple(
            float(np.dot(r, scenarios._mirror_y(u))) for r, u in zip((bloch_x, bloch_z), pair(t))
        )

    return coordinates


def qubit_objective(bias_x, bloch_x, bloch_z):
    """The search's objective, max-entropy on x, over the angle of Bob's
    in-plane orthogonal pair."""
    coordinates = plane_coordinates(bloch_x, bloch_z)

    def objective(t, cutoff):
        return scenarios._qubit_threshold(bias_x, *coordinates(t[0]))

    return objective


class TestPrunedSearch:
    """A solve pruned at the pattern search's acceptance cutoff returns the
    unpruned value when that lies below the cutoff and a value of at least
    the cutoff otherwise, so the search takes the same path."""

    @staticmethod
    def check_cutoffs(solve):
        """``solve(cutoff)`` against the unpruned ``solve(inf)`` at fixed
        cutoffs, <= 0 and >= 1 included, and at the unpruned value and its
        float neighbours; returns how many solves were pruned."""
        full = solve(math.inf)
        fixed = (-0.5, 0.0, 0.3, 0.7, 0.95, 1.0, 1.5)
        near = (full, math.nextafter(full, -1.0), math.nextafter(full, 2.0))
        pruned = 0
        for cutoff in fixed + near:
            value = solve(cutoff)
            if full < cutoff:
                assert value == full, (cutoff, value, full)
            else:
                assert value >= cutoff, (cutoff, value, full)
                pruned += value != full
        return pruned

    @pytest.mark.parametrize("alpha", [0.5, 1.0, math.inf])
    def test_pipeline_solve_prunes_only_at_or_above_the_cutoff(self, alpha):
        tables = scenarios._mub_tables(3)
        assert self.check_cutoffs(
            lambda c: scenarios._pipeline_threshold(tables, alpha, 1e-6, c).value
        ) > 0

    def test_pipeline_search_path_unchanged(self):
        comp, four = mub_pair(3)

        def objective(params, cutoff):  # Bob's Fourier basis turned by exp(iH), H_10 = p0 + i p1
            u = scenarios._unitary([0.0, 0.0, 0.0, params[0], 0.0, 0.0, params[1], 0.0, 0.0])
            bob_x = Povm.from_basis(u @ four.basis)
            tables = scenarios._pipeline_tables(four, comp, bob_x, comp)
            return scenarios._pipeline_threshold(tables, 0.5, 1e-4, cutoff).value

        kwargs = dict(step0=0.2, ftol=5e-5)
        pruned = scenarios._coordinate_search(objective, (0.3, 0.2), **kwargs)
        full = scenarios._coordinate_search(
            lambda x, cutoff: objective(x, math.inf), (0.3, 0.2), **kwargs
        )
        assert pruned == full
        assert pruned[1] < objective((0.3, 0.2), math.inf)  # the search moved


class TestUnitary:
    def test_zero_is_the_identity(self):
        assert np.array_equal(scenarios._unitary([0.0] * 9), np.eye(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_parameters_give_a_unitary(self, seed):
        u = scenarios._unitary(np.random.default_rng(seed).normal(size=9).tolist())
        assert np.abs(u @ u.conj().T - np.eye(3)).max() <= 1e-14

    def test_diagonal_is_a_phase(self):
        p = [0.3, -1.2, 2.0]
        u = scenarios._unitary(p + [0.0] * 6)
        assert np.abs(u - np.diag(np.exp(1j * np.array(p)))).max() <= 1e-15


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

    def test_thresholds_pinned(self):
        # the records of the root-finder on the violation; t = 0 is the d = 3
        # MUB pair, 9.5e-8 above its exact boundary (1 + sqrt 3)/4
        scan = d3_family_scan(np.linspace(0.0, 0.5, 11), 1e-6)
        assert [r.detected.hex() for r in scan.records] == [
            "0x1.5db3da70dd7b2p-1", "0x1.9c4563fd89effp-1", "0x1.c6b5ede6ab213p-1",
            "0x1.e13f662b991c8p-1", "0x1.f0be372378da0p-1", "0x1.f92d61a6eae40p-1",
            "0x1.fd60c595665e7p-1", "0x1.ff36154464bb8p-1", "0x1.ffd9940b58f62p-1",
            "0x1.fffda7ff1810cp-1", "0x1.0000000000000p+0",
        ]
        assert [r.saturated for r in scan.records] == [False] * 10 + [True]

    def test_bob_measures_the_conjugate_bases_and_the_refine_turns_them(self, monkeypatch):
        tables, seen = scenarios._pipeline_tables, []

        def recorded(*povms):
            seen.append(povms)
            return tables(*povms)

        monkeypatch.setattr(scenarios, "_pipeline_tables", recorded)
        d3_family_scan([0.2], 1e-3, refine_bob=True)
        for got, want in zip(seen[0], d3_measurements(0.2)):
            assert np.array_equal(got.basis, want.basis)
        assert len(seen) > 1 and all(p.basis is not None for povms in seen for p in povms)

    def test_refine_turns_one_basis_a_step(self, monkeypatch):
        # the search moves one of 18 parameters a step, so each objective call
        # turns only the side whose 9 moved; both sides at each search's start
        counts, searching = Counter(), []

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += bool(searching)
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(scenarios, "_unitary", counting("_unitary", scenarios._unitary))
        monkeypatch.setattr(Povm, "_valid", classmethod(counting("_valid", Povm._valid.__func__)))
        search = scenarios._coordinate_search

        def counted_search(objective, *args, **kwargs):
            counts["searches"] += 1
            searching.append(True)
            try:
                return search(counting("calls", objective), *args, **kwargs)
            finally:
                searching.pop()

        monkeypatch.setattr(scenarios, "_coordinate_search", counted_search)
        d3_family_scan([0.2], 1e-3, refine_bob=True)
        assert counts["searches"] == 2 and counts["calls"] > 100
        assert counts["_unitary"] == counts["_valid"] <= counts["calls"] + counts["searches"]

    @pytest.mark.parametrize("t", [0.1, 0.2, 0.3])
    def test_turned_bases_pass_the_public_validators(self, t, monkeypatch):
        # the refine stores exp(iH) B unchecked, a unitary times a validated basis;
        # Povm and from_basis must pass each one bit for bit, the refine's own and random H alike
        rng = np.random.default_rng(round(10 * t))
        bobs = d3_measurements(t)[2:]
        turned = [Povm._valid(None, scenarios._unitary(rng.normal(size=9).tolist()) @ bob.basis)
                  for bob in bobs for _ in range(50)]
        tables = scenarios._pipeline_tables

        def recorded(*povms):
            turned.extend(povms[2:])
            return tables(*povms)

        monkeypatch.setattr(scenarios, "_pipeline_tables", recorded)
        d3_family_scan([t], 1e-3, refine_bob=True)
        assert len(turned) > 200
        for bob in turned:
            basis = Povm.from_basis(bob.basis)
            assert Povm(bob.effects).effects.tobytes() == bob.effects.tobytes()
            assert basis.effects.tobytes() == bob.effects.tobytes()
            assert basis.basis.tobytes() == bob.basis.tobytes()
            assert not (bob.effects.flags.writeable or bob.basis.flags.writeable)

    def test_mub_endpoint_at_tight_tolerance(self):
        (rec,) = d3_family_scan([0.0], 1e-13).records
        assert abs(rec.detected - (1.0 + math.sqrt(3.0)) / 4.0) <= 1e-12

    def test_refinement_never_hurts(self):
        grid = [0.2]
        plain = d3_family_scan(grid, tol=1e-5)
        refined = d3_family_scan(grid, tol=1e-5, refine_bob=True)
        assert refined.records[0].detected <= plain.records[0].detected + 1e-5

    def test_refined_records_and_winning_settings_pinned(self):
        # t = 0.2 is won by the alpha = 1/2 search (0.734956 against 0.742797 at
        # alpha = inf), t = 0.3 by the alpha = inf search (0.784527 against 0.834986)
        scan = d3_family_scan([0.2, 0.3], 1e-6, refine_bob=True)
        assert [r.detected.hex() for r in scan.records] == ["0x1.784c33365fd5cp-1", "0x1.91ad7f15378a3p-1"]
        assert scan.metadata["max_entropy_settings"] == ["x", "z"]

    def test_unrefined_and_saturated_points_read_x(self, scan):
        assert scan.metadata["max_entropy_settings"] == ["x"] * 6
        refined = d3_family_scan([0.5], 1e-4, refine_bob=True)
        assert refined.records[0].saturated and refined.metadata["max_entropy_settings"] == ["x"]

    def test_refinement_searches_both_order_assignments(self):
        # unrefined 0.9949 at t = 0.3; the search reads 0.8350 with the
        # max-entropy on x and 0.7961 with it on z, so this needs the second
        (rec,) = d3_family_scan([0.3], 1e-4, refine_bob=True).records
        assert rec.detected <= 0.80

    def test_grid_validation(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a solve ran before the whole grid was checked")

        monkeypatch.setattr(scenarios, "_pipeline_threshold", no_solve)
        for grid in ([0.7], [0.1, 0.7]):
            with pytest.raises(ValueError, match=r"family parameter must lie in \[0, 0\.5\], got 0\.7"):
                d3_family_scan(grid)

    @pytest.mark.parametrize("t", ["0.1", None, 0.1 + 0j, [0.1]])
    def test_grid_entry_that_is_no_real_number_rejected(self, t, monkeypatch):
        # float() used to parse "0.1" and raise TypeError on the others
        monkeypatch.setattr(scenarios, "_pipeline_threshold", lambda *args: pytest.fail("a solve ran"))
        with pytest.raises(ValueError, match=re.escape(f"family parameter must be a real number, got {t!r}")):
            d3_family_scan([0.2, t])


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
        scalar steering_lhs call per evaluation; the first strict maximum wins.
        Each model is its row of its dimension's stack, sliced to its own
        hidden states and rebuilt through the public checks."""
        master = np.random.default_rng(seed)
        max_violation, worst, n_evals = -math.inf, {}, 0
        dims = scenarios.LHS_DIMS
        per_dim = [n_models // len(dims)] * len(dims)
        per_dim[0] += n_models - sum(per_dim)
        for d, count in zip(dims, per_dim):
            if not count:  # no model, no stack: the suite draws no seed for it
                continue
            pairs = scenarios._bob_pairs(d)
            stack_seed = int(master.integers(0, 2**63 - 1))
            n_lambdas = [scenarios.LHS_N_LAMBDAS[i % len(scenarios.LHS_N_LAMBDAS)] for i in range(count)]
            stack = steering.sample_lhs_model(stack_seed, d, n_lambdas)
            for index, n_lambda in enumerate(n_lambdas):
                model = steering.LhsModel(
                    stack.weights[index, :n_lambda],
                    qobj.DensityMatrix(stack.hidden_states.matrix[index, :n_lambda]),
                    {label: r[index, :n_lambda] for label, r in stack.responses.items()},
                )
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
                                "stack_seed": stack_seed,
                                "stack_size": count,
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

    def test_one_sample_and_statistics_call_per_hidden_variable_count(self, monkeypatch):
        # each dimension's models form one ragged stack, and its tables two checked
        # stacks: one steering_lhs call an order; the sampled stacks are stored
        # unchecked, and only the 6 Bob bases (2 in d = 2, 4 in d = 3) are validated; the tilted qubit is not
        calls = Counter()
        for name in ("sample_lhs_model", "lhs_statistics", "steering_lhs"):
            def counted(*args, _name=name, _fn=getattr(steering, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(steering, name, counted)
        for cls in (JointDistribution, qobj.DensityMatrix, Povm):
            def counted_init(self, arg, _name=cls.__name__, _init=cls.__init__):
                calls[_name] += 1
                _init(self, arg)

            monkeypatch.setattr(cls, "__init__", counted_init)
        want = {"sample_lhs_model": 2, "lhs_statistics": 4, "steering_lhs": 10, "JointDistribution": 4, "Povm": 6}
        lhs_falsification_suite(seed=5, n_models=40)  # 20 models a dimension, 4 counts, 2 Bob pairs
        assert calls == want and calls["DensityMatrix"] == 0
        calls.clear()
        lhs_falsification_suite(seed=5, n_models=3)  # 2 models in d = 2, 1 in d = 3
        assert calls == want and calls["DensityMatrix"] == 0

    def test_dims_lists_only_dimensions_with_models(self):
        assert lhs_falsification_suite(seed=1, n_models=1).dims == (2,)
        assert lhs_falsification_suite(seed=1, n_models=2).dims == (2, 3)
