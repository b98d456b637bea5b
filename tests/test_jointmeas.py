import math
import re

import numpy as np
import pytest

from qsteer.jointmeas import (
    ThresholdRecord,
    bisect_threshold,
    eta_tightness_gap,
    exact_eta_of_chi,
    mub_jm_holds,
    mub_jm_threshold_symmetric,
    qubit_exact_threshold,
    qubit_renyi_threshold,
    renyi_eta_of_chi,
    renyi_mub_holds,
    renyi_mub_threshold_symmetric,
)

SQRT2_INV = 1.0 / math.sqrt(2.0)


class TestBisect:
    def test_step_predicate(self):
        solution = bisect_threshold(lambda v: v >= 0.3, 1e-6)
        # the True end of the final bracket: at or above the switch, within tol
        assert 0.3 <= solution.value <= 0.3 + 1e-6
        assert not solution.saturated

    def test_constant_predicates_saturate(self):
        assert bisect_threshold(lambda v: False, 1e-6) == (1.0, True)
        assert bisect_threshold(lambda v: True, 1e-6) == (0.0, True)

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            bisect_threshold(lambda v: v >= 0.3, 0.0)

    @pytest.mark.parametrize("tol", [math.nan, "x", None])
    def test_tolerance_that_is_no_number_rejected(self, tol):
        # "x" and None used to escape as TypeError from the comparison
        with pytest.raises(ValueError, match=re.escape(f"tolerance must lie in (0, 1), got {tol!r}")):
            bisect_threshold(lambda v: v >= 0.3, tol)

    @pytest.mark.parametrize("tol", [1.0, 2.0, math.inf])
    def test_tolerance_of_one_or_more_rejected(self, tol):
        # such a tolerance never halves [0, 1] and would return 1.0 unsaturated
        with pytest.raises(ValueError, match="tolerance"):
            bisect_threshold(lambda v: v >= 0.3, tol)

    def test_coarse_tolerance_below_one(self):
        solution = bisect_threshold(lambda v: v >= 0.3, 0.9)
        assert 0.3 <= solution.value <= 0.3 + 0.9
        assert not solution.saturated

    def test_evaluation_budget(self):
        calls = []

        def pred(v):
            calls.append(v)
            return v >= 0.37

        bisect_threshold(pred, 1e-6)
        # bracket endpoints plus one halving per bit of resolution
        assert len(calls) <= math.ceil(math.log2(1e6)) + 2
        assert calls[:2] == [1.0, 0.0]
        assert calls.count(1.0) == calls.count(0.0) == 1

    def test_tolerance_below_float_spacing_ends(self):
        calls = []

        def pred(v):
            calls.append(v)
            if len(calls) > 200:
                raise RuntimeError("bisection does not end")
            return v >= 0.7

        # the bracket ends become adjacent doubles long before it is 1e-20 wide
        assert bisect_threshold(pred, 1e-20) == (0.7, False)
        assert len(calls) == 55

    @pytest.mark.parametrize("levels", [*range(1, 7), 16])
    def test_levels_return_the_one_level_solution(self, levels):
        switches = np.random.default_rng(12).uniform(size=20).tolist()
        cases = [(lambda v, s=s: np.asarray(v) >= s, 1e-6) for s in switches]
        cases += [
            (lambda v: np.asarray(v) >= 0.625, 1e-6),  # d = 9's dyadic boundary 5/8
            (lambda v: np.asarray(v) > 0.625, 1e-6),
            (lambda v: np.zeros(np.shape(v), bool), 1e-6),  # saturates at 1
            (lambda v: np.ones(np.shape(v), bool), 1e-6),  # saturates at 0
            (lambda v: np.asarray(v) >= 0.3, 0.9),
            (lambda v: np.asarray(v) >= 0.7, 1e-20),  # ends become adjacent doubles
        ]
        for pred, tol in cases:
            assert bisect_threshold(pred, tol, levels) == bisect_threshold(pred, tol)

    @pytest.mark.parametrize("levels", [2, 5])
    def test_stacked_calls_follow_the_end_probes(self, levels):
        calls = []

        def pred(v):
            calls.append(v)
            if len(calls) > 200:
                raise RuntimeError("bisection does not end")
            return np.asarray(v) >= 0.7

        assert bisect_threshold(pred, 1e-20, levels) == (0.7, False)
        # v = 1 alone, then the grid of [0, 1] with v = 0 first, then the
        # inner points of each later bracket's grid
        assert type(calls[0]) is float and calls[0] == 1.0
        assert calls[1].tolist() == [j / 2**levels for j in range(2**levels)]
        assert all(np.shape(v) == (2**levels - 1,) for v in calls[2:])
        # the 53 halvings of the one-level walk, levels at a time
        assert len(calls) == 1 + math.ceil(53 / levels)

    @pytest.mark.parametrize("levels", [0, -1, 1.5, "3", None])
    def test_levels_must_be_a_positive_integer(self, levels):
        with pytest.raises(ValueError, match="levels"):
            bisect_threshold(lambda v: np.asarray(v) >= 0.3, 1e-6, levels)

    @pytest.mark.parametrize("levels", [17, 40, 64])
    def test_levels_above_16_rejected(self, levels):
        # a stacked call asks 2^levels points: 40 asked numpy for 8 TiB
        calls = []
        with pytest.raises(ValueError, match=re.escape(f"levels must be at most 16, got {levels}")):
            bisect_threshold(lambda v: calls.append(v) or np.asarray(v) >= 0.3, 1e-6, levels)
        assert calls == []

    def test_integral_float_levels_solve_like_the_int(self):
        # levels follows the one integer rule, which takes 2.0 as 2
        def pred(v):
            return np.asarray(v) >= 0.3

        assert bisect_threshold(pred, 1e-6, 2.0) == bisect_threshold(pred, 1e-6, 2)

    def test_entropic_boundary_d2(self):
        solution = bisect_threshold(lambda v: not renyi_mub_holds(2, v, v), 1e-9)
        assert solution.value == pytest.approx(SQRT2_INV, abs=1e-8)
        assert not renyi_mub_holds(2, solution.value, solution.value)


class TestMubJm:
    def test_d2_boundary(self):
        assert mub_jm_holds(2, SQRT2_INV, SQRT2_INV)
        assert not mub_jm_holds(2, SQRT2_INV + 1e-6, SQRT2_INV)

    def test_d3_symmetric_boundary(self):
        v = (1 + math.sqrt(3)) / 4
        assert mub_jm_holds(3, v, v)
        assert not mub_jm_holds(3, v + 1e-9, v + 1e-9)

    def test_trivial_measurement_always_compatible(self):
        for d in (2, 3, 5, 9):
            assert mub_jm_holds(d, 0.0, 1.0)
            assert mub_jm_holds(d, 0.0, 0.4)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mub_jm_holds(1, 0.5, 0.5)
        with pytest.raises(ValueError):
            mub_jm_holds(3, 1.2, 0.5)

    @pytest.mark.parametrize("value", [None, 1 + 0j, "0.5"])
    def test_visibility_that_is_no_number_rejected(self, value):
        with pytest.raises(ValueError, match=re.escape(f"va must lie in [0, 1], got {value!r}")):
            mub_jm_holds(3, value, 0.5)
        with pytest.raises(ValueError, match=re.escape(f"vx must lie in [0, 1], got {value!r}")):
            renyi_mub_holds(3, 0.5, value)


class TestSymmetricThresholds:
    def test_closed_form_values(self):
        assert mub_jm_threshold_symmetric(2) == pytest.approx(SQRT2_INV, abs=1e-15)
        assert mub_jm_threshold_symmetric(3) == pytest.approx((1 + math.sqrt(3)) / 4, abs=1e-15)

    @pytest.mark.parametrize("d", range(3, 13))
    def test_closed_form_lies_on_boundary(self, d):
        v = mub_jm_threshold_symmetric(d)
        residual = ((d - 1) * 2 * v - math.sqrt(d - 0.0)) / (d - 2) - 1.0
        assert abs(residual) < 1e-12

    def test_bisection_matches_closed_form(self):
        for d in range(2, 11):
            assert renyi_mub_threshold_symmetric(d, tol=1e-9) == pytest.approx(
                mub_jm_threshold_symmetric(d), abs=1e-6
            )

    def test_monotone_decreasing_to_half(self):
        values = [mub_jm_threshold_symmetric(d) for d in (2, 5, 10, 50, 400)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] - 0.5 < 0.03

    def test_large_d_within_limit_bound(self):
        assert abs(renyi_mub_threshold_symmetric(100, tol=1e-9) - 0.5) < 0.06


class TestRenyiCondition:
    def test_violation_example_d2(self):
        # visibility 0.8 on both sides gives ratio 1.6/1.8 < 1
        assert not renyi_mub_holds(2, 0.8, 0.8)

    def test_equality_at_threshold(self):
        numer = (math.sqrt(SQRT2_INV + (1 - SQRT2_INV) / 2)
                 + math.sqrt((1 - SQRT2_INV) / 2)) ** 2
        assert abs(numer / (1 + SQRT2_INV) - 1.0) < 1e-12
        assert renyi_mub_holds(2, SQRT2_INV, SQRT2_INV)

    def test_perfect_correlations_always_steer(self):
        for d in (2, 3, 7):
            assert not renyi_mub_holds(d, 1.0, 1.0)


class TestEtaOfChi:
    def test_symmetric_point_fixed(self):
        for d in (2, 4):
            v = mub_jm_threshold_symmetric(d)
            sol = renyi_eta_of_chi(d, v, tol=1e-9)
            assert sol.value == pytest.approx(v, abs=1e-7)

    def test_matches_exact_curve(self):
        for chi in (0.1, 0.5, 0.9):
            r = renyi_eta_of_chi(4, chi, tol=1e-9)
            e = exact_eta_of_chi(4, chi, tol=1e-9)
            assert r.value == pytest.approx(e.value, abs=2e-8)

    def test_full_noise_partner_saturates(self):
        sol = renyi_eta_of_chi(3, 0.0, tol=1e-9)
        assert sol.value == 1.0
        assert sol.saturated

    def test_sharp_partner_gives_zero(self):
        assert renyi_eta_of_chi(3, 1.0, tol=1e-9).value == pytest.approx(0.0, abs=1e-8)

    def test_reports_detecting_end(self):
        # the returned va is the first one the criterion flags, never a silent one
        for chi in (0.1, 0.5, 0.9):
            sol = renyi_eta_of_chi(4, chi, tol=1e-9)
            assert not renyi_mub_holds(4, sol.value, chi)
            assert renyi_mub_holds(4, sol.value - 1e-9, chi)

    def test_tightness_gap_matches_pointwise_curves(self):
        chis = np.linspace(0.0, 1.0, 5)
        pointwise = max(
            abs(renyi_eta_of_chi(3, c, 1e-8).value - exact_eta_of_chi(3, c, 1e-8).value)
            for c in chis
        )
        assert eta_tightness_gap(3, 5, 1e-8) == pointwise
        assert pointwise <= 2e-6
        for n in (0, 2.5, math.nan):
            with pytest.raises(ValueError, match=f"grid_points must be an integer of at least 1, got {n!r}"):
                eta_tightness_gap(3, n, 1e-8)

    def test_monotone_in_chi(self):
        chis = np.linspace(0.0, 1.0, 9)
        for solver in (renyi_eta_of_chi, exact_eta_of_chi):
            values = [solver(5, c, tol=1e-9).value for c in chis]
            assert all(a >= b - 1e-8 for a, b in zip(values, values[1:]))


class TestQubitThresholds:
    def test_orthogonal_unit_vectors(self):
        assert qubit_exact_threshold((0, 0, 1), (1, 0, 0)) == pytest.approx(
            SQRT2_INV, abs=1e-15
        )

    def test_coincident_vectors(self):
        assert qubit_exact_threshold((0, 0, 1), (0, 0, 1)) == pytest.approx(1.0, abs=1e-15)

    def test_angle_parametrization_equivalence(self):
        for theta in np.linspace(0.0, 0.76, 15):
            gamma = math.pi / 2 - 2 * theta
            z = np.array([0.0, 0.0, 1.0])
            x = np.array([math.sin(gamma), 0.0, math.cos(gamma)])
            closed = math.sqrt(2) / (
                math.sqrt(1 - math.sin(2 * theta)) + math.sqrt(1 + math.sin(2 * theta))
            )
            assert qubit_exact_threshold(z, x) == pytest.approx(closed, abs=1e-12)
            assert qubit_renyi_threshold(theta) == pytest.approx(closed, abs=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            qubit_exact_threshold((0, 0, 0.9), (1, 0, 0))

    def test_nan_vector_rejected(self):
        with pytest.raises(ValueError, match="z must be a unit 3-vector"):
            qubit_exact_threshold((math.nan, 0, 0), (1, 0, 0))
        with pytest.raises(ValueError, match="x must be a unit 3-vector"):
            qubit_exact_threshold((0, 0, 1), (0, math.nan, 0))

    def test_renyi_threshold_range(self):
        assert qubit_renyi_threshold(0.0) == pytest.approx(SQRT2_INV, abs=1e-15)
        assert qubit_renyi_threshold(math.pi / 4) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            qubit_renyi_threshold(1.0)


class TestThresholdRecord:
    def test_gap_computed(self):
        rec = ThresholdRecord(parameter=2.0, detected=0.75, exact=0.70)
        assert rec.gap == pytest.approx(0.05)

    def test_sufficiency_enforced(self):
        with pytest.raises(ValueError):
            ThresholdRecord(parameter=2.0, detected=0.69, exact=0.70)

    def test_gap_is_not_settable(self):
        with pytest.raises(TypeError):
            ThresholdRecord(parameter=0.2, detected=0.9, gap=0.1)

    def test_unknown_exact_allowed(self):
        rec = ThresholdRecord(parameter=0.2, detected=0.9)
        assert rec.exact is None and rec.gap is None

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ThresholdRecord(parameter=0.0, detected=1.2)
        with pytest.raises(ValueError, match=r"exact threshold 1\.5 outside \[0, 1\]"):
            ThresholdRecord(parameter=0.0, detected=0.9, exact=1.5)
