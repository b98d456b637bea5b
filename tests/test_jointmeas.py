import math
import re

import numpy as np
import pytest

from qsteer.jointmeas import (
    ThresholdRecord,
    bisect_threshold,
    exact_eta_of_chi,
    mub_jm_holds,
    mub_jm_threshold_symmetric,
    qubit_exact_threshold,
    renyi_mub_threshold_symmetric,
)
from qsteer.qobj import depolarize, joint_distribution, mub_pair
from qsteer.scenarios import mub_eta_scan, qubit_angle_scan
from qsteer.steering import evaluate, overlap_bound

SQRT2_INV = 1.0 / math.sqrt(2.0)


# The min/max-entropy criterion for noisy MUBs and for the symmetric qubit
# geometry in closed form: the analytic oracle of the pipeline, which computes
# the same thresholds from Born tables.


def renyi_mub_margin(d, va, vx):
    """Above 0 exactly where the criterion detects steering, with 1e-12 of
    slack; ``va`` on the min-entropy setting, ``vx`` on the max-entropy one."""
    numer = (math.sqrt(vx + (1.0 - vx) / d) + (d - 1) * math.sqrt((1.0 - vx) / d)) ** 2
    return 1.0 - 1e-12 - numer / (1.0 + (d - 1) * va)


def renyi_mub_holds(d, va, vx):
    """No-steering condition of the criterion."""
    return renyi_mub_margin(d, va, vx) <= 0.0


def renyi_eta_of_chi(d, vx, tol):
    """Boundary va of the criterion given vx, by the package's root-finder."""
    return bisect_threshold(lambda va: renyi_mub_margin(d, va, vx), tol)


def qubit_renyi_threshold(theta):
    """Detected visibility threshold 1/(sqrt(2) cos(theta)), theta in [0, pi/4]."""
    return min(1.0, 1.0 / (math.sqrt(2.0) * math.cos(theta)))


def jm_margin(d, va, vx):
    """The condition of ``mub_jm_holds`` as a margin without slack."""
    if d == 2:
        return va * va + vx * vx - 1.0
    return ((d - 1) * (va + vx) - math.sqrt(max(d - (d - 1) * (va - vx) ** 2, 0.0))) / (d - 2) - 1.0


def pipeline_violation(d, va, vx):
    """The criterion's violation on the Born tables of noisy MUBs, the
    Fourier basis (max-entropy) at ``vx`` and the computational one at ``va``."""
    comp, four = mub_pair(d)
    jx = joint_distribution(depolarize(four, vx), four)
    jz = joint_distribution(depolarize(comp, va), comp)
    return evaluate(jx, jz, overlap_bound(four, comp), 0.5).violation


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

    @pytest.mark.parametrize("tol", [math.nan, "x", None, np.complex128(0.5 + 1j), np.array([0.5]), np.array([0.5, 0.6])])
    def test_tolerance_that_is_no_number_rejected(self, tol):
        # "x" and None used to escape as TypeError from the comparison, 0.5+1j
        # passed as 0.5 with only a ComplexWarning
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

    def test_boolean_predicate_is_plain_bisection(self):
        # False and True read as margins 0 and 1: the midpoint guard takes every step
        def plain(pred, tol):
            a, b, calls = 0.0, 1.0, [1.0, 0.0]
            while b - a > tol and a < 0.5 * (a + b) < b:
                calls.append(0.5 * (a + b))
                a, b = (a, calls[-1]) if pred(calls[-1]) else (calls[-1], b)
            return b, calls

        switches = np.random.default_rng(12).uniform(size=20).tolist() + [0.625, 0.7]
        for s in switches:
            for pred in (lambda v: v >= s, lambda v: np.bool_(v > s)):
                for tol in (1e-6, 1e-20, 0.9):
                    calls = []
                    solution = bisect_threshold(lambda v: calls.append(v) or pred(v), tol)
                    assert not solution.saturated
                    assert (solution.value, calls) == plain(pred, tol)

    @pytest.mark.parametrize("levels", [*range(1, 7), 16])
    def test_levels_return_the_one_level_solution(self, levels):
        # a margin of 0 below the switch and any positive level above it is
        # bisected like the boolean (level 1): the midpoint guard reads only
        # that margin(a) is 0, never how high margin(b) is
        switches = np.random.default_rng(12).uniform(size=20).tolist()
        cases = [(lambda v, s=s: v >= s, 1e-6) for s in switches]
        cases += [
            (lambda v: v >= 0.625, 1e-6),  # d = 9's dyadic boundary 5/8
            (lambda v: v > 0.625, 1e-6),
            (lambda v: False, 1e-6),  # saturates at 1
            (lambda v: True, 1e-6),  # saturates at 0
            (lambda v: v >= 0.3, 0.9),
            (lambda v: v >= 0.7, 1e-20),  # ends become adjacent doubles
        ]
        for pred, tol in cases:
            level_calls, one_calls = [], []
            at_level = bisect_threshold(lambda v: level_calls.append(v) or levels * pred(v), tol)
            one_level = bisect_threshold(lambda v: one_calls.append(v) or pred(v), tol)
            assert (at_level, level_calls) == (one_level, one_calls)

    def test_integral_float_levels_solve_like_the_int(self):
        # an integer-valued margin takes the same Anderson-Bjorck steps whether it
        # returns int or float: no step truncates or divides as integers
        def staircase(v):
            return math.ceil(16 * (v - 0.3))

        for margin in (staircase, lambda v: 2 * (v >= 0.3)):
            int_calls, float_calls = [], []
            as_int = bisect_threshold(lambda v: int_calls.append(v) or margin(v), 1e-6)
            as_float = bisect_threshold(lambda v: float_calls.append(v) or float(margin(v)), 1e-6)
            assert (as_int, int_calls) == (as_float, float_calls)
            assert 0.3 <= as_int.value <= 0.3 + 1e-6 and not as_int.saturated

    def test_nan_margin_at_one_is_an_error(self):
        # a NaN used to read as "not detected" and saturate the solve at 1
        with pytest.raises(ValueError, match=re.escape("margin is NaN at v=1.0")):
            bisect_threshold(lambda v: math.nan, 1e-6)

    def test_nan_margin_mid_solve_is_an_error(self):
        calls = []

        def margin(v):
            calls.append(v)
            return math.nan if 0.25 < v < 0.35 else v - 0.3

        with pytest.raises(ValueError, match="margin is NaN at v=") as caught:
            bisect_threshold(margin, 1e-6)
        assert calls[:2] == [1.0, 0.0] and len(calls) == 3
        assert str(caught.value) == f"margin is NaN at v={calls[-1]!r}"

    @pytest.mark.parametrize("name, margin, n_calls", [
        ("sign only", lambda v: 1.0 if v >= 0.3 else -1.0, 25),
        ("slopes 1 and 1e6", lambda v: v - 0.3 if v < 0.3 else 1e6 * (v - 0.3), 9),
        ("cube", lambda v: (v - 0.3) ** 3, 49),
    ])
    def test_margins_without_a_useful_slope_end(self, name, margin, n_calls):
        calls = []

        def counted(v):
            calls.append(v)
            if len(calls) > 200:
                raise RuntimeError("the root-finder does not end")
            return margin(v)

        solution = bisect_threshold(counted, 1e-6)
        assert 0.3 <= solution.value <= 0.3 + 1e-6 and not solution.saturated
        assert len(calls) == n_calls

    def test_smooth_margin_ends_within_rounding(self):
        # the last step closes the bracket once the estimate is within tol/2
        calls = []

        def margin(v):
            calls.append(v)
            return math.exp(v) - math.exp(0.37)

        solution = bisect_threshold(margin, 1e-13)
        assert 0.37 <= solution.value <= 0.37 + 1e-13
        assert len(calls) <= 12

    def test_margin_that_rounds_to_zero_costs_one_more_point(self):
        # a margin of exactly 0 at a regula falsi point is the root to rounding:
        # the next point is a + tol/2, not the midpoint of what is left
        calls = []

        def margin(v):
            calls.append(v)
            return 0.0 if len(calls) == 3 else v - calls[2] if len(calls) > 3 else v - 0.4

        solution = bisect_threshold(margin, 1e-9)
        assert calls[2] == pytest.approx(0.4) and len(calls) == 4
        assert solution.value == calls[3] == calls[2] + 0.5e-9

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
        for call in (lambda: mub_jm_holds(3, 0.5, value), lambda: exact_eta_of_chi(3, value)):
            with pytest.raises(ValueError, match=re.escape(f"vx must lie in [0, 1], got {value!r}")):
                call()


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
    """The oracle's condition at known points, and the pipeline's violation with it."""

    def test_violation_example_d2(self):
        # visibility 0.8 on both sides gives ratio 1.6/1.8 < 1
        assert not renyi_mub_holds(2, 0.8, 0.8)
        assert pipeline_violation(2, 0.8, 0.8) > 0.0

    def test_equality_at_threshold(self):
        numer = (math.sqrt(SQRT2_INV + (1 - SQRT2_INV) / 2)
                 + math.sqrt((1 - SQRT2_INV) / 2)) ** 2
        assert abs(numer / (1 + SQRT2_INV) - 1.0) < 1e-12
        assert renyi_mub_holds(2, SQRT2_INV, SQRT2_INV)
        assert abs(pipeline_violation(2, SQRT2_INV, SQRT2_INV)) < 1e-12

    def test_perfect_correlations_always_steer(self):
        for d in (2, 3, 7):
            assert not renyi_mub_holds(d, 1.0, 1.0)
            assert pipeline_violation(d, 1.0, 1.0) > 0.0


class TestEtaOfChi:
    """The closed-form exact boundary, and the pipeline's curve from
    ``mub_eta_scan`` against it and against the entropic oracle."""

    @pytest.mark.parametrize("d", [*range(2, 11), 30, 50])
    def test_closed_form_is_the_slack_free_root(self, d):
        for chi in np.linspace(0.0, 1.0, 41)[:-1].tolist():
            root = bisect_threshold(lambda va: jm_margin(d, va, chi), 1e-13).value
            assert abs(exact_eta_of_chi(d, chi) - root) <= 1e-12, chi

    def test_closed_form_ends(self):
        for d in (2, 3, 10, 50, 400):
            assert exact_eta_of_chi(d, 0.0) == 1.0
            assert exact_eta_of_chi(d, 1.0) == 0.0

    def test_closed_form_is_a_circle_at_d2(self):
        for chi in np.linspace(0.0, 1.0, 201).tolist():
            assert abs(exact_eta_of_chi(2, chi) - math.sqrt(1.0 - chi * chi)) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 5, 10, 50])
    def test_joint_measurability_switches_on_the_closed_form(self, d):
        # chi = 1 included: the slack sits on va, not on the algebraic
        # condition, which is quadratic in va there and admitted va up to 1e-6
        for chi in np.linspace(0.0, 1.0, 21).tolist():
            eta = exact_eta_of_chi(d, chi)
            assert mub_jm_holds(d, eta, chi) and mub_jm_holds(d, chi, eta)
            assert eta == 1.0 or not mub_jm_holds(d, eta + 1e-9, chi)  # no visibility above 1

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 10, 50, 400])
    def test_joint_measurability_is_the_algebraic_condition(self, d):
        # the closed-form boundary agrees with the condition itself on random pairs
        rng = np.random.default_rng(d)
        for va, vx in rng.uniform(0.0, 1.0, size=(2000, 2)).tolist():
            assert mub_jm_holds(d, va, vx) == (jm_margin(d, va, vx) <= 1e-12), (va, vx)

    def test_symmetric_point_fixed(self):
        for d in (2, 4):
            v = mub_jm_threshold_symmetric(d)
            assert exact_eta_of_chi(d, v) == pytest.approx(v, abs=1e-12)
            assert renyi_eta_of_chi(d, v, tol=1e-9).value == pytest.approx(v, abs=1e-7)

    def test_matches_exact_curve(self):
        # the oracle's curve, and the pipeline's through it
        scan = mub_eta_scan(4, 11, 1e-13)
        for rec in scan.records:
            oracle = renyi_eta_of_chi(4, rec.parameter, tol=1e-13).value
            assert rec.exact == exact_eta_of_chi(4, rec.parameter)
            assert abs(rec.detected - rec.exact) <= 1e-12
            if rec.parameter <= 0.95:  # the oracle's slack moves a quadratic root near chi = 1
                assert abs(oracle - rec.exact) <= 1e-10

    def test_full_noise_partner_saturates(self):
        (rec, *_) = mub_eta_scan(3, 3, 1e-9).records
        assert rec.parameter == 0.0 and rec.detected == 1.0 and rec.saturated
        assert renyi_eta_of_chi(3, 0.0, tol=1e-9) == (1.0, True)

    def test_sharp_partner_gives_zero(self):
        *_, rec = mub_eta_scan(3, 3, 1e-9).records
        assert rec.parameter == 1.0 and rec.exact == 0.0
        assert rec.detected == pytest.approx(0.0, abs=1e-8)

    def test_reports_detecting_end(self):
        # the returned va is the first one the pipeline flags, never a silent one
        for rec in mub_eta_scan(4, 11, 1e-9).records[1:-1]:
            assert pipeline_violation(4, rec.detected, rec.parameter) > 0.0
            assert pipeline_violation(4, rec.detected - 1e-9, rec.parameter) <= 0.0

    def test_tightness_gap_matches_pointwise_curves(self):
        # the scan's grid, columns and gaps are those of pointwise evaluations
        chis = np.linspace(0.0, 1.0, 5).tolist()
        scan = mub_eta_scan(3, 5, 1e-8)
        assert [r.parameter for r in scan.records] == chis
        assert [r.exact for r in scan.records] == [exact_eta_of_chi(3, c) for c in chis]
        assert [r.gap for r in scan.records] == [r.detected - r.exact for r in scan.records]
        assert max(abs(r.gap) for r in scan.records) <= 1e-8
        for n in (0, 2.5, math.nan):
            with pytest.raises(ValueError, match=f"grid_points must be an integer of at least 1, got {n!r}"):
                mub_eta_scan(3, n, 1e-8)

    def test_monotone_in_chi(self):
        chis = np.linspace(0.0, 1.0, 9)
        curves = [
            [renyi_eta_of_chi(5, c, tol=1e-9).value for c in chis],
            [exact_eta_of_chi(5, c) for c in chis],
            [r.detected for r in mub_eta_scan(5, 9, 1e-9).records],
        ]
        for values in curves:
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
        # a vector shorter than 1 is an unsharp measurement and taken; a longer one is no measurement
        cases = (((0, 0, 1.1), (1, 0, 0), "z"), ((0, 0, 1), (0.8, 0, 0.8), "x"), ((0, 1), (1, 0), "z"))
        for z, x, name in cases:
            with pytest.raises(ValueError, match=f"{name} must be a real 3-vector of length at most 1"):
                qubit_exact_threshold(z, x)
        assert qubit_exact_threshold((0, 0, 1 + 1e-12), (1, 0, 0)) == pytest.approx(SQRT2_INV, abs=1e-12)

    def test_nan_vector_rejected(self):
        with pytest.raises(ValueError, match="z must be a real 3-vector of length at most 1"):
            qubit_exact_threshold((math.nan, 0, 0), (1, 0, 0))
        with pytest.raises(ValueError, match="x must be a real 3-vector of length at most 1"):
            qubit_exact_threshold((0, 0, 1), (0, math.nan, 0))

    def test_short_pair_equals_capped_formula(self):
        # Busch's formula for unsharp vectors, capped at 1 where it exceeds it;
        # a zero pair is jointly measurable at every visibility
        z, x = np.array([0.0, 0.6, 0.7]), np.array([0.7, -0.2, 0.6])
        busch = 2.0 / (math.sqrt((z + x) @ (z + x)) + math.sqrt((z - x) @ (z - x)))
        assert busch < 1.0 and qubit_exact_threshold(z, x) == busch
        assert qubit_exact_threshold(0.4 * z, 0.4 * x) == 1.0
        assert qubit_exact_threshold((0, 0, 0), (0, 0, 0)) == 1.0
        assert type(qubit_exact_threshold(z, x)) is float

    def test_renyi_threshold_range(self):
        assert qubit_renyi_threshold(0.0) == pytest.approx(SQRT2_INV, abs=1e-15)
        assert qubit_renyi_threshold(math.pi / 4) == pytest.approx(1.0, abs=1e-12)
        (rec,) = qubit_angle_scan([0.0], 1e-13).records
        assert rec.detected == pytest.approx(SQRT2_INV, abs=1e-12)
        with pytest.raises(ValueError, match=re.escape("theta must lie in [0, pi/4), got 1.0")):
            qubit_angle_scan([1.0])


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

    @pytest.mark.parametrize("parameter", [math.nan, math.inf, -math.inf, "3"])
    def test_parameter_must_be_one_finite_real_number(self, parameter):
        # a NaN parameter passed ScanResult's sort check, which compares NaN by identity
        with pytest.raises(ValueError, match="parameter must be a"):
            ThresholdRecord(parameter=parameter, detected=0.5)

    @pytest.mark.parametrize("field, value", [
        *(("detected", v) for v in ("0.5", None, 0.5 + 0j, np.array([0.5]), np.complex128(0.4))),
        *(("exact", v) for v in ("0.5", 0.5 + 0j, np.array([0.5]), np.complex128(0.4))),
    ], ids=str)
    def test_thresholds_must_be_real_numbers(self, field, value):
        # each was a TypeError from the range comparison, or was stored as given
        with pytest.raises(ValueError, match=f"{field} threshold must be a real number, got"):
            ThresholdRecord(parameter=0.0, **{"detected": 0.9, field: value})

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ThresholdRecord(parameter=0.0, detected=1.2)
        with pytest.raises(ValueError, match=r"exact threshold 1\.5 outside \[0, 1\]"):
            ThresholdRecord(parameter=0.0, detected=0.9, exact=1.5)
