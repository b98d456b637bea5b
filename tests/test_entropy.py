import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsteer import entropy, scenarios
from qsteer.entropy import (
    ALPHA_ONE_WINDOW,
    JointDistribution,
    _conditional_min_entropy,
    _conditional_renyi_generic,
    _conditional_shannon,
    as_distribution,
    conditional_renyi,
    conditional_tsallis,
    dual_order,
    renyi_entropy,
    tsallis_entropy,
)

# frozen from 50-digit evaluation of the defining formulas
H2_COND_ORACLE = 0.55639334852438528749  # [[0.4,0.1],[0.1,0.4]], alpha = 2
H07_COND_ORACLE = 0.79399552418424419284  # same table, alpha = 0.7
TABLE_2X3 = [[0.15, 0.05, 0.30], [0.20, 0.10, 0.20]]
ORACLES_2X3 = {1.5: 0.95284935556083276487, 3.0: 0.91232237770163042176,
               0.6: 0.98064903686795713377}
MIN_ENTROPY_09 = 0.15200309344504998496  # -log2(0.9)
P_532 = [0.5, 0.3, 0.2]
RENYI_532 = {0.7: 1.5146747925518439809, 2.0: 1.3959286763311392019,
             3.0: 1.3219280948873623479}
TSALLIS_532 = {0.5: 1.4040858683833431543, 2.0: 0.62}


KERNEL_ORDERS = (0.0, 0.3, 0.5, 0.7, 1.0 - 5e-10, 1.0, 1.0 + 5e-10, 1.5, 2.0, 7.5, 50.0,
                 1e12, math.inf)
KERNEL_TSALLIS_ORDERS = (0.3, 0.5, 2.0, 7.5)


# Reference evaluators: the per-column loops that the column-vectorised
# kernels replaced, kept as the oracle they are compared against.

def ref_columns(table):
    p_y = table.sum(axis=0)
    return [(p_y[y], table[:, y] / p_y[y]) for y in range(table.shape[1]) if p_y[y] > 0.0]


def ref_renyi_generic(table, alpha):
    if alpha < 2.0:
        excess = 0.0
        for w, c in ref_columns(table):
            c = c[c > 0.0]
            d = float(np.sum(c * np.expm1((alpha - 1.0) * np.log(c))))
            excess += w * math.expm1(math.log1p(d) / alpha)
        return alpha / (1.0 - alpha) * math.log1p(excess) / math.log(2.0)
    total = 0.0
    for w, c in ref_columns(table):
        c = c[c > 0.0]
        m = float(c.max())
        total += w * m * float(np.sum((c / m) ** alpha)) ** (1.0 / alpha)
    return alpha / (1.0 - alpha) * math.log2(total)


def ref_conditional_renyi(table, alpha):
    columns = ref_columns(table)
    if alpha == 0.0:
        return float(np.log2(max(np.count_nonzero(c > 0.0) for _, c in columns)))
    if math.isinf(alpha):
        return -math.log2(sum(w * c.max() for w, c in columns))
    if abs(alpha - 1.0) < ALPHA_ONE_WINDOW:
        return sum(w * float(-np.sum(c[c > 0.0] * np.log2(c[c > 0.0]))) for w, c in columns)
    return ref_renyi_generic(table, alpha)


def ref_conditional_tsallis(table, q):
    total = 0.0
    for w, c in ref_columns(table):
        c = c[c > 0.0]
        total += w**q * -float(np.sum(c * np.expm1((q - 1.0) * np.log(c)))) / (q - 1.0)
    return total


def random_sparse_tables(seed, n):
    """Tables of 2-8 rows and 1-8 columns with zero entries; about half of
    the tables with two or more columns also have a zero-weight column."""
    rng = np.random.default_rng(seed)
    tables = []
    while len(tables) < n:
        t = rng.random((rng.integers(2, 9), rng.integers(1, 9)))
        t[rng.random(t.shape) < 0.3] = 0.0
        if t.shape[1] > 1 and rng.random() < 0.5:
            t[:, rng.integers(t.shape[1])] = 0.0
        if t.sum() > 0.0:
            tables.append(t / t.sum())
    return tables


def padded_stack(tables, size=8):
    """The tables as one (n, size, size) stack, zero-padded; zero rows and
    zero-weight columns leave every conditional entropy unchanged."""
    stack = np.zeros((len(tables), size, size))
    for slot, t in zip(stack, tables):
        slot[: t.shape[0], : t.shape[1]] = t
    return stack


def assert_close(value, reference):
    # 1e-13 relative; the absolute floor only matters for values at zero
    assert math.isclose(value, reference, rel_tol=1e-13, abs_tol=1e-15), (value, reference)


def distributions(max_size=6):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=max_size)
        .map(lambda v: np.array(v) / np.sum(v))
    )


class TestRenyiEntropy:
    def test_uniform_is_log_d_for_every_order(self):
        for d in (2, 3, 5, 8):
            p = np.full(d, 1.0 / d)
            for alpha in (0.0, 0.3, 0.5, 1.0, 2.0, 7.5, math.inf):
                assert renyi_entropy(p, alpha) == pytest.approx(np.log2(d), abs=1e-12)

    def test_min_entropy_oracle(self):
        assert renyi_entropy([0.9, 0.1], math.inf) == pytest.approx(
            MIN_ENTROPY_09, abs=1e-14
        )

    def test_generic_order_oracles(self):
        for alpha, value in RENYI_532.items():
            assert renyi_entropy(P_532, alpha) == pytest.approx(value, abs=1e-14)

    def test_deterministic_distribution_is_zero(self):
        for alpha in (0.0, 0.5, 1.0, 2.0, math.inf):
            assert renyi_entropy([1.0, 0.0, 0.0], alpha) == 0.0

    def test_order_zero_counts_support(self):
        assert renyi_entropy([0.5, 0.5, 0.0], 0.0) == 1.0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            renyi_entropy([0.5, 0.5], -0.1)

    @pytest.mark.parametrize("order", ["2", 2 + 1j, None, np.array([2.0]), np.complex128(2 + 1j)])
    def test_order_that_is_no_real_number_rejected(self, order):
        # "2" used to be parsed as the order 2, the others escaped as TypeError
        # or passed as 2 with only a ComplexWarning
        with pytest.raises(ValueError, match=re.escape(f"Renyi order must be >= 0, got {order!r}")):
            renyi_entropy([0.5, 0.5], order)
        with pytest.raises(ValueError, match=re.escape(f"Tsallis order must be positive, got {order!r}")):
            tsallis_entropy([0.7, 0.3], order)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            renyi_entropy([0.7, 0.7], 1.0)
        with pytest.raises(ValueError):
            renyi_entropy([1.2, -0.2], 1.0)

    @given(p=distributions(), e1=st.floats(-324.0, 300.0), e2=st.floats(-324.0, 300.0))
    @settings(max_examples=200, deadline=None)
    def test_nonincreasing_in_order(self, p, e1, e2):
        # orders log-uniform over [5e-324, 1e300]: below about ln(n)/710 the
        # generic evaluator's expm1 used to overflow to inf, and at subnormal
        # orders its overflow test warned
        lo, hi = (max(10.0**e, 5e-324) for e in sorted((e1, e2)))
        h_lo, h_hi = renyi_entropy(p, lo), renyi_entropy(p, hi)
        assert math.isfinite(h_lo) and math.isfinite(h_hi)
        assert h_lo >= h_hi - 1e-10
        assert renyi_entropy(p, math.inf) - 1e-10 <= h_hi and h_lo <= renyi_entropy(p, 0.0) + 1e-10


class TestConditionalRenyi:
    def test_alpha2_oracle(self):
        assert conditional_renyi([[0.4, 0.1], [0.1, 0.4]], 2.0) == pytest.approx(
            H2_COND_ORACLE, abs=1e-14
        )

    def test_generic_path_oracles(self):
        assert conditional_renyi([[0.4, 0.1], [0.1, 0.4]], 0.7) == pytest.approx(
            H07_COND_ORACLE, abs=1e-14
        )
        for alpha, value in ORACLES_2X3.items():
            assert conditional_renyi(TABLE_2X3, alpha) == pytest.approx(value, abs=1e-13)

    def test_perfect_correlation_min_entropy_is_zero(self):
        assert conditional_renyi([[0.5, 0.0], [0.0, 0.5]], math.inf) == 0.0

    def test_product_of_uniform_bits_max_entropy(self):
        assert conditional_renyi(np.full((2, 2), 0.25), 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_zero_weight_column_skipped(self):
        with_empty = np.array([[0.5, 0.0], [0.5, 0.0]])
        assert conditional_renyi(with_empty, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_dispatch_continuity_near_one(self):
        for table in (np.array([[0.4, 0.1], [0.1, 0.4]]), np.array(TABLE_2X3)):
            shannon = _conditional_shannon(table)
            for eps in (1e-10, -1e-10):
                generic = _conditional_renyi_generic(table, 1.0 + eps)
                assert abs(generic - shannon) <= 1e-10
            # values inside the window route to the closed form
            assert conditional_renyi(table, 1.0 + 1e-12) == shannon

    def test_dispatch_continuity_near_infinity(self):
        table = np.array(TABLE_2X3)
        assert abs(
            _conditional_renyi_generic(table, 1e12) - _conditional_min_entropy(table)
        ) <= 1e-10

    def test_conditioning_reduces_entropy_small(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            cube = rng.dirichlet(np.ones(2 * 3 * 4)).reshape(2, 3, 4)
            for alpha in (0.5, 0.7, 1.0, 2.0, math.inf):
                coarse = conditional_renyi(cube.sum(axis=2), alpha)
                fine = conditional_renyi(cube.reshape(2, 12), alpha)
                assert coarse >= fine - 1e-10

    @given(
        px=distributions(4), py=distributions(4),
        alpha=st.sampled_from([0.5, 0.8, 1.0, 1.7, 3.0, math.inf]),
    )
    @settings(max_examples=150, deadline=None)
    def test_uncorrelated_limit(self, px, py, alpha):
        product = np.outer(px, py)
        assert conditional_renyi(product, alpha) == pytest.approx(
            renyi_entropy(px, alpha), abs=1e-10
        )


class TestKernelsMatchColumnLoops:
    tables = random_sparse_tables(2024, 200)
    stack = padded_stack(tables)

    def test_tables_have_zero_entries_and_zero_weight_columns(self):
        assert sum((t == 0.0).any() for t in self.tables) > 150
        assert sum((t.sum(axis=0) == 0.0).any() for t in self.tables) > 40
        assert {t.shape[1] for t in self.tables} == set(range(1, 9))

    @pytest.mark.parametrize("alpha", KERNEL_ORDERS)
    def test_conditional_renyi(self, alpha):
        for table in self.tables:
            assert_close(conditional_renyi(table, alpha), ref_conditional_renyi(table, alpha))

    @pytest.mark.parametrize(
        "alpha", [a for a in KERNEL_ORDERS if a not in (0.0, 1.0, math.inf)]
    )
    def test_generic_kernel(self, alpha):
        # orders inside the Shannon window reach this kernel only when called directly
        for table in self.tables:
            assert_close(_conditional_renyi_generic(table, alpha), ref_renyi_generic(table, alpha))

    @pytest.mark.parametrize("q", KERNEL_TSALLIS_ORDERS)
    def test_conditional_tsallis(self, q):
        for table in self.tables:
            assert_close(conditional_tsallis(table, q), ref_conditional_tsallis(table, q))

    # the same tables as one stack: one call, one value per table

    @pytest.mark.parametrize("alpha", KERNEL_ORDERS)
    def test_conditional_renyi_on_stack(self, alpha):
        values = conditional_renyi(JointDistribution(self.stack), alpha)
        assert values.shape == (len(self.tables),)
        for value, table in zip(values, self.tables):
            assert_close(value, ref_conditional_renyi(table, alpha))

    @pytest.mark.parametrize(
        "alpha", [a for a in KERNEL_ORDERS if a not in (0.0, 1.0, math.inf)]
    )
    def test_generic_kernel_on_stack(self, alpha):
        values = _conditional_renyi_generic(self.stack, alpha)
        for value, table in zip(values, self.tables):
            assert_close(value, ref_renyi_generic(table, alpha))

    @pytest.mark.parametrize("q", KERNEL_TSALLIS_ORDERS)
    def test_conditional_tsallis_on_stack(self, q):
        values = conditional_tsallis(self.stack, q)
        assert values.shape == (len(self.tables),)
        for value, table in zip(values, self.tables):
            assert_close(value, ref_conditional_tsallis(table, q))

    def test_single_table_gives_a_float(self):
        for alpha in KERNEL_ORDERS:
            assert type(conditional_renyi(self.tables[0], alpha)) is float
        assert type(conditional_tsallis(self.tables[0], 2.0)) is float

    @pytest.mark.parametrize("alpha", [2.0, 7.5, 50.0, 1e12, math.inf])
    def test_zero_column_gives_no_nan_or_warning(self, alpha):
        table = np.array([[0.3, 0.0, 0.2], [0.1, 0.0, 0.4]])
        expected = ref_conditional_renyi(table, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = conditional_renyi(table, alpha)
            stacked = conditional_renyi(np.stack([np.full((2, 3), 1 / 6), table]), alpha)
        assert_close(single, expected)
        assert_close(stacked[1], expected)
        assert_close(stacked[0], 1.0)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 3.0, math.inf])
def test_zero_entropy_is_positive_zero(alpha):
    # -log2(1) rounds to -0.0, which a format such as "{:g}" prints as "-0"
    deterministic = np.array([[0.5, 0.0], [0.0, 0.5]])
    values = [
        renyi_entropy([1.0, 0.0], alpha),
        conditional_renyi(deterministic, alpha),
        *conditional_renyi(np.stack([deterministic] * 2), alpha),
    ]
    assert [math.copysign(1.0, v) for v in values] == [1.0] * 4, values


def test_tolerances_keep_their_values():
    # every input rule and report reads these; moving them must not change one
    tols = (entropy.STRUCTURAL, entropy.PROB_NEGATIVITY, entropy.PROB_SUM,
            entropy.PROJECTIVE, entropy.BOUNDARY, entropy.SUFFICIENCY)
    assert tols == (1e-10, 1e-12, 1e-10, 1e-9, 1e-12, 1e-9)


def test_zero_tsallis_entropy_is_positive_zero():
    deterministic = np.array([[0.5, 0.0], [0.0, 0.5]])
    values = [tsallis_entropy([1.0, 0.0], 2.0), conditional_tsallis(deterministic, 2.0)]
    assert [math.copysign(1.0, v) for v in values] == [1.0] * 2, values


class TestDualOrder:
    def test_fixed_points_and_examples(self):
        assert dual_order(0.5) == math.inf
        assert dual_order(1.0) == 1.0
        assert dual_order(2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert dual_order(math.inf) == 0.5

    @given(alpha=st.floats(0.5, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_involutive(self, alpha):
        assert dual_order(dual_order(alpha)) == pytest.approx(alpha, rel=1e-12)

    def test_below_half_rejected(self):
        with pytest.raises(ValueError, match="no dual order"):
            dual_order(0.49)


ORDER_RULES = {
    "renyi_entropy": (lambda a: renyi_entropy([0.5, 0.5], a), "Renyi order must be >= 0, got {!r}"),
    "tsallis_entropy": (lambda a: tsallis_entropy([0.7, 0.3], a), "Tsallis order must be positive, got {!r}"),
    "dual_order": (dual_order, "no dual order for alpha={!r}: it must be a real number of at least 1/2"),
    "mub_pipeline_threshold": (
        lambda a: scenarios.mub_pipeline_threshold(3, a, 1e-3),
        "no dual order for alpha={!r}: it must be a real number of at least 1/2",
    ),
}


@pytest.mark.parametrize("name", sorted(ORDER_RULES))
@pytest.mark.parametrize("order", [10**400, -(10**400)], ids=["1e400", "-1e400"])
def test_order_beyond_float_range_rejected(name, order):
    # float() used to raise OverflowError past the rule
    call, message = ORDER_RULES[name]
    with pytest.raises(ValueError, match=re.escape(message.format(order))):
        call(order)
    assert call(10**300) == call(1e300)  # an int within float range still counts


class TestTsallis:
    def test_deterministic_is_zero(self):
        assert tsallis_entropy([1.0, 0.0], 2.0) == 0.0

    def test_oracles(self):
        for q, value in TSALLIS_532.items():
            assert tsallis_entropy(P_532, q) == pytest.approx(value, abs=1e-14)

    def test_uniform_q2(self):
        for d in (2, 3, 5):
            assert tsallis_entropy(np.full(d, 1.0 / d), 2.0) == pytest.approx(
                1.0 - 1.0 / d, abs=1e-14
            )

    def test_q_near_one_approaches_shannon_nats(self):
        p = np.array([0.6, 0.3, 0.1])
        shannon_nats = -np.sum(p * np.log(p))
        for q in (1.0 + 1e-6, 1.0 - 1e-6):
            assert abs(tsallis_entropy(p, q) - shannon_nats) < 1e-5

    def test_q_one_rejected(self):
        with pytest.raises(ValueError):
            tsallis_entropy([0.5, 0.5], 1.0)
        with pytest.raises(ValueError):
            tsallis_entropy([0.5, 0.5], -2.0)

    def test_perfectly_correlated_conditional_is_zero(self):
        assert conditional_tsallis([[0.5, 0.0], [0.0, 0.5]], 1.5) == 0.0

    def test_chain_rule_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            joint = rng.dirichlet(np.ones(12)).reshape(3, 4)
            for q in (1.2, 1.5, 2.0):
                lhs = tsallis_entropy(joint.reshape(-1), q)
                rhs = conditional_tsallis(joint, q) + tsallis_entropy(joint.sum(axis=0), q)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_pseudo_additivity_for_independent(self):
        px, py = np.array([0.7, 0.3]), np.array([0.2, 0.5, 0.3])
        for q in (1.3, 2.0, 0.5):
            sx, sy = tsallis_entropy(px, q), tsallis_entropy(py, q)
            joint = tsallis_entropy(np.outer(px, py).reshape(-1), q)
            assert joint == pytest.approx(sx + sy + (1 - q) * sx * sy, abs=1e-12)

    def test_uncorrelated_limit_fails_for_q_not_one(self):
        # the one property that separates Tsallis from the Renyi family
        product = np.full((2, 2), 0.25)
        marginal = tsallis_entropy([0.5, 0.5], 2.0)
        assert marginal - conditional_tsallis(product, 2.0) > 1e-6


class TestJointDistribution:
    def test_clamps_tiny_negativity(self):
        j = JointDistribution([[0.5, -1e-13], [0.25, 0.25]])
        assert j.table.min() == 0.0

    def test_rejects_large_negativity_and_bad_sum(self):
        with pytest.raises(ValueError):
            JointDistribution([[0.5, -1e-6], [0.25, 0.25]])
        with pytest.raises(ValueError):
            JointDistribution([[0.5, 0.5], [0.5, 0.5]])

    def test_both_constructors_reject_nan(self):
        with pytest.raises(ValueError, match="joint table has negative or NaN entry nan"):
            JointDistribution([[math.nan, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError, match="distribution has negative or NaN entry nan"):
            as_distribution([math.nan, 1.0])

    def test_distribution_is_a_read_only_vector(self):
        p = as_distribution([0.5, 0.5 + 1e-13, -1e-13])
        assert p.tolist() == [0.5, 0.5 + 1e-13, 0.0] and not p.flags.writeable
        with pytest.raises(ValueError, match="a distribution must be a nonempty 1-d vector"):
            as_distribution([[0.5, 0.5]])

    def test_each_table_of_a_stack_must_sum_to_one(self):
        # the stack's mean total is one, so a whole-stack check would pass it
        stack = np.stack([np.full((2, 2), 0.275), np.full((2, 2), 0.225)])
        with pytest.raises(ValueError, match=r"joint table sums to (1\.1|0\.9)\d*, not 1"):
            JointDistribution(stack)

    def test_nan_in_one_table_of_a_stack_rejected(self):
        stack = np.full((3, 2, 2), 0.25)
        stack[1, 0, 1] = math.nan
        with pytest.raises(ValueError, match="joint table has negative or NaN entry nan"):
            JointDistribution(stack)

    def test_stack_is_clamped_and_swapped_per_table(self):
        stack = np.array([[[0.5, -1e-13], [0.25, 0.25]], [[0.1, 0.2], [0.3, 0.4]]])
        j = JointDistribution(stack)
        assert j.table.min() == 0.0
        with pytest.raises(ValueError, match="nonempty 2-d table or stack"):
            JointDistribution([0.5, 0.5])

    def test_table_is_readonly(self):
        j = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError):
            j.table[0, 0] = 1.0

    @pytest.mark.parametrize(
        "table, shown",
        [
            ([["0.5", "0"], ["0", "0.5"]], "[['0.5', '0'], ['0', '0.5']]"),
            ([[0.5, 0j], [0, 0.5]], "[[0.5, 0j], [0, 0.5]]"),
            ([[0.5, None], [0.0, 0.5]], "[[0.5, None], [0.0, 0.5]]"),
            (np.eye(2, dtype=object) / 2, "array([[0.5, 0.0],"),
        ],
        ids=["strings", "complex", "none", "objects"],
    )
    def test_entries_that_are_no_real_number_rejected(self, table, shown):
        # strings used to be parsed, a complex entry raised TypeError and None
        # read as "negative or NaN entry nan"
        with pytest.raises(ValueError, match=re.escape(f"joint table must be a real table, got {shown}")):
            JointDistribution(table)

    @pytest.mark.parametrize("probs", [["0.5", "0.5"], [0.5, 0.5 + 0j], [0.5, None]])
    def test_distribution_entries_that_are_no_real_number_rejected(self, probs):
        message = re.escape(f"distribution must be a real vector, got {probs!r}")
        for call in (as_distribution, lambda p: renyi_entropy(p, 1), lambda p: tsallis_entropy(p, 2.0)):
            with pytest.raises(ValueError, match=message):
                call(probs)

    def test_valid_input_gives_the_float_table_bit_for_bit(self):
        rng = np.random.default_rng(9)
        table = rng.dirichlet(np.ones(12)).reshape(3, 4)
        for given in (table, table.tolist(), np.stack([table, table.T.reshape(3, 4)])):
            expected = np.asarray(given, dtype=float)
            assert JointDistribution(given).table.tobytes() == expected.tobytes()
        counts = np.array([[1, 0], [0, 0]])  # integer and boolean tables are numbers
        assert JointDistribution(counts).table.tolist() == [[1.0, 0.0], [0.0, 0.0]]
        assert JointDistribution(counts.astype(bool)).table.tolist() == [[1.0, 0.0], [0.0, 0.0]]
        assert as_distribution(table[0] / table[0].sum()).tobytes() == (table[0] / table[0].sum()).tobytes()


class TestMixture:
    """``JointDistribution.mixture`` builds the checked constructor's tables
    without a second check, and checks what it mixes instead."""

    @pytest.mark.parametrize("d", range(2, 11))
    def test_equals_the_checked_mixture_bit_for_bit(self, d):
        t1, t0, _ = scenarios._mub_tables(d)
        dyadic = np.arange(32) / 32  # v = 0 and d = 9's boundary 5/8
        assert dyadic[0] == 0.0 and 0.625 in dyadic
        for vs in (dyadic, np.random.default_rng(d).uniform(size=31)):
            for one, zero in zip(t1, t0):
                for v in vs.tolist():
                    single = JointDistribution.mixture(one, zero, v).table
                    assert single.tobytes() == JointDistribution(v * one.table + (1.0 - v) * zero.table).table.tobytes()

    def test_result_is_read_only(self):
        one, zero = JointDistribution(np.eye(2) / 2), JointDistribution(np.full((2, 2), 0.25))
        table = JointDistribution.mixture(one, zero, 0.3).table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    @pytest.mark.parametrize("w", [-0.1, 1.5, math.nan])
    def test_weight_outside_unit_interval_rejected(self, w):
        one, zero = JointDistribution(np.eye(2) / 2), JointDistribution(np.full((2, 2), 0.25))
        message = re.escape(f"mixture weight must lie in [0, 1], got {w!r}")
        with pytest.raises(ValueError, match=message):
            JointDistribution.mixture(one, zero, w)

    @pytest.mark.parametrize("w", [np.array([0.0, 0.3, 1.0]), np.array([0.5, 1.5]), np.array([0.5]), np.array(0.5)])
    def test_any_array_of_weights_rejected(self, w):
        # a mixture takes one weight: a stack of them, even a valid one, is an error
        one, zero = JointDistribution(np.eye(2) / 2), JointDistribution(np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match=re.escape(f"mixture weight must lie in [0, 1], got {w!r}")):
            JointDistribution.mixture(one, zero, w)

    @pytest.mark.parametrize("w", [np.array(["0.5", "1"]), np.array([0.5, 1.0], dtype=object)])
    def test_weights_that_are_strings_rejected(self, w):
        # astype(float) used to parse them, so the mixture ran with weights 0.5 and 1
        one, zero = JointDistribution(np.eye(2) / 2), JointDistribution(np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match=re.escape("mixture weight must lie in [0, 1], got array(")):
            JointDistribution.mixture(one, zero, w)

    def test_complex_weights_rejected(self):
        # astype(float) used to drop the imaginary part with only a ComplexWarning
        one, zero = JointDistribution(np.eye(2) / 2), JointDistribution(np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match=re.escape("mixture weight must lie in [0, 1], got array([0.5+0.j")):
            JointDistribution.mixture(one, zero, np.array([0.5, 1.0], dtype=complex))

    def test_tables_of_unequal_shape_rejected(self):
        one, zero = JointDistribution(np.eye(2) / 2), JointDistribution(np.full((2, 3), 1 / 6))
        with pytest.raises(ValueError, match=re.escape("cannot mix tables of shapes (2, 2) and (2, 3)")):
            JointDistribution.mixture(one, zero, 0.5)
