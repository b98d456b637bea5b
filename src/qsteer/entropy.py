"""Classical Renyi, Shannon, and Tsallis entropies, plain and conditional.

Renyi and Shannon quantities are in bits.  Tsallis quantities follow the
natural-log convention of the deformed logarithm ``ln_q``.  Conditional
entropies use the Arimoto form, built from the alpha-norm of the
conditional distribution for each value of the conditioning variable:

    H_a(X|Y) = a/(1-a) * log2( sum_y p(y) * ||p(.|y)||_a )

The conditioning variable is always the *second* axis of a joint table.
An unconditional entropy is the conditional one of a one-column table.
Orders 0, 1/2, 1 and infinity dispatch to closed forms; everything else
goes through a numerically careful generic evaluator (expm1/log1p near
order one, max-factoring for large orders and for tiny ones).  Every
evaluator is column-vectorised: it reduces the matrix of conditionals p(x|y)
at once, with no Python loop over y.  A stack of tables, shape
(..., n_x, n_y), gives one value per table; a single table gives a float.

Every input rule lives here too: ``check_numeric``, ``check_probabilities``
and the scalar rules ``check_visibility``, ``check_int``, ``check_tolerance``
and the orders' (``dual_order`` and those of the Renyi and Tsallis entropies),
each the one real-number test ``_as_real`` (``_as_order`` for an order, which
must also fit a float), its own range and its own message.  So do the
numerical tolerances, plain constants that the other modules' rules read too.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Orders within this window of 1 are routed to the Shannon closed form.
ALPHA_ONE_WINDOW = 1e-9

# Hermiticity, unit trace, effect positivity and POVM completeness.
STRUCTURAL = 1e-10
# Negativity of a probability clamped to zero, the scale of Born-rule rounding noise.
PROB_NEGATIVITY = 1e-12
# Deviation of a probability table's total from one.
PROB_SUM = 1e-10
# Slack on a Bloch vector's length in ``qubit_exact_threshold``.
PROJECTIVE = 1e-9
# Slack on analytic inequality boundaries, so that exact equality points hold.
BOUNDARY = 1e-12
# Rounding that may leave a detected threshold below its exact boundary, or LHS statistics above q.
SUFFICIENCY = 1e-9

_LN2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)  # the largest x whose expm1(x) is finite


def check_probabilities(arr: np.ndarray, noun: str, axis) -> np.ndarray:
    """The probability rule, for a nonempty float array of the caller's shape:
    a ValueError naming ``noun`` and the value on an entry below
    ``-PROB_NEGATIVITY`` or NaN, or on a sum over ``axis`` more than
    ``PROB_SUM`` from one; smaller negativity (Born-rule noise) is clamped to
    zero in place, in the caller's own new array.  Returns ``arr``, read-only."""
    if not arr.min() >= -PROB_NEGATIVITY:  # also rejects NaN
        raise ValueError(f"{noun} has negative or NaN entry {arr.min():.3e}")
    np.maximum(arr, 0.0, out=arr)
    totals = arr.sum(axis=axis)
    off = np.abs(totals - 1.0)
    if not off.max() <= PROB_SUM:
        raise ValueError(f"{noun} sums to {float(totals.flat[off.argmax()])!r}, not 1")
    arr.setflags(write=False)
    return arr


def _as_real(value) -> tuple:
    """The one real-number test of every scalar rule: (True, the plain Python
    number) for a Python int of any size or float, or a numpy scalar of dtype kind
    b, i, u or f (an int64 kept exact); else (False, ``value``).  The dtype is read
    before converting, so strings, None, complex numbers and arrays never pass."""
    if type(value) is float or type(value) is int:
        return True, value
    if isinstance(value, np.generic):
        kind = value.dtype.kind
        if kind in "biuf":
            return True, float(value) if kind == "f" else int(value)
        return False, value
    return isinstance(value, (int, float)), value  # a bool, or a subclass


def _as_order(value) -> tuple:
    """``_as_real`` for the order rules, which compute in floats: an int beyond
    float range does not pass, so it meets the rule's message, not ``OverflowError``."""
    if type(value) is float:  # the fast path of every solver margin
        return True, value
    real, v = _as_real(value)
    return real and (type(v) is float or abs(v) <= sys.float_info.max), v


def check_numeric(value, name: str, noun: str, real: bool = False) -> np.ndarray:
    """The numeric-input rule: ``value`` as a new complex array (float when
    ``real``), or a ValueError naming ``name`` and the value unless every entry is
    a number, a real one when ``real``, and, for the ``noun`` "number", unless
    ``_as_real`` passes it.  The dtype is read before converting, so strings, None
    and objects are never parsed; a ragged list gets numpy's error."""
    a = np.asarray(value) if noun != "number" or _as_real(value)[0] else None
    if a is None or a.dtype.kind not in ("biuf" if real else "biufc"):
        kind = "real" if real else "numeric"
        raise ValueError(f"{name} must be a {kind} {noun}, got {value!r}")
    return a.astype(float if real else complex)


def check_visibility(v, name: str) -> float:
    """The visibility rule: ``v`` as a float, or a ValueError naming ``name`` and
    the value unless it is one real number in [0, 1] (NaN is not)."""
    real, v = _as_real(v)
    if not (real and 0.0 <= v <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
    return float(v)


def check_int(value, least: int, name: str) -> int:
    """The integer rule for every dimension, count and seed: ``value`` as an int,
    or a ValueError naming ``name`` and the value unless it is one real number,
    an integer (3.0 included) of at least ``least``."""
    real, v = _as_real(value)
    if not (real and v >= least and (isinstance(v, int) or v.is_integer())):
        raise ValueError(f"{name} must be an integer of at least {least}, got {v!r}")
    return int(v)


def check_tolerance(tol) -> float:
    """The tolerance rule for every threshold solve: ``tol`` as a float, or a
    ValueError naming the value unless it is one real number in (0, 1) (NaN is not)."""
    real, tol = _as_real(tol)
    if not (real and 0.0 < tol < 1.0):
        raise ValueError(f"tolerance must lie in (0, 1), got {tol!r}")
    return float(tol)


def as_distribution(probs) -> np.ndarray:
    """``probs`` as a read-only 1-d array, checked and clamped by ``check_probabilities``."""
    p = check_numeric(probs, "distribution", "vector", real=True)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("a distribution must be a nonempty 1-d vector")
    return check_probabilities(p, "distribution", -1)


class JointDistribution:
    """Joint probability table p(x, y), or a (..., n_x, n_y) stack of tables.

    Entries may carry tiny negative noise from Born-rule arithmetic;
    ``check_probabilities`` clamps it, rejects larger negativity and checks
    that each table sums to one.  Conditioning acts on the second axis.  The
    array is stored read-only and checked once: a convex mixture of checked
    tables (``mixture``) is nonnegative with unit sums.
    """

    __slots__ = ("table",)

    def __init__(self, table):
        arr = check_numeric(table, "joint table", "table", real=True)
        if arr.ndim < 2 or arr.size == 0:
            raise ValueError("a joint distribution must be a nonempty 2-d table or stack")
        self.table = check_probabilities(arr, "joint table", (-2, -1))

    @classmethod
    def _valid(cls, table: np.ndarray) -> "JointDistribution":
        """``table``, valid by how it was made, stored read-only unchecked."""
        joint = object.__new__(cls)
        joint.table = table
        table.setflags(write=False)
        return joint

    @classmethod
    def mixture(cls, one: "JointDistribution", zero: "JointDistribution", w: float) -> "JointDistribution":
        """``w * one + (1 - w) * zero`` for one weight ``w``."""
        if one.table.shape != zero.table.shape:
            raise ValueError(f"cannot mix tables of shapes {one.table.shape} and {zero.table.shape}")
        w = check_visibility(w, "mixture weight")
        return cls._valid(w * one.table + (1.0 - w) * zero.table)

    def __repr__(self) -> str:
        return f"JointDistribution(shape={self.table.shape})"


def _as_table(joint) -> np.ndarray:
    if isinstance(joint, JointDistribution):
        return joint.table
    return JointDistribution(joint).table


def dual_order(alpha: float) -> float:
    """Dual Renyi order b with 1/a + 1/b = 2; defined for one real a >= 1/2."""
    real, alpha = _as_order(alpha)
    if not (real and alpha >= 0.5):
        raise ValueError(f"no dual order for alpha={alpha!r} < 1/2")
    if alpha == 0.5:
        return math.inf
    if math.isinf(alpha):
        return 0.5
    return alpha / (2.0 * alpha - 1.0)


def _check_order(alpha) -> float:
    real, alpha = _as_order(alpha)
    if not (real and alpha >= 0.0):
        raise ValueError(f"Renyi order must be >= 0, got {alpha!r}")
    return float(alpha)


def _value(x):
    """A float for one table, the array of values for a stack; adding 0.0
    turns the -0.0 that a zero entropy can round to, such as -log2(1), into 0.0."""
    x = x + 0.0
    return float(x) if x.ndim == 0 else x


def _conditionals(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column weights p(y) and conditionals p(x|y), one column each; a
    zero-weight column keeps weight 0 and conditionals 0."""
    p_y = table.sum(axis=-2)
    return p_y, table / np.where(p_y > 0.0, p_y, 1.0)[..., None, :]


def _weighted_sum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_y w_y v_y for each table: ``w @ v`` for one, and for a stack a batched
    product of rows and columns that rounds like that 1-d dot product."""
    return w @ v if w.ndim == 1 else (w[..., None, :] @ v[..., :, None])[..., 0, 0]


def _power_excess(c: np.ndarray, k: float) -> np.ndarray:
    """Per column sum_x c^(1+k) - sum_x c, without cancellation for small k."""
    log_c = np.log(np.where(c > 0.0, c, 1.0))  # zero entries carry no weight
    return (c * np.expm1(k * log_c)).sum(axis=-2)


def _conditional_shannon(table: np.ndarray):
    w, c = _conditionals(table)
    return _value(_weighted_sum(w, -(c * np.log2(np.where(c > 0.0, c, 1.0))).sum(axis=-2)))


def _conditional_min_entropy(table: np.ndarray):
    # sum_y p(y) max_x p(x|y) telescopes to a column-max sum.
    return _value(-np.log2(table.max(axis=-2).sum(axis=-1)))


def _conditional_max_entropy(table: np.ndarray):
    # sum_y p(y) (sum_x sqrt p(x|y))^2 telescopes likewise.
    return _value(np.log2((np.sqrt(table).sum(axis=-2) ** 2).sum(axis=-1)))


def _conditional_renyi_generic(table: np.ndarray, alpha: float):
    """Arimoto form evaluated directly; valid for alpha > 0, finite, != 1."""
    w, c = _conditionals(table)
    if alpha < 2.0:
        # Track sums relative to 1 so that alpha near 1 stays well conditioned.
        log_sum = np.log1p(_power_excess(c, alpha - 1.0))  # alpha times the log-norm
        shift = 0.0
        if (1.0 - alpha) * math.log(c.shape[-2]) >= 700.0 * alpha:  # log-norm <= (1/a - 1) ln n_x
            # A tiny order: factor out each table's largest log-norm where expm1 would overflow.
            # At a subnormal order a quotient may overflow, to the infinity that is its limit.
            top = log_sum.max(axis=-1, keepdims=True)
            with np.errstate(over="ignore"):
                shift = np.where(top / alpha > _LOG_MAX, top, 0.0)
                norms = (log_sum - shift) / alpha
            shift = shift[..., 0]
        else:
            norms = log_sum / alpha
        excess = _weighted_sum(w, np.expm1(norms))
        return _value((alpha / (1.0 - alpha) * np.log1p(excess) + shift / (1.0 - alpha)) / _LN2)
    m = c.max(axis=-2)
    s = ((c / np.where(m > 0.0, m, 1.0)[..., None, :]) ** alpha).sum(axis=-2)
    return _value(alpha / (1.0 - alpha) * np.log2(_weighted_sum(w, m * s ** (1.0 / alpha))))


def dispatch_deviations(joint) -> tuple[float, float]:
    """Probe of the order dispatch, not exported: the generic evaluator's
    largest deviation from the Shannon closed form at orders 1 +- 1e-10, and
    its deviation from the min-entropy at order 1e12, the two closed forms it
    tends to in those limits."""
    table = _as_table(joint)
    shannon = _conditional_shannon(table)
    near_one = [_conditional_renyi_generic(table, 1.0 + eps) - shannon for eps in (1e-10, -1e-10)]
    large = _conditional_renyi_generic(table, 1e12) - _conditional_min_entropy(table)
    return float(np.abs(near_one).max()), abs(large)


def conditional_renyi(joint, alpha: float):
    """Arimoto conditional Renyi entropy H_a(X|Y) in bits.

    ``joint`` is a :class:`JointDistribution` (or table) over (X, Y); the
    conditioning variable Y is the last axis.  Columns with zero marginal
    weight contribute nothing; a stack of tables gives one value per table.
    """
    alpha = _check_order(alpha)
    table = _as_table(joint)
    if alpha == 0.0:
        return _value(np.log2(np.count_nonzero(table > 0.0, axis=-2).max(axis=-1)))
    if math.isinf(alpha):
        return _conditional_min_entropy(table)
    if abs(alpha - 1.0) < ALPHA_ONE_WINDOW:
        return _conditional_shannon(table)
    if alpha == 0.5:
        return _conditional_max_entropy(table)
    return _conditional_renyi_generic(table, alpha)


def renyi_entropy(probs, alpha: float) -> float:
    """Renyi entropy of order ``alpha`` in bits.

    Order 1 is the Shannon limit, order infinity the min-entropy
    ``-log2 max p``, order 0 the logarithm of the support size.
    """
    return conditional_renyi(as_distribution(probs)[:, None], alpha)


def _check_tsallis_order(q) -> float:
    real, q = _as_order(q)
    if not (real and q > 0.0):
        raise ValueError(f"Tsallis order must be positive, got {q!r}")
    if q == 1.0:
        raise ValueError("Tsallis order q=1 is excluded; use a Shannon entropy")
    return float(q)


def tsallis_entropy(probs, q: float) -> float:
    """Tsallis q-entropy in nats: -sum_x p(x)^q ln_q p(x)."""
    return conditional_tsallis(as_distribution(probs)[:, None], q)


def conditional_tsallis(joint, q: float):
    """Conditional Tsallis entropy sum_y p(y)^q S_q(X|Y=y), in nats."""
    q = _check_tsallis_order(q)
    table = _as_table(joint)
    w, c = _conditionals(table)
    # (sum_x c^q - 1)/(1-q) without cancellation near q=1.
    return _value(_weighted_sum(w**q, _power_excess(c, q - 1.0)) / (1.0 - q))
