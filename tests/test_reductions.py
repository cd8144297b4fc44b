"""Property checks of the reduction helpers in ``igc.measures``: ``_max``, ``_min`` and ``_all_finite``
agree with numpy's reductions and ``_dot`` with the matmul it replaces, on both sides of the size
cut-off ``_DOT_BLOCK`` and on strided views, and the checks built on them still reject a NaN or an
infinity anywhere in an array, with the same messages.  The centring and sphere-tangent checks, which
decide on the mean or the pairing first, accept and refuse exactly what the rules that took the sup
first did (``oracles``), with the same messages and no numpy warning."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igc.bundle import _SPHERE_TOL, _require_tangent, sphere_point
from igc.measures import (
    _DOT_BLOCK,
    TOL,
    Density,
    InvariantError,
    RandomVariable,
    _all_finite,
    _dot,
    _max,
    _min,
    finite_measure,
    require_centered,
)
from oracles import require_centered_reference, require_tangent_reference

SETTINGS = settings(max_examples=80, deadline=None)
SIZES = st.sampled_from([1, 2, 7, 64, 1000, _DOT_BLOCK - 1, _DOT_BLOCK, _DOT_BLOCK + 1, 2 * _DOT_BLOCK + 3])
SPECIALS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1.7976931348623157e308])
# a view of n entries: contiguous, every second or third entry, or reversed
STRIDES = st.sampled_from([1, 2, 3, -1])


def _view(n: int, stride: int, seed: int, placed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    full = rng.standard_normal(n * abs(stride)) * 10.0 ** rng.integers(-3, 4)
    view = full[::stride]
    for frac, value in placed:
        view[min(int(frac * n), n - 1)] = value
    return view


def _same(x: float, y: float) -> bool:
    return (math.isnan(x) and math.isnan(y)) or x == y


@SETTINGS
@given(
    n=SIZES,
    stride=STRIDES,
    seed=st.integers(0, 2**32 - 1),
    placed=st.lists(st.tuples(st.floats(0.0, 1.0), SPECIALS), max_size=3),
)
def test_max_min_and_all_finite_agree_with_numpy(n, stride, seed, placed):
    a = _view(n, stride, seed, placed)
    assert _same(_max(a), float(a.max())) and _same(_min(a), float(a.min()))
    assert type(_max(a)) is float and type(_min(a)) is float
    assert _all_finite(a) == bool(np.isfinite(a).all())


def _blocked_dot(a: np.ndarray, b: np.ndarray) -> float:
    """The blocked sum of ``_dot`` above _DOT_BLOCK, written out: remainder first, then one BLAS dot per block."""
    k, r = divmod(a.shape[0], _DOT_BLOCK)
    blocks = np.matmul(a[r:].reshape(k, 1, _DOT_BLOCK), b[r:].reshape(k, _DOT_BLOCK, 1))
    return (float(a[:r] @ b[:r]) if r else 0.0) + float(blocks.sum())


@SETTINGS
@given(n=SIZES, stride=STRIDES, seed=st.integers(0, 2**32 - 1))
def test_dot_is_matmul_up_to_the_block_and_blocked_above(n, stride, seed):
    a = _view(n, stride, seed, [])
    b = _view(n, 1, seed + 1, [])
    if stride < 0:
        # BLAS walks a reversed view from its other end, so a.dot(b) and a @ b may round differently
        prods = a * b
        assert abs(_dot(a, b) - math.fsum(prods)) <= 1e-14 * math.fsum(np.abs(prods))
        return
    want = float(a @ b) if n <= _DOT_BLOCK else _blocked_dot(a, b)
    assert _dot(a, b).hex() == want.hex()
    if stride == 1 and n <= _DOT_BLOCK:  # require_centered's mean: np.vdot makes the same BLAS call on these
        assert float(np.vdot(b, a)).hex() == _dot(b, a).hex()


@SETTINGS
@example(n=16, frac=0.5, bad=math.nan)  # a NaN in the middle, below and above the cut-off
@example(n=_DOT_BLOCK + 16, frac=0.5, bad=math.nan)
@given(
    n=st.sampled_from([3, 64, _DOT_BLOCK, _DOT_BLOCK + 1, 3 * _DOT_BLOCK + 5]),
    frac=st.floats(0.0, 1.0),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_a_value_that_is_not_finite_is_rejected_anywhere(n, frac, bad):
    m = finite_measure(np.arange(float(n)))
    p = Density.uniform(m)
    at = min(int(frac * n), n - 1)
    vals = np.zeros(n)
    vals[at] = bad
    with pytest.raises(InvariantError, match="^random variable values must be finite$"):
        RandomVariable(m, vals)
    with pytest.raises(InvariantError, match="^probe: values are not finite$"):
        require_centered(p, vals, "probe")
    dens = p.values.copy()
    dens[at] = bad
    with pytest.raises(InvariantError, match="^density values must be strictly positive and finite$"):
        Density(m, dens)
    with pytest.raises(InvariantError, match="^unnormalized density values must be positive and finite$"):
        Density.from_unnormalized(m, dens)


# where the mean (or pairing) lands, in units of TOL or of TOL * max(1, sup): on either side of each bound
OFFSETS = st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0, -0.999, -1.001])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
SCALES = st.sampled_from([1e-3, 1.0, 1e3])  # the sup below, at and above 1


def _density(n: int, seed: int, zero: int | None) -> Density:
    """A random density on n points, on unit weights; with ``zero``, on random weights with weight 1e-300 and a
    value 1e-30 times the others at that entry, so that prob underflows to 0 there."""
    rng = np.random.default_rng(seed)
    weights, raw = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    if zero is None:
        return Density.from_unnormalized(finite_measure(np.arange(float(n))), raw)
    weights[zero], raw[zero] = 1e-300, 1e-30
    return Density.from_unnormalized(finite_measure(np.arange(float(n)), weights), raw)


def _outcome(rule, *args):
    """True when the rule accepts, its message when it refuses; a numpy warning is an error in this suite."""
    try:
        rule(*args)
    except InvariantError as err:
        return str(err)
    return True


def _probe(n, stride, seed, scale, placed):
    """A view of n values with sup ``scale``, for the caller to move; ``placed`` is put in afterwards."""
    vals = _view(n, stride, seed, [])
    vals *= scale / np.max(np.abs(vals))
    return vals, [(min(int(frac * n), n - 1), value) for frac, value in placed]


@SETTINGS
@example(n=2, stride=1, seed=0, scale=1.0, offset=0.0, relative=False, placed=[(0.0, math.inf), (1.0, -math.inf)],
         zero=None, at_zero=None)  # inf - inf in the mean
@example(n=3, stride=1, seed=0, scale=1.0, offset=0.0, relative=False, placed=[], zero=0.5, at_zero=math.inf)
@given(
    n=SIZES,
    stride=STRIDES,
    seed=st.integers(0, 2**32 - 1),
    scale=SCALES,
    offset=OFFSETS,
    relative=st.booleans(),
    placed=st.lists(st.tuples(st.floats(0.0, 1.0), SPECIALS), max_size=2),
    zero=st.none() | st.floats(0.0, 1.0),
    at_zero=st.none() | NON_FINITE,
)
def test_centring_on_the_mean_accepts_and_refuses_what_the_sup_rule_did(
    n, stride, seed, scale, offset, relative, placed, zero, at_zero
):
    zero_at = None if zero is None or n == 1 else min(int(zero * n), n - 1)
    p = _density(n, seed, zero_at)
    assert zero_at is None or p.prob[zero_at] == 0.0
    vals, placed = _probe(n, stride, seed + 1, scale, placed)
    vals -= _dot(p.prob, vals)
    vals += offset * TOL * (max(1.0, scale) if relative else 1.0)
    for at, value in placed + ([(zero_at, at_zero)] if zero_at is not None and at_zero is not None else []):
        vals[at] = value
    # the sup rule let numpy warn when a finite mean overflowed; the mean rule refuses that mean without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        want = _outcome(require_centered_reference, p, vals, "probe")
    assert _outcome(require_centered, p, vals, "probe") == want


@SETTINGS
@example(n=2, stride=1, seed=0, scale=1.0, offset=0.0, relative=False, placed=[], zero=0.0, at_zero=math.inf)
@given(
    n=SIZES,
    stride=STRIDES,
    seed=st.integers(0, 2**32 - 1),
    scale=SCALES,
    offset=OFFSETS,
    relative=st.booleans(),
    placed=st.lists(st.tuples(st.floats(0.0, 1.0), SPECIALS), max_size=2),
    zero=st.none() | st.floats(0.0, 1.0),
    at_zero=st.none() | NON_FINITE,
)
def test_sphere_tangent_check_on_the_pairing_matches_the_sup_rule(
    n, stride, seed, scale, offset, relative, placed, zero, at_zero
):
    rng = np.random.default_rng(seed)
    weights, raw = rng.uniform(0.5, 2.0, n), rng.standard_normal(n)
    zero_at = None if zero is None or n == 1 else min(int(zero * n), n - 1)
    if zero_at is not None:
        raw[zero_at] = 0.0  # the base point is 0 there, where an infinite entry meets 0 * inf
    x = sphere_point(finite_measure(np.arange(float(n)), weights), raw).values
    vals, placed = _probe(n, stride, seed + 1, scale, placed)
    vals -= _dot(weights, vals * x) * x  # x has unit norm
    vals += offset * _SPHERE_TOL * (max(1.0, scale) if relative else 1.0) * x
    for at, value in placed + ([(zero_at, at_zero)] if zero_at is not None and at_zero is not None else []):
        vals[at] = value
    with np.errstate(over="ignore", invalid="ignore"):  # the sup rule let numpy warn on a finite overflow
        want = _outcome(require_tangent_reference, weights, vals, x)
    assert _outcome(_require_tangent, weights, vals, x) == want
