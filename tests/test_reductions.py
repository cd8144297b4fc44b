"""Property checks of the reduction helpers in ``igc.measures``: ``_max``, ``_min`` and ``_all_finite``
agree with numpy's reductions and ``_dot`` with the matmul it replaces, on both sides of the size
cut-off ``_DOT_BLOCK`` and on strided views, and the checks built on them still reject a NaN or an
infinity anywhere in an array, with the same messages."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igc.measures import (
    _DOT_BLOCK,
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
