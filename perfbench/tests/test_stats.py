"""Unit tests for the benchmark's percentile, self-time and import-time arithmetic.

Run with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import covered_length, import_time_under, percentile, samples_beyond, self_times  # noqa: E402


def test_percentile_matches_linear_interpolation():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 100) == 5.0
    assert percentile(xs, 90) == pytest.approx(4.6)  # rank 0.9 * 4 = 3.6
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([7.0], 90) == 7.0


def test_percentile_agrees_with_numpy():
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(0)
    xs = list(rng.exponential(size=37))
    for q in (10, 50, 90, 99):
        assert percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)), rel=1e-12)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_counts_strictly_above():
    xs = list(range(1, 101))  # p90 of 1..100 is 90.1
    assert samples_beyond(xs, 90) == 10
    assert samples_beyond([3.0] * 20, 90) == 0


def test_covered_length_merges_and_clips():
    assert covered_length(0.0, 10.0, []) == 0.0
    assert covered_length(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == 3.0  # overlap counted once
    assert covered_length(0.0, 10.0, [(4.0, 5.0), (1.0, 2.0)]) == 2.0  # order does not matter
    assert covered_length(0.0, 10.0, [(-5.0, 1.0), (9.0, 20.0)]) == 2.0  # clipped to [0, 10]
    assert covered_length(0.0, 10.0, [(11.0, 12.0)]) == 0.0
    assert covered_length(0.0, 10.0, [(2.0, 3.0), (3.0, 4.0)]) == 2.0  # touching intervals


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > grandchild [2, 3]; root > b [6, 8]
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 4.0, 3.0, 8.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [5.0, 2.0, 1.0, 2.0]


def test_self_times_sum_to_root_duration():
    starts = [0.0, 0.5, 0.6, 2.0, 2.5, 7.0]
    ends = [9.0, 1.5, 1.0, 6.0, 3.0, 8.5]
    parents = [-1, 0, 1, 0, 3, 0]
    assert sum(self_times(starts, ends, parents)) == pytest.approx(9.0)


def test_self_time_never_negative_with_overlapping_children():
    # spans from one thread never overlap, but overlapping children must not be counted twice
    assert self_times([0.0, 1.0, 2.0], [4.0, 3.0, 5.0], [-1, 0, 0]) == [1.0, 2.0, 3.0]


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   _io
import time:        50 |         50 |       scipy._lib.deprecation
import time:        30 |         30 |       fractions
import time:       200 |        280 |     scipy._lib
import time:       400 |        680 |   scipy
import time:        20 |         20 |       math_helper
import time:        70 |         90 |     scipy.special._ufuncs
import time:       500 |        590 |   scipy.special
import time:       900 |       2270 | igc.manifold
import time:        10 |         10 | numpy.extra
"""


def test_import_time_under_sums_the_package_subtree():
    # every scipy* line plus the modules first imported while one of them loaded
    assert import_time_under(IMPORTTIME, "scipy") == pytest.approx((50 + 30 + 200 + 400 + 20 + 70 + 500) * 1e-6)
    # a top-level package's subtree is its cumulative time
    assert import_time_under(IMPORTTIME, "igc") == pytest.approx(2270e-6)
    assert import_time_under(IMPORTTIME, "numpy") == pytest.approx(10e-6)
    assert import_time_under(IMPORTTIME, "sci") == 0.0  # whole dotted components only
    assert import_time_under("", "scipy") == 0.0
