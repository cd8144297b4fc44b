import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx

from igc.measures import (
    BaseMismatchError,
    Density,
    InvariantError,
    Measure,
    RandomVariable,
    TangentVector,
    boolean_measure,
    boolean_signs,
    boolean_site,
    c_integral,
    coordinate,
    covariance,
    expect,
    finite_measure,
    gauss_hermite_measure,
    gauss_legendre_measure,
    HALFLINE_MAX_NODES,
    TOL,
    halfline_measure,
    lp_norm,
    periodic_grid_measure,
    tangent,
    values_on,
)
from igc.manifold import cumulant_derivatives, cumulant_gradient_derivative, patch_e
from igc.measures import _DOT_BLOCK, _dot
from oracles import gamma_minus_half_reference


def test_measure_validation():
    with pytest.raises(InvariantError):
        finite_measure([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(InvariantError):
        finite_measure([0.0, 1.0], [1.0, -1.0])
    for repeated in ([1.0, 1.0], [2.0, 0.0, -0.0], [np.nan, 1.0, np.nan]):  # NaNs count as equal, as in np.unique
        with pytest.raises(InvariantError, match="pairwise distinct"):
            finite_measure(repeated)
    assert finite_measure([np.nan, 1.0, -np.inf]).size == 3
    with pytest.raises(InvariantError, match="boolean state codes"):
        Measure([3, 1, 3], [1.0, 1.0, 1.0], rule="boolean")
    # codes out of order would give wrong Walsh coefficients: site 0 of [3, 0, 2, 1] transformed to {3: -1.0}
    with pytest.raises(InvariantError, match="boolean state codes"):
        Measure([3, 0, 2, 1], np.ones(4), rule="boolean")
    with pytest.raises(InvariantError):
        Measure([0.0, 0.5, 0.4], [1.0, 1.0, 1.0], rule="gauss_legendre")


@pytest.mark.parametrize(
    "points, weights, rule, message",
    [
        ([0.0, 1.0], [1.0, 1.0], "simpson", "rule must be one of"),
        ([0, 1, 2], np.ones(3), "boolean", "boolean state codes"),
        ([0.5, 1.7], np.ones(2), "boolean", "boolean state codes"),  # not floored to [0, 1]
        ([0.0, 1.0, 2.0], [1.0, 1.0, 1.5], "periodic", "periodic grid weights must all be equal"),
    ],
    ids=["unknown-rule", "boolean-size-3", "boolean-fractional-codes", "periodic-unequal-weights"],
)
def test_measure_checks_the_support_of_its_rule(points, weights, rule, message):
    with pytest.raises(InvariantError, match=message):
        Measure(points, weights, rule)


def test_measure_stores_points_weights_and_rule_and_derives_the_rest():
    assert [f.name for f in dataclasses.fields(Measure)] == ["points", "weights", "rule"]
    for n in (1, 2, 5):
        m = boolean_measure(n)
        assert (m.rule, m.n_sites, m.points.dtype, m.points.tolist()) == ("boolean", n, np.int64, list(range(1 << n)))
    assert Measure([0], [1.0], "boolean").n_sites == 0
    for a, b, n in ((0.0, 1.0, 32), (0.0, 1.0, 64), (-1.0, 2.0, 7), (0.0, 2.0 * math.pi, 50)):
        grid = periodic_grid_measure(a, b, n)
        assert grid.spacing == (b - a) / n and grid.n_sites is None
    for m in (finite_measure([0.0, 1.0]), gauss_legendre_measure(0.0, 1.0, 2), gauss_hermite_measure(4)):
        assert m.n_sites is None
        with pytest.raises(InvariantError, match="periodic uniform grids only"):
            m.spacing


def test_measure_immutable():
    m = finite_measure([0.0, 1.0])
    with pytest.raises(ValueError):
        m.weights[0] = 2.0


def test_expect_examples():
    m = finite_measure([1.0, -1.0])
    p = Density.uniform(m)
    assert expect(p, RandomVariable.constant(m, 1.0)) == pytest.approx(1.0, abs=1e-15)
    u = coordinate(m)
    assert expect(p, u) == pytest.approx(0.0, abs=1e-15)
    shifted = u - expect(p, u)
    assert expect(p, shifted) == pytest.approx(0.0, abs=1e-15)


def test_covariance_examples():
    m = finite_measure([1.0, -1.0])
    p = Density.uniform(m)
    u = coordinate(m)
    assert covariance(p, u, u) == pytest.approx(1.0, abs=1e-15)
    assert covariance(p, u, RandomVariable.constant(m, 7.0)) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(0)
    m8 = finite_measure(np.arange(8.0))
    p8 = Density.random(m8, rng)
    w = RandomVariable(m8, rng.standard_normal(8))
    assert covariance(p8, w, w) >= 0.0


def _exact_mean(prob, u):
    """sum(prob * u) / sum(prob) in exact rational arithmetic on the float (or rational) entries."""
    fp = [Fraction(c) for c in prob]
    return sum(c * Fraction(x) for c, x in zip(fp, u)) / sum(fp)


def _exact_covariance(u, v, prob=None):
    """Cov(u, v) under the probability prob / sum(prob), uniform by default, in exact rational arithmetic."""
    prob = np.ones(len(u)) if prob is None else prob
    mu, mv = _exact_mean(prob, u), _exact_mean(prob, v)
    return float(_exact_mean(prob, [(Fraction(a) - mu) * (Fraction(b) - mv) for a, b in zip(u, v)]))


def test_covariance_keeps_a_large_offset():
    # E[uv] - E[u]E[v] cancels the offset: for the variance of u (0.48) it is 3.0e-8 off at 1e4,
    # and gives 2.0 at 1e8 and 2.7e8 at 1e12
    rng = np.random.default_rng(7)
    p = Density.uniform(finite_measure(np.arange(8.0)))  # probabilities exactly 1/8
    x, y = rng.standard_normal(8), rng.standard_normal(8)
    for offset in (0.0, 1e4, 1e8, 1e12):
        u = offset + x
        v = 0.5 * offset + x + y
        for a, b in ((u, u), (u, v)):
            exact = _exact_covariance(a, b)
            assert abs(covariance(p, a, b) - exact) <= 1e-14 * abs(exact), offset


def test_cumulant_hessian_and_gradient_derivative_keep_a_large_offset():
    # both centre under the patched density q, which shifts each function by its value at the mode
    # of q first; without that shift a Hessian entry is 3.1e-9 off at 1e12, and the gradient
    # derivative 1.4e-12 off at 1e4, 2.7e-9 at 1e8 and 1.9e-4 at 1e12 (relative to its largest value)
    rng = np.random.default_rng(7)
    m = finite_measure(np.arange(8.0))
    p = Density.random(m, rng)
    u = tangent(p, 0.5 * rng.standard_normal(8))
    q = patch_e(p, u)
    x, y = rng.standard_normal(8), rng.standard_normal(8)
    for offset in (0.0, 1e4, 1e8, 1e12):
        a = offset + x
        b = 0.5 * offset + x + y
        _, hess = cumulant_derivatives(p, u, [a, b])
        for i, s in enumerate((a, b)):
            for j, t in enumerate((a, b)):
                exact = _exact_covariance(s, t, q.prob)
                assert abs(hess[i, j] - exact) <= 1e-14 * abs(exact), offset
        mean = _exact_mean(q.prob, a)
        ratio = [Fraction(qv) / Fraction(pv) for qv, pv in zip(q.values, p.values)]
        exact = np.array([float(r * (Fraction(v) - mean)) for r, v in zip(ratio, a)])
        got = cumulant_gradient_derivative(p, u, a).values
        assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact)), offset


def test_expect_covariance_algebra():
    rng = np.random.default_rng(1)
    m = finite_measure(np.arange(10.0))
    p = Density.random(m, rng)
    u = RandomVariable(m, rng.standard_normal(10))
    v = RandomVariable(m, rng.standard_normal(10))
    w = RandomVariable(m, rng.standard_normal(10))
    a, b = 1.7, -0.4
    assert expect(p, u * a + v * b) == pytest.approx(a * expect(p, u) + b * expect(p, v), abs=1e-12)
    assert covariance(p, u, v) == pytest.approx(covariance(p, v, u), abs=1e-12)
    assert covariance(p, u * a + w * b, v) == pytest.approx(
        a * covariance(p, u, v) + b * covariance(p, w, v), abs=1e-12
    )


def test_base_mismatch():
    m1 = finite_measure([0.0, 1.0])
    m2 = finite_measure([0.0, 2.0])
    p = Density.uniform(m1)
    with pytest.raises(BaseMismatchError):
        expect(p, RandomVariable(m2, np.zeros(2)))
    # the same points with other weights are another base
    m3, m4 = finite_measure(np.arange(3.0)), finite_measure(np.arange(3.0), [1.0, 2.0, 1.0])
    with pytest.raises(BaseMismatchError):
        expect(Density.uniform(m3), RandomVariable(m4, np.zeros(3)))


def test_density_validation():
    m = finite_measure([0.0, 1.0])
    with pytest.raises(InvariantError):
        Density(m, [0.5, -0.1])
    with pytest.raises(InvariantError):
        Density(m, [0.9, 0.9])
    rng = np.random.default_rng(2)
    for base in (
        finite_measure(np.arange(5.0)),
        boolean_measure(4),
        gauss_legendre_measure(0.0, 3.0, 6),
        periodic_grid_measure(0.0, 1.0, 16),
        gauss_hermite_measure(24),
    ):
        for p in (Density.uniform(base), Density.random(base, rng)):
            assert abs(p.mass() - 1.0) <= TOL
    # a sum past the largest double, and one below the normal doubles on weights that are not 1,
    # are first scaled by the maximum (neither leaks an overflow warning)
    huge = Density.from_unnormalized(finite_measure(np.arange(3.0)), [1e308, 1e308, 1.0])
    assert huge.values.tolist() == [0.5, 0.5, 5e-309]
    grid = gauss_legendre_measure(0.0, 1.0, 1)
    assert abs(Density.from_unnormalized(grid, 1e-320 * np.linspace(1.0, 2.0, grid.size)).mass() - 1.0) <= TOL


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.25])
def test_density_rejects_non_positive_or_non_finite_values(bad):
    m = finite_measure(np.arange(4.0))
    with pytest.raises(InvariantError, match="strictly positive and finite"):
        Density(m, [bad, 0.25, 0.25, 0.5])


def test_unnormalized_density_of_the_wrong_length_is_an_invariant_error():
    m = finite_measure(np.arange(4.0))
    with pytest.raises(InvariantError, match="^density values must match the support size$"):
        Density.from_unnormalized(m, np.ones(3))


def test_density_copies_unless_handed_a_frozen_array_it_can_own():
    m = finite_measure(np.arange(4.0))
    src = np.full(4, 0.25)
    d = Density(m, src)
    src[0] = 0.5
    assert d.values is not src and np.all(d.values == 0.25)

    owned = np.full(4, 0.25)
    owned.setflags(write=False)
    assert Density(m, owned).values is owned

    base = np.full(8, 0.25)
    view = base[:4]
    view.setflags(write=False)
    d = Density(m, view)
    assert d.values is not view
    base[0] = 0.5
    assert np.all(d.values == 0.25)


def test_boolean_machinery():
    m = boolean_measure(3)
    signs = boolean_signs(m)
    assert signs.shape == (8, 3)
    assert set(np.unique(signs)) == {-1.0, 1.0}
    # each site function is balanced
    for k in range(3):
        assert abs(boolean_site(m, k).values.sum()) == 0.0
    # state 0 is the all-plus pattern
    assert np.all(signs[0] == 1.0)


def test_gauss_legendre_accuracy():
    m = gauss_legendre_measure(0.0, 10.0, 10)
    val = float(m.weights @ np.exp(-m.points))
    assert val == pytest.approx(1.0 - math.exp(-10.0), rel=1e-13)


def test_halfline_tail_bound():
    a = 0.5
    m = halfline_measure(rate=1.0, tail_tol=1e-13)
    approx = float(m.weights @ ((a + m.points) ** -1.5 * np.exp(-m.points)))
    assert approx == pytest.approx(c_integral(1.0, a), rel=1e-10)


@pytest.mark.parametrize(
    "rate,tail_tol,name",
    [(0.0, 1e-12, "rate"), (-1.0, 1e-12, "rate"), (math.nan, 1e-12, "rate"), (math.inf, 1e-12, "rate")]
    + [(1.0, tol, "tail_tol") for tol in (0.0, -1e-12, math.nan, 1.0, 2.0)]
    + [(4.0, 0.25, "tail_tol")],
)
def test_halfline_measure_rejects_a_bad_rate_or_tail_tol(rate, tail_tol, name):
    # these used to leak ZeroDivisionError, ValueError or the unrelated "need b > a"
    with pytest.raises(InvariantError, match=name):
        halfline_measure(rate=rate, tail_tol=tail_tol)


def test_halfline_measure_takes_the_logs_apart():
    # rate * tail_tol underflows to 0 here (the old log(1/(rate*tail_tol)) divided by zero), yet
    # T = (log 2 - log(5e-324)) / 0.5 = 1490.3 is a small grid
    m = halfline_measure(rate=0.5, tail_tol=5e-324)
    upper = (math.log(2.0) - math.log(5e-324)) / 0.5
    assert m.weights.sum() == pytest.approx(upper, rel=1e-13) and m.size == 16 * math.ceil(upper / 2.0)
    with pytest.raises(InvariantError, match="HALFLINE_MAX_NODES"):
        halfline_measure(rate=1e-200, tail_tol=1e-200)
    assert halfline_measure(rate=2.8e-4).size <= HALFLINE_MAX_NODES


@pytest.mark.parametrize("rate", [1e-6, 2.7e-4, 5e-324])
def test_halfline_measure_refuses_a_grid_above_the_node_bound_before_allocating(rate):
    # 1e-6 would ask for about 2.8e8 nodes (4.4 GiB); the bound sits between 2.7e-4 and 2.8e-4
    tracemalloc.start()
    try:
        with pytest.raises(InvariantError, match="HALFLINE_MAX_NODES"):
            halfline_measure(rate=rate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _gamma_minus_half(x):
    """Gamma(-1/2, x), the tail integral of s**(-3/2) * exp(-s) from x: with s = x + t it is exp(-x) * C(1, x)."""
    return math.exp(-x) * c_integral(1.0, x)


def test_upper_incomplete_gamma_tail_and_oracle():
    # full relative accuracy: the integration-by-parts form 2 exp(-x)/sqrt(x) - 2 sqrt(pi) erfc(sqrt(x)) cancels,
    # and was 4.9e-11 off at x = 500
    for x in (1e-6, 1e-3, 0.3, 1.0, 3.99, 4.0, 4.01, 20.0, 50.0, 100.0, 250.0, 500.0):
        assert _gamma_minus_half(x) == pytest.approx(gamma_minus_half_reference(x), rel=1e-14, abs=0.0)
    assert _gamma_minus_half(800.0) == 0.0
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvariantError, match="a must be positive and finite"):
            _gamma_minus_half(bad)


def test_upper_incomplete_gamma_derivative():
    # d/dx of x -> gamma_tail(theta*(a+x)) equals -theta**-0.5 e**(-theta a) (a+x)**-1.5 e**(-theta x)
    theta, a = 0.8, 0.7
    h = 1e-6
    for x in (0.2, 1.0, 3.0):
        fd = (
            _gamma_minus_half(theta * (a + x + h))
            - _gamma_minus_half(theta * (a + x - h))
        ) / (2 * h)
        closed = -(theta**-0.5) * math.exp(-theta * a) * (a + x) ** -1.5 * math.exp(-theta * x)
        assert fd == pytest.approx(closed, rel=1e-6)


def test_c_integral_cases():
    assert c_integral(0.0, 4.0) == pytest.approx(1.0, abs=1e-15)
    assert c_integral(-0.1, 1.0) == math.inf
    oracle, _ = quad(lambda x: (0.5 + x) ** -1.5 * math.exp(-x), 0, np.inf)
    assert c_integral(1.0, 0.5) == pytest.approx(oracle, rel=1e-9)
    for theta, a in ((1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(InvariantError):
            c_integral(theta, a)


def test_c_integral_meets_the_closed_form_where_the_fraction_converges_slowest():
    # the continued fraction takes over at y = sqrt(theta*a) = 2 and needs the most terms there;
    # the scaled-erfc closed form loses only about a factor 10 to cancellation at that point
    for theta in (math.nextafter(4.0, 0.0), 4.0, math.nextafter(4.0, 5.0), 4.5):
        oracle = 2.0 - 2.0 * math.sqrt(math.pi * theta) * float(erfcx(math.sqrt(theta)))
        assert c_integral(theta, 1.0) == pytest.approx(oracle, rel=4e-15)


def test_c_integral_keeps_its_relative_accuracy_for_large_theta_a():
    # here the scaled-erfc difference 2/sqrt(a) - 2*sqrt(pi*theta)*erfcx(y) cancels to nothing;
    # the integral is about 1/(theta*a**1.5)
    for theta, a in ((1.0, 1e16), (1e3, 1e20), (1e-6, 1e200)):
        series = 1.0 - 3.0 / (2.0 * theta * a)  # the next term is below 4e-32
        assert c_integral(theta, a) == pytest.approx(series / (theta * a**1.5), rel=1e-15)
    assert c_integral(math.inf, 1.0) == 0.0


def test_c_integral_quadrature_grid():
    for theta in (0.25, 0.5, 1.0, 2.0):
        for a in (0.5, 1.0, 2.0):
            oracle, _ = quad(lambda x: (a + x) ** -1.5 * math.exp(-theta * x), 0, np.inf)
            assert c_integral(theta, a) == pytest.approx(oracle, rel=1e-8)


def test_tangent_cotangent_centering():
    rng = np.random.default_rng(3)
    m = finite_measure(np.arange(6.0))
    p = Density.random(m, rng)
    raw = rng.standard_normal(6) + 2.0
    t = tangent(p, raw)
    assert abs(expect(p, t.rv)) < 1e-14
    with pytest.raises(InvariantError):
        TangentVector(p, RandomVariable(m, raw))


def test_lp_norm():
    rng = np.random.default_rng(4)
    m = finite_measure(np.arange(5.0))
    p = Density.random(m, rng)
    u = RandomVariable(m, rng.standard_normal(5))
    assert lp_norm(p, u, 2.0) == pytest.approx(math.sqrt(expect(p, u * u)), rel=1e-12)
    with pytest.raises(InvariantError):
        lp_norm(p, u, 0.0)


UNIFORM4 = Density.uniform(finite_measure(np.arange(4.0)))
U4 = np.array([0.5, -3.0, 2.0, 0.0])


def test_lp_norm_at_a_large_alpha():
    # |u|**1000 overflows; the norm itself is max|u| * (E_p (|u|/max|u|)**1000)**(1/1000), about 2.996
    expected = 3.0 * math.exp(math.log(0.25 * (1.0 + (2.0 / 3.0) ** 1000)) / 1000.0)
    assert lp_norm(UNIFORM4, U4, 1000.0) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_lp_norm_of_a_huge_or_tiny_function(scale):
    # u**2 overflows to inf at 1e200 and underflows to 0 at 1e-200
    assert lp_norm(UNIFORM4, scale * U4, 2.0) == pytest.approx(scale * math.sqrt(13.25 / 4.0), rel=1e-15)


def test_lp_norm_of_zero_is_zero():
    assert lp_norm(UNIFORM4, np.zeros(4), 2.0) == 0.0


@pytest.mark.parametrize("alpha", [math.inf, math.nan, -1.0])
def test_lp_norm_rejects_an_alpha_that_is_not_positive_and_finite(alpha):
    # alpha = inf used to return 1.0 here, and NaN a NaN
    with pytest.raises(InvariantError, match="alpha must be positive and finite"):
        lp_norm(UNIFORM4, U4, alpha)


@pytest.mark.parametrize("n", [1, _DOT_BLOCK, _DOT_BLOCK + 1, 3 * _DOT_BLOCK, 3 * _DOT_BLOCK + 5])
def test_dot_sums_every_block(n):
    # integer products and partial sums are exact, so a dropped or doubled block shows
    assert _dot(np.ones(n), np.arange(float(n))) == n * (n - 1) / 2
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    prods = a * b
    assert abs(_dot(a, b) - math.fsum(prods)) <= 1e-14 * math.fsum(np.abs(prods))


def test_prob_is_the_values_on_unit_weights_only():
    # a patch sets its prob when it is built; it must read as the cached property would
    rng = np.random.default_rng(17)
    for m in (finite_measure(np.arange(6.0)), boolean_measure(3)):
        p = Density.random(m, rng)
        for d in (p, patch_e(p, tangent(p, rng.standard_normal(m.size)))):
            assert m.unit_weights and d.prob is d.values
    for m in (periodic_grid_measure(0.0, 1.0, 8), finite_measure(np.arange(4.0), [1.0, 2.0, 0.5, 1.0])):
        p = Density.random(m, rng)
        for d in (p, patch_e(p, tangent(p, rng.standard_normal(m.size)))):
            assert not m.unit_weights and d.prob is not d.values
            assert d.prob.tobytes() == (m.weights * d.values).tobytes()
            assert not d.prob.flags.writeable and not d.values.flags.writeable


class _Sub(np.ndarray):
    pass


@pytest.mark.parametrize("u", [
    np.linspace(-1.0, 1.0, 4),
    np.linspace(-1.0, 1.0, 8)[::2],
    np.linspace(-1.0, 1.0, 4).astype(">f8"),  # byte-swapped: converted, as np.asarray converts it
    np.arange(4, dtype=np.int64),
    np.linspace(-1.0, 1.0, 4).astype(np.float32),
    np.linspace(-1.0, 1.0, 4).view(_Sub),
    [0.5, 1.0, 1.5, 2.0],
], ids=["float64", "strided", "byte-swapped", "int64", "float32", "subclass", "list"])
def test_values_on_an_array_is_np_asarray_of_it(u):
    got = values_on(finite_measure(np.arange(4.0)), u)
    want = np.asarray(u, dtype=float)
    assert type(got) is np.ndarray and got.dtype == want.dtype and got.dtype.isnative
    assert got.tobytes() == want.tobytes() and np.shares_memory(got, u) == np.shares_memory(want, u)
