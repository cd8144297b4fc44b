import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from igc.measures import (
    BaseMismatchError,
    CotangentVector,
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
    cotangent,
    covariance,
    density_csv_rows,
    density_from_json,
    density_to_json,
    expect,
    finite_measure,
    gauss_hermite_measure,
    gauss_legendre_measure,
    halfline_measure,
    lp_norm,
    measure_from_json,
    measure_to_json,
    periodic_grid_measure,
    tangent,
    upper_incomplete_gamma_half,
)
from igc.measures import _DOT_BLOCK, _dot


def test_measure_validation():
    with pytest.raises(InvariantError):
        finite_measure([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(InvariantError):
        finite_measure([0.0, 1.0], [1.0, -1.0])
    with pytest.raises(InvariantError):
        finite_measure([1.0, 1.0])
    with pytest.raises(InvariantError):
        Measure("grid1d", [0.0, 0.5, 0.4], [1.0, 1.0, 1.0])
    with pytest.raises(InvariantError):
        Measure("simplex", [0.0], [1.0])


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
            assert abs(p.mass() - 1.0) <= base.mass_tol


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.25])
def test_density_rejects_non_positive_or_non_finite_values(bad):
    m = finite_measure(np.arange(4.0))
    with pytest.raises(InvariantError, match="strictly positive and finite"):
        Density(m, [bad, 0.25, 0.25, 0.5])


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


def test_upper_incomplete_gamma_tail_and_oracle():
    assert upper_incomplete_gamma_half(500.0) < 1e-200
    for x in (0.3, 1.0, 4.0):
        oracle, err = quad(lambda s: s**-1.5 * math.exp(-s), x, np.inf)
        assert upper_incomplete_gamma_half(x) == pytest.approx(oracle, rel=1e-9)
    with pytest.raises(InvariantError):
        upper_incomplete_gamma_half(0.0)


def test_upper_incomplete_gamma_derivative():
    # d/dx of x -> gamma_tail(theta*(a+x)) equals -theta**-0.5 e**(-theta a) (a+x)**-1.5 e**(-theta x)
    theta, a = 0.8, 0.7
    h = 1e-6
    for x in (0.2, 1.0, 3.0):
        fd = (
            upper_incomplete_gamma_half(theta * (a + x + h))
            - upper_incomplete_gamma_half(theta * (a + x - h))
        ) / (2 * h)
        closed = -(theta**-0.5) * math.exp(-theta * a) * (a + x) ** -1.5 * math.exp(-theta * x)
        assert fd == pytest.approx(closed, rel=1e-6)


def test_c_integral_cases():
    assert c_integral(0.0, 4.0) == pytest.approx(1.0, abs=1e-15)
    assert c_integral(-0.1, 1.0) == math.inf
    oracle, _ = quad(lambda x: (0.5 + x) ** -1.5 * math.exp(-x), 0, np.inf)
    assert c_integral(1.0, 0.5) == pytest.approx(oracle, rel=1e-9)
    with pytest.raises(InvariantError):
        c_integral(1.0, 0.0)


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
    c = cotangent(p, raw)
    assert abs(expect(p, c.rv)) < 1e-14
    with pytest.raises(InvariantError):
        TangentVector(p, RandomVariable(m, raw))
    with pytest.raises(InvariantError):
        CotangentVector(p, RandomVariable(m, raw))


def test_lp_norm():
    rng = np.random.default_rng(4)
    m = finite_measure(np.arange(5.0))
    p = Density.random(m, rng)
    u = RandomVariable(m, rng.standard_normal(5))
    assert lp_norm(p, u, 2.0) == pytest.approx(math.sqrt(expect(p, u * u)), rel=1e-12)
    with pytest.raises(InvariantError):
        lp_norm(p, u, 0.0)


def test_json_roundtrip():
    rng = np.random.default_rng(5)
    for base in (boolean_measure(3), gauss_legendre_measure(0.0, 2.0, 4), finite_measure([0.5, 1.5])):
        blob = json.dumps(measure_to_json(base))
        back = measure_from_json(json.loads(blob))
        assert back.same_base(base)
        assert back.kind == base.kind and back.rule == base.rule and back.n_sites == base.n_sites
        p = Density.random(base, rng)
        blob_p = json.dumps(density_to_json(p))
        back_p = density_from_json(json.loads(blob_p))
        assert back_p.base.same_base(base)
        assert np.array_equal(back_p.values, p.values)


def test_csv_rows():
    m = finite_measure([0.0, 1.0], [1.0, 3.0])
    p = Density.from_unnormalized(m, [1.0, 1.0])
    rows = density_csv_rows(p)
    assert rows == [(0.0, 1.0, 0.25), (1.0, 3.0, 0.25)]


@pytest.mark.parametrize("n", [1, _DOT_BLOCK, _DOT_BLOCK + 1, 3 * _DOT_BLOCK, 3 * _DOT_BLOCK + 5])
def test_dot_sums_every_block(n):
    # integer products and partial sums are exact, so a dropped or doubled block shows
    assert _dot(np.ones(n), np.arange(float(n))) == n * (n - 1) / 2
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    prods = a * b
    assert abs(_dot(a, b) - math.fsum(prods)) <= 1e-14 * math.fsum(np.abs(prods))
