import dataclasses
import math

import numpy as np
import pytest
from scipy.special import wrightomega

from igc.deformed import (
    DEFORMED_TAGS,
    DeformedLogarithm,
    _wright_omega,
    escort_expect,
    make_deformed,
    phi_arc,
    phi_chart,
    phi_connected,
    phi_cumulant,
    phi_norm,
    phi_patch,
)
from igc.manifold import chart_s, cumulant, patch_e
from igc.measures import (
    Density,
    InvariantError,
    RandomVariable,
    expect,
    finite_measure,
    tangent,
)
from oracles import bisection_cumulant, rk4_scalar

ALL_FAMILIES = [("classical", None), ("tsallis", 0.6), ("kaniadakis", 0.3), ("newton", None)]


@pytest.fixture
def space():
    rng = np.random.default_rng(40)
    m = finite_measure(np.arange(8.0))
    return rng, m


def test_family_contract():
    grid = np.geomspace(0.05, 50.0, 101)
    for tag, param in ALL_FAMILIES + [("tsallis", 1.0), ("kaniadakis", 0.0), ("tsallis", 0.25)]:
        d = make_deformed(tag, param)
        assert float(np.atleast_1d(d.log(np.array([1.0])))[0]) == pytest.approx(0.0, abs=1e-15)
        assert float(np.atleast_1d(d.exp(np.array([0.0])))[0]) == pytest.approx(1.0, abs=1e-15)
        back = d.exp(d.log(grid))
        assert np.max(np.abs(back - grid) / grid) < 1e-10
        # strictly increasing and concave on the sampled grid
        lg = d.log(grid)
        assert np.all(np.diff(lg) > 0)
        slopes = np.diff(lg) / np.diff(grid)
        assert np.all(np.diff(slopes) < 1e-12)
        # the affine bound phi(x) <= x + 1 that phi_norm's bracket takes, on 241 points of [1e-6, 1e6]
        wide = np.geomspace(1e-6, 1e6, 241)
        assert np.all(d.phi(wide) <= wide + 1.0)


def test_make_deformed_validation():
    with pytest.raises(InvariantError):
        make_deformed("tsallis", 1.5)
    with pytest.raises(InvariantError):
        make_deformed("tsallis")
    with pytest.raises(InvariantError):
        make_deformed("kaniadakis", 1.0)
    with pytest.raises(InvariantError):
        make_deformed("unknown")
    assert set(DEFORMED_TAGS) == {"classical", "tsallis", "kaniadakis", "newton"}


@pytest.mark.parametrize("tag,param", ALL_FAMILIES)
def test_a_deformation_rebuilt_from_its_five_fields_takes_the_same_path(space, tag, param):
    # tag, phi, log, exp and lower_bound are the whole deformation: the root-finds read phi o exp_phi
    rng, m = space
    p0, p1 = Density.random(m, rng), Density.random(m, rng)
    d = make_deformed(tag, param)
    rebuilt = DeformedLogarithm(d.tag, d.phi, d.log, d.exp, d.lower_bound)
    raw = 0.7 * rng.standard_normal(8)
    u = RandomVariable(m, raw - escort_expect(p0, raw, d))
    assert phi_norm(p0, u, rebuilt) == phi_norm(p0, u, d)
    assert phi_cumulant(p0, u, rebuilt) == phi_cumulant(p0, u, d)
    assert np.array_equal(phi_patch(p0, u, rebuilt).values, phi_patch(p0, u, d).values)
    arc, expected = phi_arc(p0, p1, rebuilt, 0.4), phi_arc(p0, p1, d, 0.4)
    for field in ("density", "family_density"):
        assert np.array_equal(getattr(arc, field).values, getattr(expected, field).values)
    for field in ("psi", "pairing_unnormalized", "pairing_normalized"):
        assert getattr(arc, field) == getattr(expected, field)


def test_tsallis_limit_scaling():
    # the gap to the natural logarithm is (1-q) * log(v)**2 / 2 to first order,
    # so it scales linearly in 1-q and vanishes in the limit
    v = np.geomspace(0.1, 10.0, 101)
    gaps = []
    for eps in (1e-6, 1e-7, 1e-8):
        d = make_deformed("tsallis", 1.0 - eps)
        gaps.append(float(np.max(np.abs(d.log(v) - np.log(v)))))
        bound = eps * np.max(np.log(v) ** 2) / 2.0
        assert gaps[-1] <= bound * 1.01
    assert gaps[2] < gaps[0] / 50.0


def test_tsallis_domain_guard():
    d = make_deformed("tsallis", 0.5)  # edge at -2
    out = d.exp(np.array([-1.9, -2.0, -2.1]))
    assert out[0] > 0.0
    assert out[1] == 0.0
    assert math.isnan(out[2])


def test_kaniadakis_zero_parameter_is_exact_exp():
    d = make_deformed("kaniadakis", 0.0)
    u = np.linspace(-3.0, 3.0, 31)
    assert np.array_equal(d.exp(u), np.exp(u))


def test_kaniadakis_exp_solves_its_ode():
    for kappa in (0.2, 0.5, 0.8):
        d = make_deformed("kaniadakis", kappa)

        def rate(y):
            return float(d.phi(np.array([y]))[0])

        for u in (-1.5, 0.7, 2.0):
            oracle = rk4_scalar(rate, 1.0, u, 4000)
            ours = float(np.atleast_1d(d.exp(np.array([u])))[0])
            assert ours == pytest.approx(oracle, rel=1e-6)


def test_newton_exp_residual():
    d = make_deformed("newton")
    us = np.linspace(-20.0, 20.0, 41)
    vs = d.exp(us)
    residual = vs - 1.0 + np.log(vs) - us
    assert np.max(np.abs(residual)) < 1e-13


# the Wright omega's region edges -50, -2, 1 and 1e20 with their neighbours, the signed zeros, the smallest
# subnormal, the largest magnitudes, the infinities and NaN
_OMEGA_EDGES = [y for e in (-50.0, -2.0, 1.0, 1e20) for y in (np.nextafter(e, -math.inf), e, np.nextafter(e, math.inf))]
_OMEGA_EDGES += [0.0, -0.0, 5e-324, -5e-324, 1.8e308, -1.8e308, math.inf, -math.inf, math.nan]


def test_wright_omega_is_bitwise_scipy_at_the_region_edges():
    for x in _OMEGA_EDGES:
        assert np.float64(_wright_omega(x)).tobytes() == wrightomega(x).tobytes(), x
    # through exp_n, which adds 1 to u: on the table itself and on the table shifted by -1, as 0-d, 1-D and 2-D
    exp = make_deformed("newton").exp
    table = np.array(_OMEGA_EDGES + [x - 1.0 for x in _OMEGA_EDGES])
    for arg in [*table] + [table, table.reshape(2, -1)]:
        ours, theirs = exp(arg), wrightomega(arg + 1.0)
        assert type(ours) is type(theirs) and np.shape(ours) == np.shape(theirs)
        assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes(), arg


def test_newton_exp_is_bitwise_scipy_on_a_dense_sample():
    # a change of rounding order in the start value or the step moves about 1 result in 1,000 by an ulp:
    # 40,000 draws around the region edges show it, where a few dozen arbitrary doubles would not
    rng = np.random.default_rng(43)
    u = np.concatenate([10.0 * rng.standard_normal(20_000), rng.uniform(-60.0, 60.0, 20_000)])
    assert make_deformed("newton").exp(u).tobytes() == wrightomega(u + 1.0).tobytes()


def test_kaniadakis_exp_large_negative_argument():
    d = make_deformed("kaniadakis", 0.5)
    u = np.array([-1e8, 1e8])
    v = d.exp(u)
    assert v[0] * v[1] == pytest.approx(1.0, rel=1e-14)
    assert np.max(np.abs(d.log(v) - u) / np.abs(u)) < 1e-14


def test_newton_exp_extreme_arguments():
    d = make_deformed("newton")
    v = d.exp(np.array([-700.0, -800.0, 700.0]))
    assert v[0] > 0.0 and v[2] > 0.0
    assert d.log(v[[0, 2]]) == pytest.approx([-700.0, 700.0], rel=1e-14)
    assert v[1] == 0.0  # the root is about exp(-799), below the smallest subnormal


def test_phi_norm(space):
    rng, m = space
    p = Density.random(m, rng)
    for tag, param in ALL_FAMILIES:
        d = make_deformed(tag, param)
        assert phi_norm(p, RandomVariable.constant(m, 0.0), d) == 0.0
        u = RandomVariable(m, rng.standard_normal(8))
        nrm = phi_norm(p, u, d)
        assert phi_norm(p, u * 2.5, d) == pytest.approx(2.5 * nrm, rel=1e-10)
        # non-expansive injection into the escort L1 space
        escort_l1 = float(m.weights @ (d.phi(p.values) * np.abs(u.values)))
        assert escort_l1 <= nrm * (1.0 + 1e-10)
    # classical tag reduces to the exponential-moment gauge
    d = make_deformed("classical")
    u = RandomVariable(m, rng.standard_normal(8))
    nrm = phi_norm(p, u, d)
    val = expect(p, RandomVariable(m, np.exp(np.abs(u.values) / nrm)))
    assert val == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("tag,param", ALL_FAMILIES)
def test_norm_and_cumulant_take_log_phi_p_once(space, tag, param):
    rng, m = space
    p = Density.random(m, rng)
    d = make_deformed(tag, param)
    raw = 0.7 * rng.standard_normal(8)
    u = RandomVariable(m, raw - escort_expect(p, raw, d))
    calls = []
    counted = dataclasses.replace(d, log=lambda v: calls.append(v) or d.log(v))
    for fn in (phi_norm, phi_cumulant):
        calls.clear()
        value = fn(p, u, counted)
        assert len(calls) == 1
        assert value == fn(p, u, d)


def test_escort(space):
    rng, m = space
    p = Density.random(m, rng)
    d = make_deformed("tsallis", 0.5)
    assert escort_expect(p, RandomVariable.constant(m, 4.2), d) == pytest.approx(4.2, rel=1e-14)
    dc = make_deformed("classical")
    u = RandomVariable(m, rng.standard_normal(8))
    assert escort_expect(p, u, dc) == pytest.approx(expect(p, u), abs=1e-14)
    # four-point direct-sum oracle
    m4 = finite_measure(np.arange(4.0), [1.0, 2.0, 0.5, 1.5])
    p4 = Density.random(m4, rng)
    u4 = RandomVariable(m4, rng.standard_normal(4))
    w = m4.weights * np.sqrt(p4.values)
    direct = float(w @ u4.values) / float(np.sum(w))
    assert escort_expect(p4, u4, d) == pytest.approx(direct, rel=1e-13)


def test_phi_connected(space):
    rng, m = space
    d = make_deformed("tsallis", 0.6)
    p = Density.random(m, rng)
    q = Density.random(m, rng)
    ts = np.linspace(0.0, 1.0, 9)
    rows = phi_connected(p, p, d, ts)
    assert all(abs(r.mass - 1.0) < 1e-12 for r in rows)
    for tag, param in ALL_FAMILIES:
        dd = make_deformed(tag, param)
        rows = phi_connected(p, q, dd, ts)
        assert all(r.finite for r in rows)
        assert all(r.mass <= 1.0 + 1e-12 for r in rows)
    # symmetry under t -> 1 - t with swapped endpoints
    fw = phi_connected(p, q, d, ts)
    bw = phi_connected(q, p, d, 1.0 - ts)
    for a, b in zip(fw, bw):
        assert a.mass == pytest.approx(b.mass, rel=1e-12)


def test_phi_cumulant(space):
    rng, m = space
    p = Density.random(m, rng)
    for tag, param in ALL_FAMILIES:
        d = make_deformed(tag, param)
        assert phi_cumulant(p, RandomVariable.constant(m, 0.0), d) == 0.0
        raw = 0.7 * rng.standard_normal(8)
        u = RandomVariable(m, raw - escort_expect(p, raw, d))
        k = phi_cumulant(p, u, d)
        assert k > 0.0
        assert abs(phi_patch(p, u, d).mass() - 1.0) < 1e-12
    dc = make_deformed("classical")
    raw = rng.standard_normal(8)
    u = RandomVariable(m, raw - expect(p, raw))
    assert phi_cumulant(p, u, dc) == pytest.approx(cumulant(p, tangent(p, u.values)), abs=1e-10)


def test_phi_cumulant_derivative_is_escort_expectation(space):
    rng, m = space
    p = Density.random(m, rng)
    h = 1e-5
    for tag, param in ALL_FAMILIES:
        d = make_deformed(tag, param)
        raw = 0.5 * rng.standard_normal(8)
        u = RandomVariable(m, raw - escort_expect(p, raw, d))
        raw_v = rng.standard_normal(8)
        v = RandomVariable(m, raw_v - escort_expect(p, raw_v, d))
        q = phi_patch(p, u, d)
        expected = escort_expect(q, v, d)
        fd = (
            phi_cumulant(p, u + v * h, d)
            - phi_cumulant(p, u - v * h, d)
        ) / (2 * h)
        assert fd == pytest.approx(expected, rel=1e-5, abs=1e-8)


def test_phi_cumulant_subgradient(space):
    rng, m = space
    p = Density.random(m, rng)
    for tag, param in ALL_FAMILIES:
        d = make_deformed(tag, param)
        for _ in range(5):
            raw0 = 0.5 * rng.standard_normal(8)
            raw1 = 0.5 * rng.standard_normal(8)
            u0 = RandomVariable(m, raw0 - escort_expect(p, raw0, d))
            u1 = RandomVariable(m, raw1 - escort_expect(p, raw1, d))
            k0, k1 = phi_cumulant(p, u0, d), phi_cumulant(p, u1, d)
            q0 = phi_patch(p, u0, d)
            pairing = escort_expect(q0, u1 - u0, d)
            assert k1 >= k0 + pairing - 1e-9


def _counting_exp(d):
    """d with an exp that records each call, and the record."""
    calls = []
    return dataclasses.replace(d, exp=lambda x: calls.append(1) or d.exp(x)), calls


def _cumulant_input(rng, d=None, shift=0.0):
    """A density and a coordinate for d (or a random family), the coordinate moved by up to shift."""
    if d is None:
        tag = DEFORMED_TAGS[rng.integers(4)]
        param = {"tsallis": rng.uniform(0.2, 0.95), "kaniadakis": rng.uniform(0.05, 0.9)}.get(tag)
        d = make_deformed(tag, param)
    m = finite_measure(np.arange(float(rng.choice([4, 8, 16, 64]))))
    p = Density.random(m, rng)
    u = rng.uniform(0.1, 2.0) * rng.standard_normal(m.size)
    if rng.random() < 0.5:
        u = u - escort_expect(p, u, d)
    if shift:
        u = u + rng.uniform(-shift, shift)
    return p, u, d


def test_newton_cumulant_agrees_with_the_bisection_oracle():
    # Newton in k inside [-max|u|, max|u|] against plain bisection in r = 1/k (or -k): same
    # exceptions and a unit-mass side answer within 2e-14, with about half the exp calls for
    # coordinates near 0; coordinates moved by up to 5 put the root far from k = 0, and an input
    # with no unit-mass root stops at the domain edge
    rng = np.random.default_rng(14)
    near = [_cumulant_input(rng) for _ in range(600)]
    far = [
        _cumulant_input(rng, d, shift=5.0)
        for d in (None, make_deformed("kaniadakis", 0.9), make_deformed("tsallis", 0.2))
        for _ in range(100)
    ]
    per_root = []
    for i, (p, u, d) in enumerate(near + far):
        newton_d, newton_calls = _counting_exp(d)
        try:
            k = phi_cumulant(p, u, newton_d)
        except InvariantError:
            with pytest.raises(InvariantError):
                bisection_cumulant(p, u, d)
            continue
        oracle = bisection_cumulant(p, u, d)
        mass = float(p.base.weights @ d.exp(u - k + d.log(p.values)))
        assert mass >= 1.0
        assert abs(k - oracle) <= 2e-14 * max(1.0, abs(oracle))
        if mass > 1.0 + 1e-9 or i >= len(near):
            assert len(newton_calls) <= 20  # no unit-mass root, or a root far from k = 0
        else:
            per_root.append(len(newton_calls))
    assert len(per_root) > 400
    assert np.mean(per_root) <= 7.0 and max(per_root) <= 15


@pytest.mark.parametrize("tag,param", [("kaniadakis", 0.9), ("tsallis", 0.2), ("classical", None), ("newton", None)])
@pytest.mark.parametrize("c", [2.6, 5.0])
def test_phi_cumulant_moves_with_a_constant_shift(tag, param, c):
    # k(u + c) = k(u) + c: roots far above k = 0, where Newton's steps need not shrink
    # (kaniadakis at kappa = 0.9 takes steps of 0.924 and then 0.933 from u = 2.6 on a uniform p)
    rng = np.random.default_rng(7)
    m = finite_measure(np.arange(8.0))
    d = make_deformed(tag, param)
    for p in (Density.from_unnormalized(m, np.ones(8)), Density.random(m, rng)):
        for u in (np.zeros(8), 0.5 * np.abs(rng.standard_normal(8))):  # u >= 0 stays in every domain
            k = phi_cumulant(p, u, d)
            assert abs(phi_cumulant(p, u + c, d) - (k + c)) <= 1e-12 * max(1.0, abs(k + c))


@pytest.mark.parametrize("tag,param", [("kaniadakis", 0.9), ("classical", None), ("newton", None)])
@pytest.mark.parametrize("c", [-2.6, -5.0])
def test_phi_cumulant_of_a_negative_constant_is_the_constant(tag, param, c):
    # u = c is the lower end -max|u| of the bracket; on some p its computed mass rounds below 1
    rng = np.random.default_rng(3)
    m = finite_measure(np.arange(8.0))
    d = make_deformed(tag, param)
    for _ in range(20):
        p = Density.random(m, rng)
        k = phi_cumulant(p, np.full(8, c), d)
        assert abs(k - c) <= 1e-14 * abs(c)
        assert float(m.weights @ d.exp(c - k + d.log(p.values))) >= 1.0


def test_cumulant_bisects_toward_a_root_far_above_the_lower_end():
    # u = (-40, -4, ..., -4): Newton from k = 0 is clipped to -40, where the classical mass is about
    # e**36; from there Newton gains about one unit of k per step, and bisection under the progress
    # budget reached the root near -4.13 in 18 exp calls (43 without the budget, 57 through the old
    # Illinois fallback), but the Newton step of log mass, exact for this family, takes 4
    m = finite_measure(np.arange(8.0))
    d, calls = _counting_exp(make_deformed("classical"))
    p = Density.from_unnormalized(m, np.ones(8))
    u = np.full(8, -4.0)
    u[0] = -40.0
    k = phi_cumulant(p, u, d)
    assert abs(k - bisection_cumulant(p, u, make_deformed("classical"))) <= 2e-14 * abs(k)
    assert len(calls) <= 6


@pytest.mark.parametrize(
    "tag,param,most", [("classical", None, 4), ("kaniadakis", 0.3, 12), ("newton", None, 12), ("tsallis", 0.95, 12)]
)
def test_cumulant_reaches_a_far_root_by_log_mass_steps(tag, param, most):
    # u = 300 + N(0, 1): from k = 0 the mass is about e**300, where Newton on the mass gains about one
    # unit of k per step (306 exp calls for the classical family); while the mass exceeds 2 the
    # step is Newton's on log mass, exact for the classical family
    rng = np.random.default_rng(0)
    m = finite_measure(np.arange(8.0))
    for _ in range(10):
        p = Density.random(m, rng)
        u = 300.0 + rng.standard_normal(8)
        d, calls = _counting_exp(make_deformed(tag, param))
        k = phi_cumulant(p, u, d)
        assert abs(k - bisection_cumulant(p, u, make_deformed(tag, param))) <= 2e-14 * abs(k)
        assert len(calls) <= most


def test_cumulant_starts_from_a_patch_value_on_the_domain_edge():
    # one patch value sits exactly on the tsallis edge at k = 0, so Newton has no first step and
    # the loop bisects toward the lower end -max|u| of the bracket
    m = finite_measure(np.arange(8.0))
    d = make_deformed("tsallis", 0.5)
    p = Density.from_unnormalized(m, np.ones(8))
    log_p = d.log(p.values)
    u = np.full(8, -0.3)
    u[0] = -2.0 - log_p[0]
    assert d.exp(u + log_p)[0] == 0.0
    oracle = bisection_cumulant(p, u, d)
    assert abs(phi_cumulant(p, u, d) - oracle) <= 2e-14 * max(1.0, abs(oracle))


def test_cumulant_without_a_unit_mass_root_stops_at_the_domain_edge(space):
    # the tsallis draws of test_phi_cumulant_subgradient: three have no unit-mass root, so k is the
    # largest constant that keeps the patch inside the domain, below the edge min(u + log_q p) + 1/(1 - q)
    rng, m = space
    p = Density.random(m, rng)
    d = make_deformed("tsallis", 0.6)
    rng.standard_normal(8 * 10)  # the classical family's draws
    no_root = 0
    for _ in range(10):
        raw = 0.5 * rng.standard_normal(8)
        u = raw - escort_expect(p, raw, d)
        counting_d, calls = _counting_exp(d)
        k = phi_cumulant(p, u, counting_d)
        assert len(calls) <= 20
        vals = d.exp(u - k + d.log(p.values))
        if float(m.weights @ vals) > 1.0 + 1e-9:
            no_root += 1
            oracle = bisection_cumulant(p, u, d)
            assert abs(k - oracle) <= 2e-14 * max(1.0, abs(oracle))
            assert np.all(vals > 0.0) and float(m.weights @ vals) > 1.0 + 1e-3
            edge = float(np.min(u + d.log(p.values))) + 1.0 / (1.0 - 0.6)
            assert 0.0 <= edge - k <= 2e-14 * max(1.0, edge)
    assert no_root == 3


@pytest.mark.parametrize("seed,oracle_calls_at_least", [(0, 50), (91, 25)])
def test_cumulant_on_a_mass_plateau_takes_few_exp_calls(seed, oracle_calls_at_least):
    # for small k the computed mass rounds to 1 over a stretch of k: a bracketing solve in r = 1/k
    # bisects it (seed 0: the old Illinois solve took 80 exp calls, plain bisection 62), and
    # Newton without its rounding-floor stop bounces along it (seed 91)
    rng = np.random.default_rng(seed)
    m = finite_measure(np.arange(8.0))
    d = make_deformed("kaniadakis", 0.36)
    p = Density.random(m, rng)
    raw = 0.05 * rng.standard_normal(8)
    u = raw - escort_expect(p, raw, d)
    oracle_d, oracle_calls = _counting_exp(d)
    newton_d, newton_calls = _counting_exp(d)
    oracle = bisection_cumulant(p, u, oracle_d)
    k = phi_cumulant(p, u, newton_d)
    assert 1e-4 < k < 1e-3 and abs(k - oracle) <= 2e-14
    assert len(oracle_calls) >= oracle_calls_at_least and len(newton_calls) <= 10


@pytest.mark.parametrize("tag,param", [("classical", None), ("tsallis", 0.999), ("kaniadakis", 0.3), ("newton", None)])
def test_cumulant_counts_an_underflowed_patch_value_as_a_value(tag, param):
    # u = (-800, 0, ..., 0, 1) on a uniform 8-point p: the -800 entry of the patch underflows to 0
    # for every k above about -56 (kaniadakis decays like a power and stays positive), though only
    # tsallis has a domain edge, at -1000 here; counted as a domain exit, the 0 drove the classical
    # k to -56.95 at mass 5.9e24, newton to -56.82 and tsallis to -276.7
    m = finite_measure(np.arange(8.0))
    p = Density.uniform(m)
    u = np.zeros(8)
    u[0], u[-1] = -800.0, 1.0
    d = make_deformed(tag, param)
    k = phi_cumulant(p, u, d)
    member = d.exp(u - k + d.log(p.values))
    assert abs(float(m.weights @ member) - 1.0) <= 1e-14
    assert abs(k - bisection_cumulant(p, u, d)) <= 2e-14 * max(1.0, abs(k))
    if tag == "classical":
        assert abs(k - math.log(float(p.prob @ np.exp(u)))) <= 1e-14
    if np.all(member > 0.0):
        assert phi_patch(p, u, d).values.tobytes() == Density.from_unnormalized(m, member).values.tobytes()
    else:
        # the member's -800 entry is 0, which no density holds: no renormalized stand-in either
        assert tag != "kaniadakis"
        with pytest.raises(InvariantError, match="positive"):
            phi_patch(p, u, d)


def test_phi_cumulant_overflow_raises_without_a_warning(space):
    # the patch at k = 0 overflows: one InvariantError, with no RuntimeWarning (an error under pytest)
    rng, m = space
    p = Density.random(m, rng)
    u = np.zeros(8)
    u[3] = 800.0
    with pytest.raises(InvariantError, match="diverges"):
        phi_cumulant(p, u, make_deformed("classical"))


def test_phi_patch_chart_roundtrip(space):
    rng, m = space
    for tag, param in ALL_FAMILIES:
        d = make_deformed(tag, param)
        for _ in range(5):
            p = Density.random(m, rng)
            q = Density.random(m, rng)
            res = phi_chart(p, q, d)
            assert res.k >= 0.0
            back = phi_patch(p, res.u, d)
            assert np.max(np.abs(back.values - q.values)) < 1e-10
            assert phi_cumulant(p, res.u, d) == pytest.approx(res.k, abs=1e-10)
            same = phi_chart(p, p, d)
            assert np.max(np.abs(same.u.values)) < 1e-13 and abs(same.k) < 1e-13


def test_phi_chart_classical_reduction(space):
    rng, m = space
    p = Density.random(m, rng)
    q = Density.random(m, rng)
    d = make_deformed("classical")
    res = phi_chart(p, q, d)
    cs = chart_s(p, q)
    assert np.max(np.abs(res.u.values - cs.values)) < 1e-12
    assert res.k == pytest.approx(cumulant(p, cs), abs=1e-12)
    assert np.max(np.abs(phi_patch(p, res.u, d).values - patch_e(p, cs).values)) < 1e-12


def test_phi_arc(space):
    rng, m = space
    p0 = Density.random(m, rng)
    p1 = Density.random(m, rng)
    for tag, param in ALL_FAMILIES:
        d = make_deformed(tag, param)
        a0 = phi_arc(p0, p1, d, 0.0)
        assert np.max(np.abs(a0.density.values - p0.values)) < 1e-12
        assert a0.psi == 0.0
        a1 = phi_arc(p0, p1, d, 1.0)
        assert np.max(np.abs(a1.density.values - p1.values)) < 1e-12
        # at the far end the normalizer equals the escort pairing of the log gap
        pairing = float(
            m.weights @ (d.phi(p0.values) * (d.log(p0.values) - d.log(p1.values)))
        )
        assert a1.psi == pytest.approx(pairing, abs=1e-10)
        # the family member always carries unit mass
        mid = phi_arc(p0, p1, d, 0.5)
        assert abs(mid.family_density.mass() - 1.0) < 1e-12
    # classical tag: the arc and the one-parameter family coincide
    dc = make_deformed("classical")
    mid = phi_arc(p0, p1, dc, 0.5)
    assert np.max(np.abs(mid.density.values - mid.family_density.values)) < 1e-12
    assert mid.pairing_unnormalized == pytest.approx(mid.pairing_normalized, rel=1e-12)
    # deformed tag: the two interpolations genuinely differ between endpoints
    dt = make_deformed("tsallis", 0.6)
    mid_t = phi_arc(p0, p1, dt, 0.5)
    assert np.max(np.abs(mid_t.density.values - mid_t.family_density.values)) > 1e-6


@pytest.mark.parametrize("tag,param", ALL_FAMILIES)
def test_phi_arc_family_member_is_the_patch(space, tag, param):
    rng, m = space
    p0 = Density.random(m, rng)
    p1 = Density.random(m, rng)
    d = make_deformed(tag, param)
    u = phi_chart(p0, p1, d).u
    for t in (0.3, 0.5, 1.0):
        arc = phi_arc(p0, p1, d, t)
        # the arc reuses psi for its family member instead of solving it again
        assert np.array_equal(arc.family_density.values, phi_patch(p0, t * u.values, d).values)
        assert arc.psi == phi_cumulant(p0, t * u.values, d)


@pytest.mark.parametrize("tag,param", ALL_FAMILIES)
def test_arc_and_patch_take_log_phi_once_per_input(space, tag, param):
    # phi_arc needs log_phi of p0, p1 and the arc density, and the escort weight phi(p0), once each;
    # phi_patch needs log_phi p once.  The cumulant's Newton slope also calls phi, on patch values.
    rng, m = space
    p0 = Density.random(m, rng)
    p1 = Density.random(m, rng)
    d = make_deformed(tag, param)
    logs, phis = [], []
    counted = dataclasses.replace(
        d, log=lambda v: logs.append(v) or d.log(v), phi=lambda x: phis.append(x) or d.phi(x)
    )
    for t in (0.0, 0.5, 1.0):
        logs.clear()
        phis.clear()
        arc = phi_arc(p0, p1, counted, t)
        assert (len(logs), sum(x is p0.values for x in phis)) == (3, 1)
        plain = phi_arc(p0, p1, d, t)
        assert arc.psi == plain.psi and arc.pairing_unnormalized == plain.pairing_unnormalized
        assert np.array_equal(arc.family_density.values, plain.family_density.values)
    u = 0.5 * phi_chart(p0, p1, d).u.values
    logs.clear()
    patched = phi_patch(p0, u, counted)
    assert len(logs) == 1
    assert np.array_equal(patched.values, phi_patch(p0, u, d).values)


def test_phi_arc_still_checks_the_chart_reconstruction(space):
    rng, m = space
    p0 = Density.random(m, rng)
    p1 = Density.random(m, rng)
    d = make_deformed("tsallis", 0.6)
    skewed = dataclasses.replace(d, log=lambda v: d.log(v) * (1.0 + 1e-6))
    with pytest.raises(InvariantError, match="reconstruction defect"):
        phi_arc(p0, p1, skewed, 0.5)


def test_normalizer_sign_at_intermediate_t(space):
    # the chart statistic is centered against the unnormalized escort weight,
    # so when the escort mass is not one the arc normalizer can dip below
    # zero between the endpoints; it must vanish at t=0 and be >= 0 at t=1
    rng = np.random.default_rng(0)
    m = finite_measure(np.arange(8.0))
    p = Density.random(m, rng)
    q = Density.random(m, rng)
    d = make_deformed("kaniadakis", 0.3)
    psis = [phi_arc(p, q, d, float(t)).psi for t in np.linspace(0.0, 1.0, 11)]
    assert psis[0] == 0.0
    assert psis[-1] >= 0.0
    assert min(psis) < 0.0  # this instance genuinely crosses below zero
    for t in (0.1, 0.5, 0.9):
        res = phi_arc(p, q, d, t)
        assert abs(res.family_density.mass() - 1.0) < 1e-12


def test_phi_cumulant_domain_exit_raises(space):
    rng, m = space
    p = Density.random(m, rng)
    d = make_deformed("tsallis", 0.5)
    huge = RandomVariable(m, np.array([-50.0, 50.0, 0, 0, 0, 0, 0, 0], dtype=float))
    with pytest.raises(InvariantError):
        phi_cumulant(p, huge, d)


def test_phi_connection_transitivity_witness(space):
    # with endpoints connected on overlapping intervals, the composed pair is
    # connected on the interval predicted by convexity of the mass function
    rng, m = space
    d = make_deformed("tsallis", 0.7)
    p = Density.random(m, rng)
    q = Density.random(m, rng)
    r = Density.random(m, rng)
    inner = np.linspace(0.05, 0.95, 7)
    for pair in ((p, q), (q, r), (p, r)):
        rows = phi_connected(pair[0], pair[1], d, inner)
        assert all(x.finite for x in rows)
