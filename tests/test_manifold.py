import math

import numpy as np
import pytest

from igc.bundle import embed_sqrt
from igc.manifold import (
    chart_m,
    chart_s,
    cumulant,
    cumulant_derivatives,
    cumulant_gradient,
    cumulant_gradient_derivative,
    divergence,
    e_convergence_diagnostic,
    orthogonal_mixture_third,
    patch_e,
    patch_m,
    pythagorean_check,
    transition_e,
    transport_e,
    transport_m,
)
from igc.measures import (
    Density,
    InvariantError,
    RandomVariable,
    coordinate,
    covariance,
    expect,
    finite_measure,
    gauss_legendre_measure,
    periodic_grid_measure,
    tangent,
)


@pytest.fixture
def space():
    rng = np.random.default_rng(10)
    m = finite_measure(np.arange(8.0))
    return rng, m


def test_cumulant_examples(space):
    rng, m = space
    p = Density.random(m, rng)
    assert cumulant(p, tangent(p, np.zeros(8))) == 0.0
    two = finite_measure([1.0, -1.0])
    pu = Density.uniform(two)
    assert cumulant(pu, tangent(pu, coordinate(two).values)) == pytest.approx(
        math.log(math.cosh(1.0)), rel=1e-14
    )
    for _ in range(10):
        u = tangent(p, rng.standard_normal(8))
        assert cumulant(p, u) > 0.0


def test_cumulant_requires_centering(space):
    rng, m = space
    p = Density.random(m, rng)
    with pytest.raises(InvariantError):
        cumulant(p, RandomVariable.constant(m, 1.0))


@pytest.mark.parametrize("raw", [[math.nan] * 4, [math.inf, 0.0, 0.0, 0.0]])
@pytest.mark.parametrize("fn", [cumulant, patch_e])
def test_chart_rejects_non_finite_coordinates(fn, raw):
    p = Density.uniform(finite_measure(np.arange(4.0)))
    with pytest.raises(InvariantError, match="not finite"):
        fn(p, np.array(raw))


def test_patch_chart_roundtrips(space):
    rng, m = space
    for _ in range(10):
        p = Density.random(m, rng)
        q = Density.random(m, rng)
        u = chart_s(p, q)
        assert np.max(np.abs(patch_e(p, u).values - q.values)) < 1e-12
        w = tangent(p, rng.standard_normal(8))
        back = chart_s(p, patch_e(p, w))
        assert np.max(np.abs(back.values - w.values)) < 1e-12
        assert abs(patch_e(p, w).mass() - 1.0) < 1e-12
        # the centering constant of the log ratio is the cumulant
        assert -expect(p, np.log(patch_e(p, w).values / p.values)) == pytest.approx(
            cumulant(p, w), rel=1e-10, abs=1e-12
        )


def test_patch_e_identity(space):
    rng, m = space
    p = Density.random(m, rng)
    out = patch_e(p, tangent(p, np.zeros(8)))
    assert np.max(np.abs(out.values - p.values)) < 1e-15


@pytest.mark.parametrize(
    "base",
    [finite_measure(np.arange(4.0)), periodic_grid_measure(0.0, 1.0, 8)],
    ids=["finite", "periodic-grid"],
)
def test_patch_e_floors_log_density(base):
    # every entry but the last sits about 2000 below the peak, far under the -700 floor of
    # log(q/p) + log p - K, so each is floored to exp(-700) and then renormalised
    p = Density.uniform(base)
    raw = np.zeros(base.size)
    raw[-1] = 2000.0
    q = patch_e(p, raw - expect(p, raw))
    h = float(base.weights[0])
    floor = math.exp(-700.0)
    mass = 1.0 + (base.size - 1) * h * floor
    np.testing.assert_allclose(q.values[:-1], floor / mass, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(q.values[-1], 1.0 / (h * mass), rtol=1e-12, atol=0.0)
    assert abs(q.mass() - 1.0) <= 1e-15


@pytest.mark.parametrize(
    "base",
    [finite_measure(np.arange(16.0)), periodic_grid_measure(0.0, 1.0, 16)],
    ids=["finite", "periodic-grid"],
)
def test_patch_e_checks_its_density_on_the_minimum_it_took(monkeypatch, base):
    # one minimum serves the floor and the Density check; after the floor's renormalisation it is derived as
    # floor / mass, and must still be the least entry, bit for bit
    seen = []
    adopt = Density._adopt.__func__

    def spy(cls, b, values, low):
        seen.append((values, low))
        return adopt(cls, b, values, low)

    monkeypatch.setattr(Density, "_adopt", classmethod(spy))
    rng = np.random.default_rng(3)
    floor = math.exp(-700.0)
    for k in range(60):
        p = Density.random(base, rng)
        raw = 3.0 * rng.standard_normal(base.size)
        raw[: k % 3] = -2000.0  # none, one or two entries far below the floor
        q = patch_e(p, raw - expect(p, raw))
        assert seen[-1][0] is q.values and seen[-1][1] == float(q.values.min())
    floored = [low for _, low in seen if low < 1.01 * floor]
    assert len(floored) == 40 and any(low != floor for low in floored)  # the floor's mass is not always 1.0


def test_patch_e_keeps_precision_on_tiny_weights():
    # on weights of 1e-30 the density is about 1e30 at the peak, so entries exp(-720.3) below it
    # stay above the floor; their exponentials must keep full precision, never pass through subnormals
    base = finite_measure(np.arange(4.0), np.full(4, 1e-30))
    p = Density.uniform(base)
    raw = np.array([0.0, 0.0, 0.0, 720.3])
    q = patch_e(p, raw - expect(p, raw)).values
    np.testing.assert_allclose(np.log(q[:-1]) - np.log(q[-1]), -720.3, rtol=0.0, atol=1e-12)


def test_cumulant_derivatives_match_finite_differences(space):
    from oracles import fd_gradient, fd_hessian

    rng, m = space
    for _ in range(10):
        p = Density.random(m, rng)
        u = tangent(p, 0.4 * rng.standard_normal(8))
        dirs = [tangent(p, rng.standard_normal(8)) for _ in range(3)]
        grad, hess = cumulant_derivatives(p, u, dirs)
        scale_g = max(1.0, float(np.max(np.abs(grad))))
        scale_h = max(1.0, float(np.max(np.abs(hess))))
        for i, v in enumerate(dirs):
            fd = fd_gradient(p, u.values, v.values)
            assert abs(fd - grad[i]) <= 1e-6 * scale_g
        for i in range(3):
            for j in range(3):
                fd = fd_hessian(p, u.values, dirs[i].values, dirs[j].values)
                assert abs(fd - hess[i, j]) <= 1e-6 * scale_h


def test_gradient_identity_and_monotonicity(space):
    rng, m = space
    p = Density.random(m, rng)
    for _ in range(10):
        u = tangent(p, 0.5 * rng.standard_normal(8))
        v = tangent(p, 0.5 * rng.standard_normal(8))
        q = patch_e(p, u)
        g = cumulant_gradient(p, u)
        assert np.max(np.abs(g.values - (q.values / p.values - 1.0))) < 1e-13
        if np.max(np.abs(u.values - v.values)) > 1e-12:
            gap = expect(
                p,
                (cumulant_gradient(p, u).rv - cumulant_gradient(p, v).rv)
                * (u.rv - v.rv),
            )
            assert gap > 0.0


def test_gradient_weak_derivative(space):
    rng, m = space
    p = Density.random(m, rng)
    u = tangent(p, 0.3 * rng.standard_normal(8))
    w = tangent(p, rng.standard_normal(8))
    h = 1e-5
    closed = cumulant_gradient_derivative(p, u, w).values
    fd = (
        cumulant_gradient(p, tangent(p, u.values + h * w.values)).values
        - cumulant_gradient(p, tangent(p, u.values - h * w.values)).values
    ) / (2 * h)
    assert np.max(np.abs(fd - closed)) <= 1e-5 * max(1.0, np.max(np.abs(closed)))


def test_hessian_positive_semidefinite(space):
    rng, m = space
    p = Density.random(m, rng)
    u = tangent(p, 0.4 * rng.standard_normal(8))
    dirs = [tangent(p, rng.standard_normal(8)) for _ in range(5)]
    _, hess = cumulant_derivatives(p, u, dirs)
    eigs = np.linalg.eigvalsh(hess)
    assert np.min(eigs) >= -1e-12


def test_transition_maps(space):
    rng, m = space
    p1 = Density.random(m, rng)
    p2 = Density.random(m, rng)
    q = Density.random(m, rng)
    u = tangent(p1, rng.standard_normal(8))
    assert np.max(np.abs(transition_e(p1, p1, u).values - u.values)) < 1e-14
    # chart consistency
    moved = transition_e(p1, p2, chart_s(p1, q))
    assert np.max(np.abs(moved.values - chart_s(p2, q).values)) < 1e-12
    # affinity of the transition in the coordinate
    u2 = tangent(p1, rng.standard_normal(8))
    lam = 0.3
    mix = tangent(p1, lam * u.values + (1 - lam) * u2.values)
    lhs = transition_e(p1, p2, mix).values
    rhs = lam * transition_e(p1, p2, u).values + (1 - lam) * transition_e(p1, p2, u2).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # composition with the reverse transition is the identity
    back = transition_e(p2, p1, transition_e(p1, p2, u))
    assert np.max(np.abs(back.values - u.values)) < 1e-12


def test_transports(space):
    rng, m = space
    p = Density.random(m, rng)
    q = Density.random(m, rng)
    r = Density.random(m, rng)
    u = tangent(p, rng.standard_normal(8))
    assert np.max(np.abs(transport_e(p, p, u).values - u.values)) < 1e-14
    moved = transport_e(p, q, u)
    assert abs(expect(q, moved.rv)) < 1e-14
    # the exponential transport composes transitively
    via = transport_e(q, r, transport_e(p, q, u))
    direct = transport_e(p, r, u)
    assert np.max(np.abs(via.values - direct.values)) < 1e-13
    v = tangent(p, rng.standard_normal(8))
    assert np.max(np.abs(transport_m(p, p, v).values - v.values)) < 1e-14
    mv = transport_m(p, q, v)
    assert abs(expect(q, mv.rv)) < 1e-14
    via_m = transport_m(q, r, transport_m(p, q, v))
    assert np.max(np.abs(via_m.values - transport_m(p, r, v).values)) < 1e-12
    # duality pairing is preserved by the transport pair
    lhs = expect(q, mv.rv * transport_e(p, q, u).rv)
    rhs = expect(p, v.rv * u.rv)
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_chart_m(space):
    rng, m = space
    p = Density.random(m, rng)
    q = Density.random(m, rng)
    assert np.max(np.abs(chart_m(p, p).values)) < 1e-14
    v = chart_m(p, q)
    back = patch_m(p, v)
    assert float(back.values @ m.weights) == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(back.values - q.values)) < 1e-13
    # signed unit-mass functions are accepted
    signed = RandomVariable(m, patch_m(p, tangent(p, 4.0 * rng.standard_normal(8))).values)
    assert np.min(signed.values) < 0.0
    chart_m(p, signed)
    # mixture transition map
    p2 = Density.random(m, rng)
    u = chart_m(p, q).values
    lhs = chart_m(p2, q).values
    rhs = u * p.values / p2.values + p.values / p2.values - 1.0
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_a_density_off_unit_mass_is_refused_before_a_chart_refuses_it():
    # centring under p is only as exact as p's unit mass, so a quadrature density is held to the same
    # tolerance; at 1 + 5e-9 every chart below would reject the vector built at p, not the density
    base = gauss_legendre_measure(0.0, 1.0, 2)
    shape = 1.0 + 0.5 * np.sin(3.0 * base.points)
    v = (1.0 + 5e-9) * shape / float(shape @ base.weights)
    with pytest.raises(InvariantError, match="from_unnormalized"):
        Density(base, v)
    p = Density.from_unnormalized(base, v)
    q = Density.from_unnormalized(base, 1.0 + base.points)
    u = tangent(p, coordinate(base))
    chart_s(p, q)
    cumulant_gradient(p, u)
    chart_m(p, q)
    chart_m(p, q.values)
    embed_sqrt(p)


def test_mixture_arc_stays_in_model(space):
    rng, m = space
    p = Density.random(m, rng)
    q = Density.random(m, rng)
    for lam in np.linspace(0.0, 1.0, 11):
        mix = Density(m, (1 - lam) * p.values + lam * q.values)
        assert abs(mix.mass() - 1.0) < 1e-12


def test_divergence(space):
    rng, m = space
    pu = Density.uniform(m)
    assert divergence(pu, pu).direct == pytest.approx(0.0, abs=1e-15)
    for _ in range(100):
        q = Density.random(m, rng)
        r = Density.random(m, rng)
        res = divergence(q, r, pu)
        assert res.direct >= 0.0
        assert abs(res.direct - res.bregman) < 1e-10
        res_self = divergence(q, r)
        assert abs(res_self.direct - res_self.bregman) < 1e-10


def test_divergence_steepest_increase_direction():
    # on a four-state space the u-derivative of the divergence along w is
    # Cov_q(u - v, w); over the unit covariance sphere it peaks at w ~ u - v
    rng = np.random.default_rng(11)
    m = finite_measure(np.arange(4.0))
    p = Density.uniform(m)
    q = Density.random(m, rng)
    r = Density.random(m, rng)
    u = chart_s(p, q)
    v = chart_s(p, r)
    qd = patch_e(p, u)
    diff = u.values - v.values
    best = math.sqrt(covariance(qd, diff, diff))
    # random directions on the covariance sphere never beat the aligned one
    seen = 0.0
    for _ in range(500):
        w = rng.standard_normal(4)
        c = math.sqrt(covariance(qd, w, w))
        if c < 1e-12:
            continue
        seen = max(seen, covariance(qd, diff, w) / c)
    aligned = covariance(qd, diff, diff / best)
    assert aligned == pytest.approx(best, rel=1e-12)
    assert seen <= best + 1e-12
    # finite-difference confirmation of the derivative formula
    h = 1e-6
    w = rng.standard_normal(4)
    dv_fd = (
        divergence(patch_e(p, tangent(p, u.values + h * w)), r, p).direct
        - divergence(patch_e(p, tangent(p, u.values - h * w)), r, p).direct
    ) / (2 * h)
    assert dv_fd == pytest.approx(covariance(qd, diff, w), rel=1e-4, abs=1e-8)


def test_pythagorean(space):
    rng, m = space
    p = Density.random(m, rng)
    q = Density.random(m, rng)
    res_trivial = pythagorean_check(p, p, q)
    assert abs(res_trivial.pairing) < 1e-14
    for _ in range(20):
        r = Density.random(m, rng)
        res = pythagorean_check(p, q, r)
        assert abs(res.defect) < 1e-10
    for _ in range(20):
        r = orthogonal_mixture_third(p, q, rng)
        res = pythagorean_check(p, q, r)
        assert abs(res.pairing) < 1e-12
        assert res.d_r_q == pytest.approx(res.d_r_p + res.d_p_q, abs=1e-10)


def test_e_convergence_diagnostic(space):
    rng, m = space
    p = Density.random(m, rng)
    q = Density.random(m, rng)
    alphas = [1.5, 2.0, 4.0]
    rows = e_convergence_diagnostic([p, p, p], p, alphas)
    assert all(row.forward == 0.0 and row.backward == 0.0 for row in rows)
    # mixture arc sliding toward p: both norms decrease monotonically
    lams = [0.8, 0.6, 0.4, 0.2, 0.1, 0.05]
    seq = [Density(m, (1 - lam) * p.values + lam * q.values) for lam in lams]
    rows = e_convergence_diagnostic(seq, p, [2.0])
    fw = [row.forward for row in rows]
    bw = [row.backward for row in rows]
    assert all(a > b for a, b in zip(fw, fw[1:]))
    assert all(a > b for a, b in zip(bw, bw[1:]))


def test_e_convergence_flags_boundary_drift(space):
    # a sequence can converge pointwise (to a boundary function) while the
    # backward ratio norms blow up; the diagnostic exposes exactly that
    rng, m = space
    p = Density.uniform(m)
    seq = []
    for n in range(1, 7):
        vals = np.ones(8)
        vals[0] = math.exp(-3.0 * n)
        seq.append(Density.from_unnormalized(m, vals))
    gaps = [np.max(np.abs(a.values - b.values)) for a, b in zip(seq, seq[1:])]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))  # pointwise settling
    rows = e_convergence_diagnostic(seq, p, [2.0])
    bw = [row.backward for row in rows]
    assert bw[-1] > 100.0 * bw[0]
    assert all(b2 > b1 for b1, b2 in zip(bw, bw[1:]))
