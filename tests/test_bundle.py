import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import igc
from igc.bundle import (
    SphereVector,
    _chord_transport,
    covariant_derivative_sphere,
    embed_sqrt,
    hermite_transport_demo,
    hilbert_transport,
    metric_derivative,
    sphere_chart,
    sphere_dot,
    sphere_patch,
    sphere_point,
    sphere_tangent,
    sphere_transport,
    tangent_bundle_chart,
    tangent_bundle_patch,
)
from igc.manifold import patch_e
from igc.measures import (
    Density,
    InvariantError,
    RandomVariable,
    covariance,
    expect,
    finite_measure,
    gauss_hermite_measure,
    tangent,
)
from oracles import hermite_values


@pytest.fixture
def space():
    rng = np.random.default_rng(20)
    m = finite_measure(np.arange(12.0))
    return rng, m


def test_embed_examples(space):
    rng, m = space
    four = finite_measure(np.arange(4.0))
    x = embed_sqrt(Density.uniform(four))
    assert np.allclose(x.values, 0.5)
    p = Density.random(m, rng)
    xp = embed_sqrt(p)
    assert sphere_dot(xp, xp) == pytest.approx(1.0, abs=1e-14)


def test_embed_derivative(space):
    rng, m = space
    p = Density.random(m, rng)
    w = tangent(p, rng.standard_normal(12))
    t = 1e-5
    plus = embed_sqrt(patch_e(p, tangent(p, t * w.values))).values
    minus = embed_sqrt(patch_e(p, tangent(p, -t * w.values))).values
    fd = (plus - minus) / (2 * t)
    expected = 0.5 * w.values * np.sqrt(p.values)
    assert np.max(np.abs(fd - expected)) <= 1e-5 * np.max(np.abs(expected))


def test_sphere_vector_invariants(space):
    rng, m = space
    with pytest.raises(InvariantError):
        SphereVector(m, np.ones(12))  # squared norm is 12, not 1
    x = sphere_point(m, rng.standard_normal(12))
    with pytest.raises(InvariantError):
        SphereVector(m, x.values + 1.0, at=x)  # not orthogonal to x


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sphere_vector_rejects_values_that_are_not_finite(bad):
    four = finite_measure(np.arange(4.0))
    with pytest.raises(InvariantError, match="squared norm"):
        SphereVector(four, [bad, 0.5, 0.5, 0.5])
    y = SphereVector(four, np.full(4, 0.5))
    with pytest.raises(InvariantError, match="^sphere tangent values must be finite$"):
        SphereVector(four, [bad, 0.0, 0.0, 0.0], at=y)


def test_sphere_vector_leaves_the_caller_array_writeable(space):
    rng, m = space
    raw = rng.standard_normal(12)
    raw /= np.sqrt(np.sum(raw * raw))
    x = SphereVector(m, raw)
    assert raw.flags.writeable and not x.values.flags.writeable
    raw[0] += 1.0  # the sphere point keeps its own copy
    assert sphere_dot(x, x) == pytest.approx(1.0, abs=1e-14)


def test_sphere_chart_patch_roundtrip(space):
    rng, m = space
    x = sphere_point(m, rng.standard_normal(12) + 3.0)
    for _ in range(10):
        y = sphere_point(m, x.values + 0.3 * rng.standard_normal(12))
        u = sphere_chart(x, y)
        assert abs(sphere_dot(u, x)) < 1e-12
        back = sphere_patch(x, u)
        assert np.max(np.abs(back.values - y.values)) < 1e-12
        assert sphere_dot(back, back) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(sphere_chart(x, x).values)) < 1e-14


def test_sphere_patch_takes_a_vector_from_another_base_point_object_to_x():
    m = finite_measure(np.arange(4.0))
    x = sphere_point(m, np.ones(4))
    twin = sphere_point(m, np.ones(4))  # equal values, a distinct object
    u = sphere_tangent(twin, [0.6, -0.6, 0.0, 0.0])
    patched = sphere_patch(x, u)  # u is re-tangented at x, where it is orthogonal too
    assert sphere_dot(patched, patched) == pytest.approx(1.0, abs=1e-15)
    assert patched.values.tobytes() == sphere_patch(x, sphere_tangent(x, u.values)).values.tobytes()
    # a sphere point, not a tangent, is re-tangented at x as well, and one that is not orthogonal to x is refused
    with pytest.raises(InvariantError, match="tangent vector is not orthogonal to its base point"):
        sphere_patch(x, sphere_point(m, [1.0, 0.0, 0.0, 0.0]))


def test_sphere_transport_isometry_and_inverse(space):
    rng, m = space
    for _ in range(10):
        x = sphere_point(m, rng.standard_normal(12))
        y = sphere_point(m, rng.standard_normal(12))
        u = sphere_tangent(x, rng.standard_normal(12))
        v = sphere_tangent(x, rng.standard_normal(12))
        uu = sphere_transport(x, y, u)
        vv = sphere_transport(x, y, v)
        assert abs(sphere_dot(uu, y)) < 1e-12 * max(1.0, np.max(np.abs(uu.values)))
        assert sphere_dot(uu, vv) == pytest.approx(sphere_dot(u, v), abs=1e-13)
        back = sphere_transport(y, x, uu)
        assert np.max(np.abs(back.values - u.values)) < 1e-12
    x = sphere_point(m, rng.standard_normal(12))
    u = sphere_tangent(x, rng.standard_normal(12))
    same = sphere_transport(x, x, u)
    assert np.max(np.abs(same.values - u.values)) < 1e-14


def test_sphere_transport_not_transitive(space):
    rng, m = space
    x = sphere_point(m, rng.standard_normal(12))
    y = sphere_point(m, rng.standard_normal(12))
    z = sphere_point(m, rng.standard_normal(12))
    u = sphere_tangent(x, rng.standard_normal(12))
    via = sphere_transport(y, z, sphere_transport(x, y, u))
    direct = sphere_transport(x, z, u)
    assert np.max(np.abs(via.values - direct.values)) > 1e-3
    # coplanar case: z in the plane of x and y gives equality
    mix = 0.4 * x.values + 0.6 * y.values
    z_plane = sphere_point(m, mix)
    via_p = sphere_transport(y, z_plane, sphere_transport(x, y, u))
    direct_p = sphere_transport(x, z_plane, u)
    assert np.max(np.abs(via_p.values - direct_p.values)) < 1e-12


def test_tangent_bundle_chart_roundtrip(space):
    rng, m = space
    x1 = sphere_point(m, rng.standard_normal(12) + 2.0)
    x2 = sphere_point(m, x1.values + 0.2 * rng.standard_normal(12))
    y = sphere_point(m, x1.values + 0.2 * rng.standard_normal(12))
    v = sphere_tangent(y, rng.standard_normal(12))
    u1, w1 = tangent_bundle_chart(x1, y, v)
    # transition to the chart at x2 and back, then invert
    u2, w2 = tangent_bundle_chart(x2, *tangent_bundle_patch(x1, u1, w1))
    u1b, w1b = tangent_bundle_chart(x1, *tangent_bundle_patch(x2, u2, w2))
    assert np.max(np.abs(u1b.values - u1.values)) < 1e-12
    assert np.max(np.abs(w1b.values - w1.values)) < 1e-12
    y2, v2 = tangent_bundle_patch(x1, u1, w1)
    assert np.max(np.abs(y2.values - y.values)) < 1e-12
    assert np.max(np.abs(v2.values - v.values)) < 1e-12


def test_transport_derivative_vanishes_at_base(space):
    rng, m = space
    x = sphere_point(m, rng.standard_normal(12))
    u = sphere_tangent(x, rng.standard_normal(12))
    w = sphere_tangent(x, rng.standard_normal(12))
    h = 1e-5
    moved_p = sphere_point(m, x.values + h * w.values)
    moved_m = sphere_point(m, x.values - h * w.values)
    up = _chord_transport(m.weights, moved_p.values, x.values)(u.values)
    um = _chord_transport(m.weights, moved_m.values, x.values)(u.values)
    fd = (up - um) / (2 * h)
    assert np.max(np.abs(fd)) <= 10.0 * h * max(1.0, float(np.max(np.abs(u.values))))


def test_hilbert_transport(space):
    rng, m = space
    for _ in range(10):
        p = Density.random(m, rng)
        q = Density.random(m, rng)
        u = tangent(p, rng.standard_normal(12))
        same = hilbert_transport(p, p, u)
        assert np.max(np.abs(same.values - u.values)) < 1e-14
        moved = hilbert_transport(p, q, u)
        assert abs(expect(q, moved.values)) < 1e-13
        assert expect(q, moved.values**2) == pytest.approx(expect(p, u.values**2), abs=1e-12)
        back = hilbert_transport(q, p, moved)
        assert np.max(np.abs(back.values - u.values)) < 1e-12
        v = tangent(q, rng.standard_normal(12))
        lhs = expect(q, moved.values * v.values)
        rhs = expect(p, u.values * hilbert_transport(q, p, v).values)
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_bundle_accepts_a_vector_at_an_equal_density(space):
    # the fibre check compares densities by identity first; an equal twin passes the full check
    rng, m = space
    p, q = Density.random(m, rng), Density.random(m, rng)
    twin = Density(m, p.values)
    u = tangent(p, rng.standard_normal(12))
    assert np.array_equal(hilbert_transport(twin, q, u).values, hilbert_transport(p, q, u).values)
    f0_dot = rng.standard_normal(12)
    assert np.array_equal(metric_derivative(twin, u, f0_dot, u).values, metric_derivative(p, u, f0_dot, u).values)


def test_hilbert_transport_factors_through_sphere(space):
    rng, m = space
    p = Density.random(m, rng)
    q = Density.random(m, rng)
    u = tangent(p, rng.standard_normal(12))
    x, y = embed_sqrt(p), embed_sqrt(q)
    lifted = SphereVector(m, np.sqrt(p.values) * u.values, at=x)
    via = sphere_transport(x, y, lifted).values / np.sqrt(q.values)
    direct = hilbert_transport(p, q, u).values
    assert np.max(np.abs(via - direct)) < 1e-12


def test_covariant_derivative_linear_field(space):
    rng, m = space
    x = sphere_point(m, rng.standard_normal(12))
    c = rng.standard_normal(12)
    w = sphere_tangent(x, rng.standard_normal(12))
    deriv = covariant_derivative_sphere(lambda z: sphere_tangent(z, c), w, x)
    cx = float(m.weights @ (c * x.values))
    expected = -cx * w.values
    assert np.max(np.abs(deriv.values - expected)) <= 1e-6 * max(1.0, np.max(np.abs(expected)))


def test_covariant_derivative_constant_chart_field(space):
    rng, m = space
    x = sphere_point(m, rng.standard_normal(12))
    c0 = sphere_tangent(x, rng.standard_normal(12))
    w = sphere_tangent(x, rng.standard_normal(12))
    deriv = covariant_derivative_sphere(lambda z: sphere_transport(x, z, c0), w, x)
    assert np.max(np.abs(deriv.values)) < 1e-8


def test_covariant_derivative_metric_compatibility(space):
    rng, m = space
    a = rng.standard_normal(12)
    b = rng.standard_normal(12)
    c = rng.standard_normal(12)

    def F(z):
        return sphere_tangent(z, a)

    def G(z):
        return sphere_tangent(z, b)

    def W(z):
        return sphere_tangent(z, c)

    x0 = sphere_point(m, rng.standard_normal(12) + 2.0)

    def flow(x, t, steps=64):
        vals = x.values
        h = t / steps
        for _ in range(steps):
            k1 = W(sphere_point(m, vals)).values
            k2 = W(sphere_point(m, vals + 0.5 * h * k1)).values
            k3 = W(sphere_point(m, vals + 0.5 * h * k2)).values
            k4 = W(sphere_point(m, vals + h * k3)).values
            vals = vals + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            vals = sphere_point(m, vals).values
        return sphere_point(m, vals)

    def g_of_t(t):
        xt = flow(x0, t) if t != 0 else x0
        return sphere_dot(F(xt), G(xt))

    h = 1e-4
    lhs = (g_of_t(h) - g_of_t(-h)) / (2 * h)
    w0 = W(x0)
    rhs = sphere_dot(covariant_derivative_sphere(F, w0, x0), G(x0)) + sphere_dot(
        F(x0), covariant_derivative_sphere(G, w0, x0)
    )
    assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-8)


def _curve_setup(rng, m):
    p = Density.random(m, rng)
    w = tangent(p, rng.standard_normal(m.size))
    h_rv = rng.standard_normal(m.size)

    def field_along(t):
        pt = patch_e(p, tangent(p, t * w.values))
        return tangent(pt, h_rv), pt

    f0, _ = field_along(0.0)
    f0dot = np.full(m.size, -covariance(p, h_rv, w.values))
    return p, w, field_along, f0, f0dot


def test_metric_derivative_matches_transport_difference(space):
    rng, m = space
    for _ in range(10):
        p, w, field_along, f0, f0dot = _curve_setup(rng, m)
        deriv = metric_derivative(p, f0, f0dot, w)
        h = 1e-4
        fp, pp = field_along(h)
        fm, pm = field_along(-h)
        fd = (hilbert_transport(pp, p, fp).values - hilbert_transport(pm, p, fm).values) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(deriv.values))))
        assert np.max(np.abs(fd - deriv.values)) <= 1e-5 * scale


def test_metric_derivative_zero(space):
    rng, m = space
    p = Density.random(m, rng)
    w = tangent(p, rng.standard_normal(12))
    out = metric_derivative(p, tangent(p, np.zeros(12)), np.zeros(12), w)
    assert np.max(np.abs(out.values)) == 0.0


def test_metric_derivative_product_rule(space):
    rng, m = space
    for _ in range(10):
        p = Density.random(m, rng)
        w = tangent(p, rng.standard_normal(12))
        h1 = rng.standard_normal(12)
        h2 = rng.standard_normal(12)

        def pair_along(t):
            pt = patch_e(p, tangent(p, t * w.values))
            return tangent(pt, h1), tangent(pt, h2), pt

        f1, f2, _ = pair_along(0.0)
        d1 = metric_derivative(p, f1, np.full(12, -covariance(p, h1, w.values)), w)
        d2 = metric_derivative(p, f2, np.full(12, -covariance(p, h2, w.values)), w)
        rhs = expect(p, d1.values * f2.values) + expect(p, f1.values * d2.values)
        h = 1e-4

        def product_expectation(t):
            a, b, pt = pair_along(t)
            return expect(pt, a.values * b.values)

        lhs = (product_expectation(h) - product_expectation(-h)) / (2 * h)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_hermite_transport(space):
    gh = gauss_hermite_measure(40)
    y = RandomVariable(gh, gh.points)  # degree-one polynomial with unit second moment
    report = hermite_transport_demo(y, 5)
    assert report.max_offdiag <= 1e-10
    assert report.max_diag_defect <= 1e-10
    trivial = hermite_transport_demo(y, 1)
    assert trivial.max_offdiag == 0.0
    # transported vectors are tangent at y: mean against y vanishes
    x = SphereVector(gh, np.ones(gh.size))
    ypt = SphereVector(gh, y.values)
    h3 = hermite_values(3, gh.points)
    moved = sphere_transport(x, ypt, SphereVector(gh, h3, at=x))
    assert abs(sphere_dot(moved, ypt)) < 1e-12


def test_hermite_transport_takes_each_degree_from_hermite_values_bitwise():
    # one recurrence for every degree, against a fresh hermite_values call per degree
    gh = gauss_hermite_measure(32)
    rng = np.random.default_rng(16)
    y = rng.standard_normal(gh.size)
    y = RandomVariable(gh, y / np.sqrt(gh.weights @ (y * y)))
    x, ypt = SphereVector(gh, np.ones(gh.size)), SphereVector(gh, y.values)
    rows = []
    for n in range(1, 17):
        hn = hermite_values(n, gh.points)
        rows.append(sphere_transport(x, ypt, SphereVector(gh, hn - gh.weights @ hn, at=x)).values)
    mat = np.stack(rows)
    assert hermite_transport_demo(y, 16).gram.tobytes() == ((mat * gh.weights) @ mat.T).tobytes()


def test_hermite_quadrature_guard():
    gh = gauss_hermite_measure(6)
    y = RandomVariable(gh, gh.points)
    with pytest.raises(InvariantError):
        hermite_transport_demo(y, 4)
    bad = RandomVariable(gh, 2.0 * gh.points)
    with pytest.raises(InvariantError):
        hermite_transport_demo(bad, 3)
    with pytest.raises(InvariantError, match="antipodal"):
        hermite_transport_demo(RandomVariable(gh, -np.ones(gh.size)), 3)
    # one tolerance decides whether y is a unit point: the sphere's, 1e-10 on E[y^2]
    gh = gauss_hermite_measure(40)
    with pytest.raises(InvariantError, match="squared norm"):
        hermite_transport_demo(RandomVariable(gh, gh.points * np.sqrt(1 + 1e-9)), 3)
    hermite_transport_demo(RandomVariable(gh, gh.points * np.sqrt(1 + 1e-12)), 3)


def test_sphere_domain_guards(space):
    rng, m = space
    x = sphere_point(m, rng.standard_normal(12))
    u = sphere_tangent(x, rng.standard_normal(12))
    antipode = SphereVector(m, -x.values)
    with pytest.raises(InvariantError):
        sphere_transport(x, antipode, u)
    with pytest.raises(InvariantError):
        sphere_chart(x, antipode)  # inner product is -1, outside the hemisphere
    with pytest.raises(InvariantError):
        sphere_transport(x, antipode, x)  # points are not tangent vectors


def test_support_sums_do_not_depend_on_blas_threads():
    # at this size a plain BLAS dot product is split across the thread pool
    src = str(Path(igc.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hashlib; import numpy as np; "
        "from igc import bundle, deformed, measures, orlicz; "
        "rng = np.random.default_rng(5); m = measures.finite_measure(np.arange(3.0 * 8192 + 5)); "
        "p = measures.Density.random(m, rng); q = measures.Density.random(m, rng); "
        "v = rng.standard_normal(m.size); fixed = measures.TangentVector(p, measures.tangent(p, v).values); "
        "outs = {'tangent': measures.tangent(p, v).values, "
        "'hilbert_transport': bundle.hilbert_transport(p, q, fixed).values, "
        "'dual_norm': orlicz.dual_norm(p, v, orlicz.young_pair('a')), "
        "'phi_norm': deformed.phi_norm(p, v, deformed.make_deformed('classical'))}; "
        "[print(k, hashlib.sha256(np.asarray(x, dtype=float).tobytes()).hexdigest()) for k, x in outs.items()]"
    )
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        runs.append(out.stdout.splitlines())
    assert len(runs[0]) == 4
    assert runs[0] == runs[1]
