"""Property-based checks of the centering policy, the deformed log/exp pairs, the exponential chart,
the Hilbert transport, the Pythagorean pairing, the Walsh layer, the shared root-finder, the
norms built on it and the half-line integral c_integral."""

import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from igc._rootfind import decreasing_root
from igc.bundle import (
    SphereVector,
    hermite_transport_demo,
    hilbert_transport,
    metric_derivative,
    sphere_transport,
)
from igc.deformed import make_deformed, phi_norm
from igc.manifold import _log_partition, chart_s, divergence, patch_e, pythagorean_check, transport_e, transport_m
from igc.measures import (
    TOL,
    Density,
    InvariantError,
    RandomVariable,
    boolean_measure,
    c_integral,
    finite_measure,
    gauss_hermite_measure,
    periodic_grid_measure,
    tangent,
)
from igc.orlicz import (
    WalshSpectrum,
    _gf2_kernel_basis,
    boolean_mgf,
    dual_norm,
    inverse_walsh,
    luxemburg_norm,
    YOUNG_TAGS,
    walsh_transform,
    young_pair,
)
from oracles import c_integral_reference, e_m_pairing_reference, hermite_values, log_space_patch, walsh_values

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def assert_centered(vec):
    vals = vec.values
    assert abs(float(vec.at.prob @ vals)) <= TOL * max(1.0, float(np.max(np.abs(vals))))


@PROPERTY_SETTINGS
@given(
    n=st.integers(2, 256),
    spread=st.floats(0.1, 3.0),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_centered_vectors_construct_within_center_tol(n, spread, scale, seed):
    rng = np.random.default_rng(seed)
    m = finite_measure(np.arange(float(n)))
    p = Density.random(m, rng, spread)
    q = Density.random(m, rng, spread)
    raw = scale * rng.standard_normal(n)
    t = tangent(p, raw)
    outputs = [
        t,
        transport_e(p, q, t),
        transport_m(p, q, t),
        hilbert_transport(p, q, t),
        metric_derivative(p, t, scale * rng.standard_normal(n), tangent(p, rng.standard_normal(n))),
    ]
    for vec in outputs:
        assert_centered(vec)


@PROPERTY_SETTINGS
@given(
    n=st.integers(2, 64),
    spread=st.floats(0.1, 3.0),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_e_and_m_transports_are_dual(n, spread, scale, seed):
    # E_q[transport_m(v) * transport_e(u)] = E_p[v u] for v centred under p, against the exact rational pairing
    rng = np.random.default_rng(seed)
    m = finite_measure(np.arange(float(n)))
    p, q = Density.random(m, rng, spread), Density.random(m, rng, spread)
    u = tangent(p, scale * rng.standard_normal(n))
    v = tangent(p, scale * rng.standard_normal(n))
    pairing = float(q.prob @ (transport_m(p, q, v).values * transport_e(p, q, u).values))
    abs_v, mean_q_u = np.abs(v.values), float(q.prob @ u.values)
    bound = float(p.prob @ (abs_v * (np.abs(u.values) + abs(mean_q_u)))) + float(q.prob @ np.abs(u.values)) * float(
        p.prob @ abs_v
    )
    assert abs(pairing - e_m_pairing_reference(p, q, u.values, v.values)) <= 1e-13 * bound


# subnormal kappa is left out: kappa * u then loses all its digits
FAMILIES = st.one_of(
    st.tuples(st.just("classical"), st.none()),
    st.tuples(st.just("tsallis"), st.floats(0.0, 1.0, exclude_min=True)),
    st.tuples(st.just("kaniadakis"), st.just(0.0) | st.floats(1e-300, 1.0, exclude_max=True)),
    st.tuples(st.just("newton"), st.none()),
)


@PROPERTY_SETTINGS
@given(family=FAMILIES, u=st.floats(-700.0, 700.0) | st.sampled_from([-1e8, 1e8]))
@example(family=("kaniadakis", 0.5), u=-1e8)
@example(family=("kaniadakis", 0.5), u=1e8)
@example(family=("newton", None), u=-700.0)
@example(family=("newton", None), u=700.0)
def test_deformed_log_inverts_exp(family, u):
    d = make_deformed(*family)
    assume(u > d.lower_bound)
    with np.errstate(over="ignore", under="ignore"):
        v = float(d.exp(np.array([u]))[0])
    assume(1e-300 < v < 1e300)  # stay in the normal floating-point range
    back = float(d.log(np.array([v]))[0])
    assert math.isfinite(back)
    assert abs(back - u) <= 1e-12 * max(1.0, abs(u))


@PROPERTY_SETTINGS
@given(n=st.integers(1, 4096), spread=st.floats(0.0, 700.0), seed=st.integers(0, 2**32 - 1))
@example(n=1, spread=700.0, seed=0)
@example(n=4096, spread=700.0, seed=1)
def test_log_partition_matches_scipy_logsumexp(n, spread, seed):
    rng = np.random.default_rng(seed)
    prob = Density.random(finite_measure(np.arange(float(n))), rng).prob
    vals = rng.uniform(-spread, spread, n)
    ref = float(logsumexp(vals, b=prob))
    assert abs(_log_partition(vals, prob) - ref) <= 1e-13 * max(1.0, abs(ref))


@PROPERTY_SETTINGS
@given(
    n=st.integers(2, 256),
    spread=st.floats(0.1, 3.0),
    scale=st.floats(1e-3, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_chart_inverts_patch(n, spread, scale, seed):
    rng = np.random.default_rng(seed)
    p = Density.random(finite_measure(np.arange(float(n))), rng, spread)
    u = tangent(p, scale * rng.standard_normal(n))
    back = chart_s(p, patch_e(p, u)).values
    assert np.max(np.abs(back - u.values)) <= 1e-12 * max(1.0, float(np.max(np.abs(u.values))))


@PROPERTY_SETTINGS
@given(
    n=st.integers(1, 4096),
    grid=st.booleans(),
    spread=st.floats(0.1, 5.0),
    scale=st.floats(0.0, 800.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4096, grid=True, spread=5.0, scale=800.0, seed=0)
@example(n=1, grid=False, spread=5.0, scale=800.0, seed=0)
def test_patch_e_matches_log_space_patch(n, grid, spread, scale, seed):
    # coordinates up to +-800 put many entries under the -700 floor; those must agree too
    assume(not grid or n >= 3)
    rng = np.random.default_rng(seed)
    m = periodic_grid_measure(-1.0, 1.0, n) if grid else finite_measure(np.arange(float(n)))
    p = Density.random(m, rng, spread)
    u = tangent(p, rng.uniform(-scale, scale, n)).values
    ref = log_space_patch(p, u)
    got = patch_e(p, u).values
    scale_of_logs = max(1.0, float(np.max(np.abs(u))), float(np.max(np.abs(p.log_values))))
    assert np.max(np.abs(got - ref) / ref) <= 1e-14 * scale_of_logs


@PROPERTY_SETTINGS
@given(n=st.integers(2, 256), spread=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1))
def test_bregman_divergence_equals_kl(n, spread, seed):
    rng = np.random.default_rng(seed)
    m = finite_measure(np.arange(float(n)))
    q, r, p = (Density.random(m, rng, spread) for _ in range(3))
    for center in (None, p):
        direct, bregman = divergence(q, r, center)
        assert abs(bregman - direct) <= 1e-12 * max(1.0, direct)


@PROPERTY_SETTINGS
@given(
    n=st.integers(2, 256),
    spread=st.floats(0.1, 3.0),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_hilbert_transport_is_an_isometry_with_inverse(n, spread, scale, seed):
    rng = np.random.default_rng(seed)
    m = finite_measure(np.arange(float(n)))
    p, q = Density.random(m, rng, spread), Density.random(m, rng, spread)
    u = tangent(p, scale * rng.uniform(-1.0, 1.0, n))
    moved = hilbert_transport(p, q, u)
    norm2 = float(p.prob @ u.values**2)
    assert abs(float(q.prob @ moved.values**2) - norm2) <= 1e-12 * max(1.0, norm2)
    back = hilbert_transport(q, p, moved).values
    assert np.max(np.abs(back - u.values)) <= 1e-12 * max(1.0, float(np.max(np.abs(u.values))))


@st.composite
def hermite_transport_cases(draw):
    nodes = draw(st.integers(2, 96))
    return nodes, draw(st.integers(1, nodes // 2)), draw(st.floats(-1.0, 3.0)), draw(st.integers(0, 2**32 - 1))


@PROPERTY_SETTINGS
@given(case=hermite_transport_cases())
def test_hermite_transport_demo_is_the_per_degree_sphere_transport_bitwise(case):
    # the array loop against one SphereVector tangent and one sphere_transport per degree
    nodes, n_max, offset, seed = case
    gh = gauss_hermite_measure(nodes)
    raw = offset + np.random.default_rng(seed).standard_normal(nodes)
    y = RandomVariable(gh, raw / np.sqrt(gh.weights @ (raw * raw)))
    x, ypt = SphereVector(gh, np.ones(nodes)), SphereVector(gh, y.values)
    rows = []
    for n in range(1, n_max + 1):
        hn = hermite_values(n, gh.points)
        rows.append(sphere_transport(x, ypt, SphereVector(gh, hn - gh.weights @ hn, at=x)).values)
    mat = np.stack(rows)
    assert hermite_transport_demo(y, n_max).gram.tobytes() == ((mat * gh.weights) @ mat.T).tobytes()
    for row in mat:
        assert abs(gh.weights @ (row * y.values)) <= 1e-12 * max(1.0, float(np.max(np.abs(row))))


@PROPERTY_SETTINGS
@given(n=st.integers(2, 256), spread=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1))
def test_pythagorean_pairing_identity_for_any_third_density(n, spread, seed):
    # E_p[(r/p - 1) s_p(q)] = D(r||p) + D(p||q) - D(r||q) for every r, orthogonal or not
    rng = np.random.default_rng(seed)
    m = finite_measure(np.arange(float(n)))
    p, q, r = (Density.random(m, rng, spread) for _ in range(3))
    res = pythagorean_check(p, q, r)
    assert abs(res.defect) <= 1e-10 * max(1.0, abs(res.pairing), res.d_r_q, res.d_r_p, res.d_p_q)


@st.composite
def walsh_spectra(draw):
    """Up to 24 distinct masks on 1-8 sites, mask 0 allowed; many masks force XOR dependencies."""
    n = draw(st.integers(1, 8))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=min(24, 1 << n), unique=True))
    coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(masks), max_size=len(masks)))
    return WalshSpectrum(n, dict(zip(masks, coeffs)))


@PROPERTY_SETTINGS
@given(spec=walsh_spectra(), t=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32 - 1))
@example(spec=WalshSpectrum(1, {0: 0.7}), t=1.5, seed=0)
@example(spec=WalshSpectrum(2, {0: -0.4, 1: 0.3, 2: -0.9, 3: 0.5}), t=-1.1, seed=0)
def test_walsh_layer_matches_brute_force(spec, t, seed):
    u = walsh_values(spec)
    m = boolean_measure(spec.n)
    spread = float(np.max(np.abs(u), initial=0.0))
    assert np.max(np.abs(inverse_walsh(spec, m).values - u)) <= 1e-12 * max(1.0, spread)
    # the parity-class terms sum in absolute value to at most exp(|t| * sum|c|)
    brute = float(np.mean(np.exp(t * u)))
    scale = math.exp(abs(t) * sum(abs(c) for c in spec.coeffs.values()))
    assert abs(boolean_mgf(spec, t) - brute) <= 1e-13 * scale
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m.size) * rng.uniform(1e-3, 1e3)
    back = inverse_walsh(walsh_transform(RandomVariable(m, v)), m).values
    assert np.max(np.abs(back - v)) <= 1e-12 * max(1.0, float(np.max(np.abs(v))))


@dataclass(frozen=True)
class ConvexMap:
    """A convex nonincreasing map x -> (value, slope) that crosses ``target`` at ``root``.

    "affine" has slope -steep; "exp" is target - 1 + exp(steep * (root - x)); "inf" is "exp" with
    +inf (slope -inf) below root - edge, like an overflowing sum; "cubic" is target * (1 + steep *
    (root - x))**3, and 0 past its zero; "edge" is "exp" with a domain exit (None) past root + edge;
    "jump" is target + exp(steep * (root - x)) - 1/2 up to root and a domain exit past it, like the
    mass map of phi_cumulant with no unit-mass root, where the answer is the edge itself.
    """

    kind: str
    target: float
    root: float
    steep: float
    edge: float = 0.0

    def __call__(self, x):
        t = self.root - x
        if self.kind == "affine":
            return self.target + self.steep * t, -self.steep
        if self.kind == "cubic":
            base = max(1.0 + self.steep * t, 0.0)
            return self.target * base**3, -3.0 * self.steep * self.target * base**2
        if self.kind == "inf" and t > self.edge or self.kind == "edge" and t < -self.edge:
            return (math.inf, -math.inf) if self.kind == "inf" else None
        if self.kind == "jump":
            return (self.target + math.exp(self.steep * t) - 0.5, -self.steep * math.exp(self.steep * t)) if t >= 0 else None
        return self.target - 1.0 + math.exp(self.steep * t), -self.steep * math.exp(self.steep * t)


@st.composite
def convex_maps(draw):
    """A map, its a-priori bracket [lower, upper] around the root, and a start inside it.

    The bracket is up to 10 times |root| (at least 1e-6) wide on the left, where the map is at or
    above the target, and steep * width <= 30, so Newton from the lower end needs at most about 30
    steps while the map is far above the target.  The start is the lower end, as for the gauges,
    or any point of the bracket, as for the deformed cumulant's k = 0.
    """
    kind = draw(st.sampled_from(("affine", "exp", "inf", "cubic", "edge", "jump")))
    root = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-6.0, 6.0))
    width = max(abs(root), 1e-6) * 10.0 ** draw(st.floats(-3.0, 1.0))
    steep = 10.0 ** draw(st.floats(-2.0, math.log10(30.0))) / width
    gap = 0.0 if kind == "jump" else width * draw(st.floats(0.0, 1.0))
    edge = {"inf": 0.5 * width, "edge": 0.5 * gap}.get(kind, 0.0)
    g = ConvexMap(kind, draw(st.floats(0.1, 10.0)), root, steep, edge)
    lower, upper = root - width, root + gap
    start = lower if draw(st.booleans()) else lower + (upper - lower) * draw(st.floats(0.0, 1.0))
    return g, lower, upper, start


def counted(g):
    calls = []

    def wrapped(x):
        calls.append(x)
        return g(x)

    return wrapped, calls


@PROPERTY_SETTINGS
@given(case=convex_maps())
@example(case=(ConvexMap("jump", 1.0, 0.0, 3.0), -1.0, 0.0, 0.0))  # the domain edge at k = 0
@example(case=(ConvexMap("exp", 1.0, 30.0, 1.0), 0.0, 30.0, 0.0))  # a far root: about 30 linear steps
@example(case=(ConvexMap("inf", 2.0, 1e-6, 1e4, 5e-7), 0.0, 2e-6, 0.0))
def test_decreasing_root_contract(case):
    g, lower, upper, start = case
    rel_tol = 1e-14
    fn, calls = counted(g)
    x, fx = decreasing_root(fn, g.target, start, g(start), lower, upper, rel_tol)
    # the returned side: the map is defined and at or above the target there, and its value is g's there
    assert fx is not None and fx[0] >= g.target
    assert fx == g(x)
    # within rel_tol of the crossing, or of its rounding floor: near the root the value is known
    # to about 64 eps * target, which moves the crossing by that over the slope
    slope = abs(g(g.root)[1]) if g.kind != "jump" else math.inf
    tol = 2.0 * rel_tol * max(1.0, abs(g.root)) + 128.0 * sys.float_info.epsilon * g.target / slope
    assert abs(x - g.root) <= tol
    # at most about 30 Newton steps far above the target, then quadratic convergence or, once
    # both ends are evaluated, no more than 1.25 times bisection's steps plus 9
    bisection = math.log2((upper - lower) / (rel_tol * max(1.0, abs(g.root))))
    assert len(calls) <= 30 + 1.25 * bisection + 9


def test_decreasing_root_is_fast_on_smooth_maps():
    # Luxemburg-like maps: a sum of convex terms whose computed values are exact enough that Newton
    # converges quadratically from the lower end of a bracket up to 8 times the root's distance wide
    rng = np.random.default_rng(6)
    counts = []
    for i in range(400):
        kind = ("affine", "exp", "cubic")[i % 3]
        root = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0)
        width = abs(root) * 2.0 ** rng.uniform(-3.0, 3.0)
        g = ConvexMap(kind, rng.uniform(0.5, 2.0), root, 10.0 ** rng.uniform(-0.5, 0.5) / width)
        fn, calls = counted(g)
        lower = root - width
        decreasing_root(fn, g.target, lower, g(lower), lower, root + width, 1e-14)
        counts.append(len(calls))
    assert np.mean(counts) <= 6.0 and max(counts) <= 12


STRICT_PAIRS = ("a", "b", "two", "cosh_minus_one")


@PROPERTY_SETTINGS
@given(
    tag=st.sampled_from(STRICT_PAIRS),
    n=st.integers(1, 128),
    lam=st.floats(1e-3, 1e3),
    scale=st.floats(1e-2, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
def test_orlicz_norms_are_homogeneous_and_subadditive(tag, n, lam, scale, seed):
    rng = np.random.default_rng(seed)
    p = Density.random(finite_measure(np.arange(float(n))), rng)
    u, v = scale * rng.standard_normal(n), scale * rng.standard_normal(n)
    yf = young_pair(tag)
    nu, nv = luxemburg_norm(p, u, yf), luxemburg_norm(p, v, yf)
    assert abs(luxemburg_norm(p, lam * u, yf) - lam * nu) <= 1e-12 * lam * nu
    assert luxemburg_norm(p, u + v, yf) <= (nu + nv) * (1.0 + 1e-12)
    du = dual_norm(p, u, yf)
    assert abs(dual_norm(p, lam * u, yf) - lam * du) <= 1e-12 * lam * du


@PROPERTY_SETTINGS
@given(
    tag=st.sampled_from(YOUNG_TAGS),
    xs=st.lists(st.floats(allow_nan=False) | st.sampled_from([-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]), min_size=1),
)
@example(tag="b", xs=[-3.0, 0.0, 1e-300, 1e300])
def test_young_function_is_its_sloped_form_at_the_absolute_value(tag, xs):
    # the gauge evaluates sloped on |u| / r, the profiles evaluate Phi: bitwise one function on finite values;
    # at +-inf, where sloped may read inf - inf, Phi is +inf
    yf = young_pair(tag)
    xs = np.array(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        want = yf.sloped(np.abs(xs))[0]
    want[np.isinf(xs)] = math.inf
    assert yf.Phi(xs).tobytes() == want.tobytes()


@PROPERTY_SETTINGS
@given(tag=st.sampled_from(YOUNG_TAGS), x=st.floats(allow_nan=False, allow_infinity=False))
@example(tag="b", x=1e200)  # x * x overflowed, and Phi_b was -inf
@example(tag="cosh_minus_one", x=800.0)  # cosh(800) overflowed with a warning
@example(tag="a", x=-1.7e308)  # so did expm1 in the conjugates of a and c
@example(tag="c", x=1.7e308)
def test_young_functions_are_nonnegative_and_warn_of_nothing_on_finite_arguments(tag, x):
    # Phi and Phi_conj are convex, even and 0 at 0: never negative or NaN, with an overflow read as inf;
    # every warning is an error in this suite
    yf = young_pair(tag)
    for phi in (yf.Phi, yf.Phi_conj):
        assert phi(np.array([x]))[0] >= 0.0


@PROPERTY_SETTINGS
@given(
    family=FAMILIES,
    n=st.integers(1, 64),
    lam=st.floats(1e-3, 1e3),
    scale=st.floats(1e-2, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
def test_phi_norm_is_homogeneous(family, n, lam, scale, seed):
    rng = np.random.default_rng(seed)
    p = Density.random(finite_measure(np.arange(float(n))), rng)
    u = scale * rng.standard_normal(n)
    d = make_deformed(*family)
    nu = phi_norm(p, u, d)
    assert abs(phi_norm(p, lam * u, d) - lam * nu) <= 1e-10 * lam * nu


@st.composite
def low_rank_walsh_spectra(draw):
    """Masks drawn from the span of 3-5 masks with distinct top bits on 3-8 sites: rank r, at least 2r + 1 masks."""
    n = draw(st.integers(3, 8))
    tops = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=min(n, 5), unique=True))
    span = [0]
    for top in tops:
        basis = (1 << top) | draw(st.integers(0, (1 << top) - 1))
        span += [mask ^ basis for mask in span]
    masks = draw(st.lists(st.sampled_from(span), min_size=2 * len(tops) + 1, max_size=min(24, len(span)), unique=True))
    coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(masks), max_size=len(masks)))
    return WalshSpectrum(n, dict(zip(masks, coeffs)))


@PROPERTY_SETTINGS
@given(spec=low_rank_walsh_spectra(), t=st.floats(-2.0, 2.0))
@example(
    spec=WalshSpectrum(
        4,
        {0: -0.68, 1: 0.9, 3: -0.41, 4: -0.89, 5: 0.8, 6: 0.66, 7: 0.19, 8: 0.81, 9: 0.02, 11: -0.21, 12: 0.9, 14: 0.84,
         15: -0.76},
    ),
    t=1.94,
)
def test_boolean_mgf_positive_terms_when_rank_is_below_kernel_dimension(spec, t):
    # u takes 2**rank equally likely values; below the kernel dimension their positive terms are
    # averaged, so the error is relative to the result, not to the signed parity-class terms
    nonzero = [int(mask) for mask, c in zip(spec.masks, spec.values) if c != 0.0]
    assume(2 * len(_gf2_kernel_basis(nonzero)) > len(nonzero))
    u = [
        math.fsum(c * (1.0 - 2.0 * (bin(x & mask).count("1") & 1)) for mask, c in spec.coeffs.items())
        for x in range(1 << spec.n)
    ]
    mgf = math.fsum(math.exp(t * v) for v in u) / len(u)
    assert abs(boolean_mgf(spec, t) - mgf) <= 1e-14 * mgf


@st.composite
def distinct_mask_spectra(draw):
    """1-40 distinct nonzero masks on 1-14 sites, from the span of 1-n drawn masks, with nonzero coefficients."""
    # sampled_from draws uniformly, where integers() favours small sizes and so seldom reaches the guard
    n = draw(st.sampled_from(range(1, 15)))
    r = draw(st.sampled_from(range(1, n + 1)))  # the masks span at most r dimensions
    gens = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=r, max_size=r))
    m = draw(st.sampled_from(range(1, min(40, (1 << r) - 1) + 1)))
    picks = draw(st.sets(st.integers(1, (1 << r) - 1), min_size=m, max_size=m))
    masks = set()
    for pick in picks:
        mask = 0
        for j, g in enumerate(gens):
            mask ^= g if pick >> j & 1 else 0
        masks.add(mask)
    masks = sorted(masks - {0}) or gens[:1]  # the drawn masks may XOR to 0
    coeffs = draw(st.lists(st.floats(0.01, 0.5) | st.floats(-0.5, -0.01), min_size=len(masks), max_size=len(masks)))
    return WalshSpectrum(n, dict(zip(masks, coeffs)))


@PROPERTY_SETTINGS
@given(spec=distinct_mask_spectra(), t=st.floats(-1.0, 1.0))
# 13 site masks and 12 dependent ones: m = 25 of rank 13, refused
@example(spec=WalshSpectrum(13, {mk: 0.1 for mk in [1 << j for j in range(13)] + list(range(3, 27, 2))}), t=0.5)
# 12 site masks and 13 dependent ones: m = 25 of rank 12, averaged over 2**12 classes
@example(spec=WalshSpectrum(12, {mk: 0.1 for mk in [1 << j for j in range(12)] + list(range(3, 29, 2))}), t=-0.7)
def test_boolean_mgf_matches_the_states_or_refuses_past_both_guards(spec, t):
    m = len(spec.coeffs)
    span = np.zeros(1, dtype=np.int64)  # the XOR span of the masks, closed mask by mask
    for mask in spec.coeffs:
        if not (span == mask).any():
            span = np.concatenate([span, span ^ mask])
    rank = span.size.bit_length() - 1
    if m > 24 and rank > 12:
        with pytest.raises(InvariantError, match=f"spectrum support {m} exceeds the enumeration guard 24 and its"
                                                 " rank the class enumeration guard 12"):
            boolean_mgf(spec, t)
        return
    u = walsh_values(spec)
    mgf = math.fsum(np.exp(t * u).tolist()) / u.size
    # the parity path sums signed terms whose magnitudes add up to at most exp(|t| sum |c|);
    # the class path averages positive terms, so its error is relative to the mean itself
    if 2 * (m - rank) <= m <= 24:
        scale = math.exp(abs(t) * math.fsum(abs(c) for c in spec.coeffs.values()))
    else:
        scale = mgf
    assert abs(boolean_mgf(spec, t) - mgf) <= 1e-13 * scale


@settings(max_examples=300, deadline=None)
@given(log_theta=st.floats(-6.0, 3.0), log_a=st.floats(-6.0, 20.0))
@example(log_theta=math.log10(4.0), log_a=0.0)  # y = sqrt(theta*a) = 2, the switch to the fraction
@example(log_theta=math.log10(16.0), log_a=0.0)  # the edges of the oracle bands
@example(log_theta=3.0, log_a=1.0)
def test_c_integral_matches_the_oracles_over_its_domain(log_theta, log_a):
    theta, a = 10.0**log_theta, 10.0**log_a
    want = c_integral_reference(theta, a)
    assert abs(c_integral(theta, a) - want) <= 1e-13 * want
