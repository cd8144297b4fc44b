"""Property-based checks of the centering policy, the deformed log/exp pairs, the exponential chart,
the Hilbert transport, the Pythagorean pairing, the Walsh layer, the shared root-finder and the
norms built on it."""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from igc._rootfind import decreasing_root
from igc.bundle import hilbert_transport, hilbert_vector, metric_derivative
from igc.deformed import make_deformed, phi_norm
from igc.manifold import _log_partition, chart_s, divergence, patch_e, pythagorean_check, transport_e, transport_m
from igc.measures import (
    CENTER_TOL,
    Density,
    RandomVariable,
    boolean_measure,
    cotangent,
    finite_measure,
    periodic_grid_measure,
    tangent,
)
from igc.orlicz import (
    WalshSpectrum,
    _gf2_kernel_basis,
    boolean_mgf,
    boolean_phi_moment,
    dual_norm,
    inverse_walsh,
    luxemburg_norm,
    walsh_transform,
    young_pair,
)
from oracles import bisection_root, log_space_patch, walsh_values

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def assert_centered(vec):
    vals = vec.values
    assert abs(float(vec.at.prob @ vals)) <= CENTER_TOL * max(1.0, float(np.max(np.abs(vals))))


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
    c = cotangent(p, raw)
    h = hilbert_vector(p, raw)
    outputs = [
        t,
        c,
        h,
        transport_e(p, q, t),
        transport_m(p, q, c),
        hilbert_transport(p, q, h),
        metric_derivative(p, h, scale * rng.standard_normal(n), tangent(p, rng.standard_normal(n))),
    ]
    for vec in outputs:
        assert_centered(vec)


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
    u = hilbert_vector(p, scale * rng.uniform(-1.0, 1.0, n))
    moved = hilbert_transport(p, q, u)
    norm2 = float(p.prob @ u.values**2)
    assert abs(float(q.prob @ moved.values**2) - norm2) <= 1e-12 * max(1.0, norm2)
    back = hilbert_transport(q, p, moved).values
    assert np.max(np.abs(back - u.values)) <= 1e-12 * max(1.0, float(np.max(np.abs(u.values))))


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
class MonotoneMap:
    """A nonincreasing map that crosses ``target`` near ``root``.

    "affine" has slope -steep/root; "exp" is target - 1 + exp(steep * (root/r - 1)), whose
    r g'(r) at the root is -steep; "inf" and "nan" are "exp" with +inf or NaN below edge * root;
    "jump" falls from target + 1 to target - edge at the root, like the mass map of phi_cumulant
    at a domain exit, and then slopes down like "affine".
    """

    kind: str
    target: float
    root: float
    steep: float
    edge: float = 0.0

    def __call__(self, r):
        if self.kind == "affine":
            return self.target + self.steep * (1.0 - r / self.root)
        if self.kind == "jump":
            if r < self.root:
                return self.target + 1.0
            return self.target - self.edge - self.steep * (r / self.root - 1.0)
        if r < self.edge * self.root:
            return math.inf if self.kind == "inf" else math.nan
        x = self.steep * (self.root / r - 1.0)
        return self.target - 1.0 + (math.inf if x > 709.0 else math.exp(x))


@st.composite
def monotone_maps(draw):
    kind = draw(st.sampled_from(("affine", "exp", "inf", "nan", "jump")))
    edge = 0.0
    if kind in ("inf", "nan"):
        edge = draw(st.floats(0.01, 0.999))
    elif kind == "jump":
        edge = 10.0 ** draw(st.floats(-12.0, 1.0))
    target = draw(st.floats(-10.0, 10.0))
    root = 10.0 ** draw(st.floats(-6.0, 6.0))
    return MonotoneMap(kind, target, root, 10.0 ** draw(st.floats(-2.0, 2.5)), edge)


def counted(g):
    calls = []

    def wrapped(r):
        calls.append(r)
        return g(r)

    return wrapped, calls


@PROPERTY_SETTINGS
@given(g=monotone_maps(), shift=st.floats(-10.0, 10.0))
@example(g=MonotoneMap("jump", -1.0, 3.7, 1.0, 1e-12), shift=0.3)
@example(g=MonotoneMap("exp", 1.0, 1e-6, 300.0), shift=-10.0)
@example(g=MonotoneMap("nan", 0.0, 1e6, 1.0, 0.999), shift=10.0)
def test_decreasing_root_contract(g, shift):
    rel_tol = 1e-14
    guess = g.root * 2.0**shift
    fn, calls = counted(g)
    r = decreasing_root(fn, g.target, guess, rel_tol=rel_tol)
    assert g(r) <= g.target
    # the final lower end, where g is above the target, is at least r - rel_tol * r (rounded
    # like the stop rule), and g is nonincreasing, so it is above the target there too
    assert not (g(r - rel_tol * r) <= g.target)
    # the progress budget keeps every map, the jump included, within twice plain bisection
    ref, ref_calls = counted(g)
    bisection_root(ref, g.target, guess, rel_tol)
    assert len(calls) <= 2 * len(ref_calls)


def test_decreasing_root_is_fast_on_smooth_maps():
    # the Luxemburg maps of the strict Young pairs have |r g'(r)| = 1.6-3 at the root (where
    # g = 1); the exponential maps here reach 10, with guesses within a factor 8 of the root
    rng = np.random.default_rng(6)
    counts = []
    for i in range(400):
        kind = ("affine", "exp")[i % 2]
        steep = 10.0 ** rng.uniform(-2.0, 2.0) if kind == "affine" else 10.0 ** rng.uniform(0.0, 1.0)
        g = MonotoneMap(kind, rng.uniform(-10.0, 10.0), 10.0 ** rng.uniform(-6.0, 6.0), steep)
        fn, calls = counted(g)
        decreasing_root(fn, g.target, g.root * 2.0 ** rng.uniform(-3.0, 3.0))
        counts.append(len(calls))
    assert np.mean(counts) <= 20.0


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
    sym = math.fsum(math.cosh(t * v) for v in u) / len(u)
    assert abs(boolean_mgf(spec, t) - mgf) <= 1e-14 * mgf
    assert abs(boolean_phi_moment(spec, t) + 1.0 - sym) <= 1e-14 * sym
