"""Property-based checks of the centering policy, the deformed log/exp pairs, the exponential chart and the Walsh layer."""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from igc.bundle import hilbert_transport, hilbert_vector, metric_derivative
from igc.deformed import make_deformed
from igc.manifold import _log_partition, chart_s, divergence, patch_e, transport_e, transport_m
from igc.measures import CENTER_TOL, Density, RandomVariable, boolean_measure, cotangent, finite_measure, tangent
from igc.orlicz import WalshSpectrum, boolean_mgf, inverse_walsh, walsh_transform
from oracles import walsh_values

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
@given(n=st.integers(2, 256), spread=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1))
def test_bregman_divergence_equals_kl(n, spread, seed):
    rng = np.random.default_rng(seed)
    m = finite_measure(np.arange(float(n)))
    q, r, p = (Density.random(m, rng, spread) for _ in range(3))
    for center in (None, p):
        direct, bregman = divergence(q, r, center)
        assert abs(bregman - direct) <= 1e-12 * max(1.0, direct)


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
