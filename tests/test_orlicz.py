import math
import tracemalloc

import numpy as np
import pytest

from igc._rootfind import BracketError, decreasing_root
from igc.measures import (
    Density,
    InvariantError,
    RandomVariable,
    boolean_measure,
    boolean_signs,
    boolean_site,
    coordinate,
    expect,
    finite_measure,
    halfline_measure,
)
from igc.orlicz import (
    WalshSpectrum,
    YOUNG_TAGS,
    boolean_mgf,
    boolean_phi_moment,
    dual_norm,
    inverse_walsh,
    luxemburg_norm,
    nonsteep_density,
    nonsteep_profile,
    steepness_profile,
    validate_young_pair,
    walsh_transform,
    young_pair,
)
from oracles import concatenating_fwht, walsh_values


def _two_point():
    m = finite_measure([1.0, -1.0])
    return m, Density.uniform(m)


def test_young_pairs_contract():
    for tag in YOUNG_TAGS:
        validate_young_pair(young_pair(tag))


def test_pairs_a_b_equivalent():
    xs = np.linspace(0.0, 40.0, 400)
    phi_a = young_pair("a").Phi(xs)
    phi_b = young_pair("b").Phi(xs)
    assert np.all(phi_a <= phi_b + 1e-12)
    for a in (1.5, 2.0):
        assert np.all(phi_b <= a * phi_a + 1e-12)


def test_delta2_for_pair_a():
    xs = np.linspace(0.0, 25.0, 300)
    Phi = young_pair("a").Phi
    for a in (1.5, 2.0, 3.0):
        assert np.all(Phi(a * xs) <= a * a * Phi(xs) + 1e-12)


def test_luxemburg_examples():
    m, p = _two_point()
    Phi = young_pair("cosh_minus_one")
    assert luxemburg_norm(p, RandomVariable.constant(m, 0.0), Phi) == 0.0
    u = coordinate(m)
    assert luxemburg_norm(p, u, Phi) == pytest.approx(1.0 / math.acosh(2.0), rel=1e-12)
    assert luxemburg_norm(p, u * 2.0, Phi) == pytest.approx(2.0 * luxemburg_norm(p, u, Phi), rel=1e-10)


def test_luxemburg_unit_ball():
    rng = np.random.default_rng(0)
    m = finite_measure(np.arange(6.0))
    p = Density.random(m, rng)
    for tag in YOUNG_TAGS:
        Phi = young_pair(tag)
        u = RandomVariable(m, 2.0 * rng.standard_normal(6))
        r = luxemburg_norm(p, u, Phi)
        assert expect(p, RandomVariable(m, Phi.Phi(u.values / r))) == pytest.approx(1.0, abs=1e-10)


def test_luxemburg_monotone_homogeneous_triangle():
    rng = np.random.default_rng(1)
    m = finite_measure(np.arange(8.0))
    Phi = young_pair("cosh_minus_one")
    for _ in range(20):
        p = Density.random(m, rng)
        v = RandomVariable(m, rng.standard_normal(8) * rng.uniform(0.5, 3.0))
        u = RandomVariable(m, v.values * rng.uniform(0.0, 1.0, 8))
        assert luxemburg_norm(p, u, Phi) <= luxemburg_norm(p, v, Phi) + 1e-9
        c = rng.uniform(0.1, 5.0)
        assert luxemburg_norm(p, v * c, Phi) == pytest.approx(c * luxemburg_norm(p, v, Phi), rel=1e-9)
        w = RandomVariable(m, rng.standard_normal(8))
        assert (
            luxemburg_norm(p, v + w, Phi)
            <= luxemburg_norm(p, v, Phi) + luxemburg_norm(p, w, Phi) + 1e-9
        )


def test_dual_norm_examples():
    m, p = _two_point()
    Phi = young_pair("cosh_minus_one")
    assert dual_norm(p, RandomVariable.constant(m, 0.0), Phi) == 0.0
    # two-point oracle: maximize p1*u1*v1 + p2*u2*v2 over E_p[Phi(u)] <= 1
    v = coordinate(m)
    grid = np.linspace(-4.0, 4.0, 1601)
    u1, u2 = np.meshgrid(grid, grid)
    feasible = 0.5 * (np.cosh(u1) - 1.0) + 0.5 * (np.cosh(u2) - 1.0) <= 1.0
    objective = np.where(feasible, 0.5 * u1 * 1.0 + 0.5 * u2 * (-1.0), -np.inf)
    oracle = float(np.max(objective))
    got = dual_norm(p, v, Phi)
    assert got == pytest.approx(math.acosh(2.0), rel=1e-10)
    assert got == pytest.approx(oracle, abs=5e-3)


def test_dual_norm_flat_phi_rejected():
    m, p = _two_point()
    with pytest.raises(InvariantError):
        dual_norm(p, coordinate(m), young_pair("c"))


def test_duality_bound():
    rng = np.random.default_rng(2)
    m = finite_measure(np.arange(8.0))
    cosh_pair = young_pair("cosh_minus_one")
    conj_pair = young_pair("b")
    for _ in range(25):
        p = Density.random(m, rng)
        u = RandomVariable(m, rng.standard_normal(8))
        v = RandomVariable(m, rng.standard_normal(8))
        bound = 2.0 * luxemburg_norm(p, u, conj_pair) * luxemburg_norm(p, v, cosh_pair)
        assert abs(expect(p, u * v)) <= bound * (1.0 + 1e-12)


def test_dual_norm_equivalent_to_luxemburg():
    # the supremum norm lies between the conjugate Luxemburg norm and twice it
    rng = np.random.default_rng(3)
    m = finite_measure(np.arange(6.0))
    cosh_pair = young_pair("cosh_minus_one")
    conj_pair = young_pair("b")
    for _ in range(10):
        p = Density.random(m, rng)
        v = RandomVariable(m, rng.standard_normal(6) * rng.uniform(0.2, 2.0))
        n_dual = dual_norm(p, v, cosh_pair)
        n_lux = luxemburg_norm(p, v, conj_pair)
        assert n_lux * (1.0 - 1e-9) <= n_dual <= 2.0 * n_lux * (1.0 + 1e-9)


def test_walsh_constant_and_basis():
    m = boolean_measure(4)
    spec = walsh_transform(RandomVariable.constant(m, 2.5))
    assert spec.coeffs == {0: 2.5}
    spec1 = walsh_transform(boolean_site(m, 0))
    assert spec1.coeffs == {1: 1.0}


def test_walsh_roundtrip_against_direct_sum():
    rng = np.random.default_rng(4)
    m = boolean_measure(6)
    u = RandomVariable(m, rng.standard_normal(m.size))
    spec = walsh_transform(u)
    # direct O(4**n) oracle
    signs = boolean_signs(m)
    for mask in (0, 1, 0b101, 0b111000, 0b111111):
        sites = [k for k in range(6) if (mask >> k) & 1]
        monomial = np.prod(signs[:, sites], axis=1) if sites else np.ones(m.size)
        direct = float(np.mean(u.values * monomial))
        assert spec.coeffs.get(mask, 0.0) == pytest.approx(direct, abs=1e-12)
    back = inverse_walsh(spec, m)
    assert np.max(np.abs(back.values - u.values)) < 1e-12
    respec = walsh_transform(back)
    for mask, c in spec.coeffs.items():
        assert respec.coeffs.get(mask, 0.0) == pytest.approx(c, abs=1e-12)


def test_boolean_mgf_examples():
    m2 = boolean_measure(2)
    u = boolean_site(m2, 0) + boolean_site(m2, 1)
    spec = walsh_transform(u)
    assert boolean_mgf(spec, 0.0) == pytest.approx(1.0, abs=1e-15)
    for t in (0.3, 1.1):
        enumeration = float(np.mean(np.exp(t * u.values)))
        assert boolean_mgf(spec, t) == pytest.approx(math.cosh(t) ** 2, abs=1e-13)
        assert boolean_mgf(spec, t) == pytest.approx(enumeration, abs=1e-13)
    c = 1.7
    m1 = boolean_measure(1)
    spec_c = walsh_transform(boolean_site(m1, 0) * c)
    assert boolean_mgf(spec_c, 0.9) == pytest.approx(math.cosh(0.9 * c), abs=1e-13)


def test_boolean_mgf_matches_enumeration():
    rng = np.random.default_rng(5)
    for n in range(2, 13):
        m = boolean_measure(n)
        n_masks = min(2 * n, 8, m.size - 1)
        masks = rng.choice(np.arange(1, m.size), size=n_masks, replace=False)
        spec = WalshSpectrum(n, {int(mk): float(c) for mk, c in zip(masks, rng.normal(0.0, 0.3, n_masks))})
        u = inverse_walsh(spec, m)
        for t in (0.4, 0.9):
            direct = float(np.mean(np.exp(t * u.values)))
            assert boolean_mgf(spec, t) == pytest.approx(direct, abs=1e-12)
            sym = float(np.mean(np.cosh(t * u.values))) - 1.0
            assert boolean_phi_moment(spec, t) == pytest.approx(sym, abs=1e-12)


def test_boolean_mgf_spans_several_blocks_near_the_guard():
    # 24 distinct nonzero masks on 5 sites: rank 5, so the kernel has dimension 19
    # and 2**19 parity classes, more than one enumeration block holds
    rng = np.random.default_rng(6)
    masks = rng.choice(np.arange(1, 32), size=24, replace=False)
    spec = WalshSpectrum(5, {int(mk): float(c) for mk, c in zip(masks, rng.normal(0.0, 0.3, 24))})
    u = walsh_values(spec)
    for t in (0.5, -1.3):
        brute = float(np.mean(np.exp(t * u)))
        assert abs(boolean_mgf(spec, t) - brute) <= 1e-12 * brute
        sym = float(np.mean(np.cosh(t * u))) - 1.0
        assert abs(boolean_phi_moment(spec, t) - sym) <= 1e-12 * (1.0 + sym)
    # the 2**19 terms alone would take 4 MiB; the blocked enumeration stays under 2 MiB
    tracemalloc.start()
    try:
        boolean_mgf(spec, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _phi_moment_reference(spec):
    u = walsh_values(spec)
    return lambda t: math.fsum((2.0 * np.sinh(0.5 * t * u) ** 2).tolist()) / u.size


@pytest.mark.parametrize(
    "n, coeffs, t",
    [
        (1, {1: 1.0}, 1e-7),  # parity classes, no kernel
        (3, {1: 0.5, 2: -0.7, 4: 0.3, 7: 0.9}, 1e-6),  # parity classes, one even kernel subset
        (3, {mask: 0.1 * mask - 0.35 for mask in range(1, 8)}, 1e-6),  # rank 3 below kernel dimension 4
    ],
)
def test_boolean_phi_moment_keeps_relative_accuracy_at_small_t(n, coeffs, t):
    spec = WalshSpectrum(n, coeffs)
    reference = _phi_moment_reference(spec)
    for s in (t, -t, 10 * t):
        assert abs(boolean_phi_moment(spec, s) - reference(s)) <= 1e-12 * reference(s)
    if n == 1:
        assert abs(boolean_phi_moment(spec, t) - 2.0 * math.sinh(t / 2) ** 2) <= 1e-12 * 2.0 * math.sinh(t / 2) ** 2



@pytest.mark.parametrize("mask", [-1, 16, 17])
def test_walsh_spectrum_rejects_out_of_range_mask(mask):
    with pytest.raises(InvariantError, match=f"mask {mask} out of range"):
        WalshSpectrum(4, {0: 1.0, 3: 0.5, mask: 0.25})


@pytest.mark.parametrize(
    "coeffs, culprit",
    [
        ({1.5: 1.0, 2: 0.5}, "mask 1.5"),
        ({"1": 1.0}, "mask '1'"),
        ({1: math.nan, 2: 0.5}, "coefficient nan"),
        ({0: 0.5, 3: -math.inf}, "coefficient -inf"),
    ],
)
def test_walsh_spectrum_rejects_non_integer_masks_and_non_finite_coefficients(coeffs, culprit):
    with pytest.raises(InvariantError, match=culprit):
        WalshSpectrum(3, coeffs)


def test_walsh_spectrum_contract():
    mapping = {5: -0.25, np.int64(0): 1.0, 3: 0.0, np.uint8(6): 2}
    spec = WalshSpectrum(3, mapping)
    assert spec.masks.tolist() == [0, 3, 5, 6] and spec.masks.dtype == np.int64
    assert spec.values.tolist() == [1.0, 0.0, -0.25, 2.0] and spec.values.dtype == np.float64
    for arr in (spec.masks, spec.values):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 7
    assert spec.coeffs == mapping  # the zero coefficient is kept
    assert spec.coeffs is spec.coeffs
    with pytest.raises(TypeError):
        spec.coeffs[1] = 1.0
    assert spec == WalshSpectrum(3, dict(reversed(list(mapping.items()))))
    assert spec != WalshSpectrum(4, mapping)
    assert spec != WalshSpectrum(3, {**mapping, 3: 1e-300})
    assert spec != WalshSpectrum(3, {k: v for k, v in mapping.items() if k != 3})
    assert WalshSpectrum(2, {}).masks.shape == (0,)
    m = boolean_measure(3)
    assert walsh_transform(inverse_walsh(spec, m)) == WalshSpectrum(3, {k: v for k, v in mapping.items() if v})


@pytest.mark.parametrize("n", range(1, 17))
def test_walsh_matches_concatenating_butterfly_bitwise(n):
    rng = np.random.default_rng(100 + n)
    m = boolean_measure(n)
    values = rng.standard_normal(m.size) * 10.0 ** rng.uniform(-3, 3, m.size)
    values[rng.integers(0, m.size, m.size // 3)] = 0.0
    for u in (values, np.round(values)):  # rounded values give exact zero coefficients
        spec = walsh_transform(RandomVariable(m, u))
        ref = concatenating_fwht(u) / float(m.size)
        nz = np.flatnonzero(ref)
        assert spec.masks.tolist() == nz.tolist()
        assert spec.values.tobytes() == ref[nz].tobytes()
        dense = np.zeros(m.size)
        dense[nz] = ref[nz]
        assert inverse_walsh(spec, m).values.tobytes() == concatenating_fwht(dense).tobytes()


def test_walsh_round_trip_reads_the_arrays_only():
    m = boolean_measure(8)
    u = inverse_walsh(WalshSpectrum(8, {0: 0.1, 1: 0.5, 6: -0.3, 0b10100011: 0.2}), m)
    spec = walsh_transform(u)
    back = inverse_walsh(spec, m)
    boolean_mgf(spec, 0.3)
    boolean_phi_moment(spec, 0.3)
    assert "coeffs" not in vars(spec)
    assert not back.values.flags.writeable and back.values.base is None


def test_walsh_round_trip_peak_memory():
    # at 16 sites one float array is 0.5 MiB: the input copy, the half-size scratch, the two
    # spectrum arrays and the output fit under 3 MiB; a dict per coefficient does not
    m = boolean_measure(16)
    u = RandomVariable(m, np.random.default_rng(16).standard_normal(m.size))
    tracemalloc.start()
    try:
        back = inverse_walsh(walsh_transform(u), m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(back.values - u.values)) <= 1e-12 * max(1.0, float(np.max(np.abs(u.values))))
    assert peak < 3 * 2**20


def test_boolean_mgf_support_guard():
    spec = WalshSpectrum(6, {mask: 0.1 for mask in range(1, 40)})
    with pytest.raises(InvariantError):
        boolean_mgf(spec, 0.5)


def test_nonsteep_profile_values():
    rows = nonsteep_profile(0.5, [0.0, 1.0, 1.1, -1.2])
    table = {r.alpha: r for r in rows}
    assert table[0.0].value == pytest.approx(0.0, abs=1e-15)
    assert table[1.0].value == pytest.approx(0.8037381, abs=1e-5)
    assert table[1.1].divergent and table[-1.2].divergent


def test_steepness_quadrature_matches_closed_form():
    base = halfline_measure(rate=0.1, tail_tol=1e-13)
    a = 0.5
    p = nonsteep_density(a, base)
    u = coordinate(base)
    Phi = young_pair("cosh_minus_one")
    alphas = [0.0, 0.3, 0.6, 0.9]
    quad_rows = steepness_profile(p, u, Phi, alphas)
    closed_rows = nonsteep_profile(a, alphas)
    for got, want in zip(quad_rows, closed_rows):
        assert got.value == pytest.approx(want.value, rel=1e-6, abs=1e-12)


def test_steepness_divergence_flag():
    m = finite_measure([0.0, 1.0])
    p = Density.uniform(m)
    u = RandomVariable(m, [0.0, 400.0])
    rows = steepness_profile(p, u, young_pair("cosh_minus_one"), [1.0, 3.0])
    assert not rows[0].divergent
    assert rows[1].divergent and rows[1].value == math.inf


def test_decreasing_root_reports_divergence():
    with pytest.raises(BracketError):
        decreasing_root(lambda r: math.inf, 1.0, 1.0)
    # and the flat-zero side returns zero
    assert decreasing_root(lambda r: 0.0, 1.0, 1.0) == 0.0
