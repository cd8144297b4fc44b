import dataclasses
import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from igc import orlicz
from igc.deformed import DeformedLogarithm, make_deformed, phi_norm
from igc.measures import (
    Density,
    InvariantError,
    Measure,
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
    YoungFunction,
    _fwht,
    _gf2_kernel_basis,
    boolean_mgf,
    dual_norm,
    inverse_walsh,
    luxemburg_norm,
    nonsteep_profile,
    steepness_profile,
    walsh_transform,
    young_pair,
)
from oracles import bisection_root, concatenating_fwht, validate_young_pair, walsh_values


def _two_point():
    m = finite_measure([1.0, -1.0])
    return m, Density.uniform(m)


def test_young_pairs_contract():
    for tag in YOUNG_TAGS:
        validate_young_pair(young_pair(tag))


def _unit_root_b() -> Decimal:
    """The root of c * arcsinh(c) = sqrt(1 + c**2), arcsinh(c) = ln(c + sqrt(1 + c**2)), by 50-digit bisection."""
    with localcontext() as ctx:
        ctx.prec = 50
        lo, hi = Decimal("1.4"), Decimal("1.6")
        for _ in range(170):
            mid = (lo + hi) / 2
            h = (1 + mid * mid).sqrt()
            lo, hi = (mid, hi) if mid * (mid + h).ln() < h else (lo, mid)
        return lo


def test_unit_levels_are_the_unit_roots_rounded_down():
    # Phi(c) <= 1 in floating point, which the gauges' bracket needs, and c within 4e-16 of the exact root
    with localcontext() as ctx:
        ctx.prec = 50
        exact = {
            "a": Decimal(1).exp() - 1,
            "b": _unit_root_b(),
            "c": Decimal(1).exp(),
            "two": Decimal(2).sqrt(),
            "cosh_minus_one": (2 + Decimal(3).sqrt()).ln(),
        }
        for tag in YOUNG_TAGS:
            yf = young_pair(tag)
            assert float(yf.Phi(np.array([yf.unit_level]))[0]) <= 1.0, tag
            assert abs(Decimal(yf.unit_level) - exact[tag]) <= Decimal("4e-16") * exact[tag], tag


def test_a_rebuilt_pair_takes_the_same_path_as_the_built_in_one():
    # the gauges read the pair's own forms, so wrapping Phi and phi_inv changes no bit of either norm
    rng = np.random.default_rng(27)
    for tag in ("a", "b", "two", "cosh_minus_one"):
        yf = young_pair(tag)
        rebuilt = dataclasses.replace(yf, Phi=lambda x, f=yf.Phi: f(x), phi_inv=lambda y, f=yf.phi_inv: f(y))
        for _ in range(50):
            m = finite_measure(np.arange(float(rng.choice([1, 4, 16, 64]))))
            p = Density.random(m, rng)
            u = rng.standard_normal(m.size) * 10.0 ** rng.uniform(-3.0, 3.0)
            assert luxemburg_norm(p, u, rebuilt) == luxemburg_norm(p, u, yf), tag
            assert dual_norm(p, u, rebuilt) == dual_norm(p, u, yf), tag


def test_dual_norm_evaluates_the_unit_slope_once_per_pair():
    # phi(c) is a constant of the pair: the first dual norm evaluates it, later ones read it back
    m = finite_measure(np.arange(16.0))
    p = Density.random(m, np.random.default_rng(3))
    u = np.linspace(-1.0, 2.0, 16)
    for tag in ("a", "b", "two", "cosh_minus_one"):
        yf = young_pair(tag)
        calls = []
        counted = dataclasses.replace(yf, sloped=lambda x, f=yf.sloped: calls.append(x) or f(x))
        assert "unit_slope" not in vars(counted), tag
        norms = [dual_norm(p, u, counted) for _ in range(3)]
        assert len(calls) == 1, tag
        assert counted.unit_slope == float(yf.sloped(np.array([yf.unit_level]))[1][0]), tag
        assert norms == [dual_norm(p, u, yf)] * 3, tag


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


def _dual_reference(tag: str, y: float) -> tuple[float, float]:
    """Phi(phi_inv(y)) and its slope y * phi_inv'(y) for the four strict pairs, in 60-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 60
        y = Decimal(y)
        if tag == "two":  # y**2 / 2, y
            return float(y * y / 2), float(y)
        if tag == "cosh_minus_one":  # cosh(arcsinh(y)) - 1 = sqrt(1 + y**2) - 1, y / sqrt(1 + y**2)
            h = (1 + y * y).sqrt()
            return float(y * y / (1 + h)), float(y / h)
        e = y.exp()
        if tag == "a":  # (1 + z) y - z with z = e**y - 1
            return float(1 + (y - 1) * e), float(y * e)
        sinh, cosh = (e - 1 / e) / 2, (e + 1 / e) / 2
        return float(y * sinh - (cosh - 1)), float(y * cosh)


@pytest.mark.parametrize("tag", ["a", "b", "two", "cosh_minus_one"])
def test_dual_gauge_terms_are_no_less_accurate_than_the_composition(tag):
    # per decade of a log grid on [1e-9, 700], the worst relative error of dual_sloped is at most that of
    # Phi(phi_inv(y)); both cancel near 0 for pair a, while the composition loses everything below 1e-7 for
    # pair b (and overflows past y = 355) and below 1e-8 for cosh_minus_one, where dual_sloped keeps full precision
    yf = young_pair(tag)
    ys = np.geomspace(1e-9, 700.0, 600)
    ref = np.array([_dual_reference(tag, y) for y in ys])
    F, slope = yf.dual_sloped(ys)
    with np.errstate(over="ignore", invalid="ignore"):
        composed = yf.Phi(yf.phi_inv(ys))
    err = np.abs(F - ref[:, 0]) / ref[:, 0]
    err_composed = np.where(np.isfinite(composed), np.abs(composed - ref[:, 0]) / ref[:, 0], np.inf)
    for d in range(-9, 3):
        decade = (ys >= 10.0**d) & (ys < 10.0 ** (d + 1))
        assert err[decade].max() <= err_composed[decade].max()
    if tag in ("b", "two", "cosh_minus_one"):
        assert err.max() <= 1e-15
    assert np.all(np.abs(slope - ref[:, 1]) <= 1e-15 * ref[:, 1])


def test_dual_norm_flat_phi_rejected():
    m, p = _two_point()
    with pytest.raises(InvariantError):
        dual_norm(p, coordinate(m), young_pair("c"))


def test_divergent_gauges_raise_invariant_error():
    # Phi = +inf everywhere: no radius brings either modular down to 1
    m, p = _two_point()

    def infinite(x):
        return np.full(np.shape(x), np.inf)

    yf = YoungFunction(
        "inf", infinite, infinite, lambda x: (infinite(x), np.log1p(x)), np.expm1, lambda y: (infinite(y), y * np.exp(y)), 0.0
    )
    for norm, name in ((luxemburg_norm, "Luxemburg"), (dual_norm, "dual")):
        with pytest.raises(InvariantError, match=f"{name} norm diverges for tag 'inf'"):
            norm(p, coordinate(m), yf)


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


def test_boolean_mgf_takes_the_positive_path_for_24_masks_of_rank_5():
    # 24 distinct nonzero masks on 5 sites: rank 5, so the kernel has dimension 19
    # and u is averaged over 2**5 classes instead of summing 2**19 parity-class terms
    rng = np.random.default_rng(6)
    masks = rng.choice(np.arange(1, 32), size=24, replace=False)
    spec = WalshSpectrum(5, {int(mk): float(c) for mk, c in zip(masks, rng.normal(0.0, 0.3, 24))})
    assert len(_gf2_kernel_basis(spec.masks.tolist())) == 19
    u = walsh_values(spec)
    for t in (0.5, -1.3):
        brute = float(np.mean(np.exp(t * u)))
        assert abs(boolean_mgf(spec, t) - brute) <= 1e-12 * brute
    # the 2**19 parity-class terms alone would take 4 MiB; the 32 classes stay under 2 MiB
    tracemalloc.start()
    try:
        boolean_mgf(spec, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_boolean_mgf_parity_path_at_its_largest_size():
    # 12 site masks and 12 dependent ones: m = 24 masks of rank 12, kernel dimension
    # k = 12, so 2k <= m and the 4,096 parity-class terms are summed
    rng = np.random.default_rng(24)
    units = [1 << j for j in range(12)]
    others = rng.choice(np.setdiff1d(np.arange(1, 1 << 12), units), size=12, replace=False)
    masks = units + [int(mk) for mk in others]
    spec = WalshSpectrum(12, {mk: float(c) for mk, c in zip(masks, rng.normal(0.0, 0.3, 24))})
    assert len(_gf2_kernel_basis(spec.masks.tolist())) == 12
    u = walsh_values(spec)
    for t in (0.5, -1.3):
        brute = math.fsum(np.exp(t * u).tolist()) / u.size
        assert abs(boolean_mgf(spec, t) - brute) <= 1e-12 * brute


@pytest.mark.parametrize(
    "n, coeffs, parity, t",
    [
        (2, {1: 1.0, 2: 1.0}, True, 1e308),  # 2 masks of rank 2: no kernel, parity classes
        (3, {mask: 1.0 for mask in range(1, 8)}, False, 1e308),  # 7 masks of rank 3: 2**3 classes
        # no single factor overflows, but their product, cosh(100)**10, does
        (10, {1 << j: 1.0 for j in range(10)}, True, 100.0),
    ],
)
def test_boolean_mgf_reports_overflow_as_inf(n, coeffs, parity, t):
    spec = WalshSpectrum(n, coeffs)
    assert (2 * len(_gf2_kernel_basis(spec.masks.tolist())) <= spec.masks.size) == parity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (t, -t):
            assert boolean_mgf(spec, t) == math.inf, t



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


def test_walsh_dense_and_sparse_paths_match_concatenating_butterfly_bitwise():
    # integer values sum exactly, so moving u[0] by c_5 zeroes coefficient 5 and no other
    m = boolean_measure(6)
    u = np.random.default_rng(6).integers(-1000, 1000, m.size).astype(float)
    dense = walsh_transform(RandomVariable(m, u))
    assert dense.masks.tolist() == list(range(m.size))
    assert dense.values.tobytes() == (concatenating_fwht(u) / m.size).tobytes()
    u[0] -= concatenating_fwht(u)[5]
    ref = concatenating_fwht(u) / m.size
    spec = walsh_transform(RandomVariable(m, u))
    assert spec.masks.tolist() == [k for k in range(m.size) if k != 5]
    assert spec.values.tobytes() == np.delete(ref, 5).tobytes()
    # inverse of a sparse spectrum, and of a full one that keeps a zero coefficient
    for coeffs in ({0: 0.25, 9: -1.5, 63: 3.0}, {k: float(k % 7) for k in range(m.size)}):
        full = np.zeros(m.size)
        full[list(coeffs)] = list(coeffs.values())
        assert inverse_walsh(WalshSpectrum(6, coeffs), m).values.tobytes() == concatenating_fwht(full).tobytes()


def test_walsh_round_trip_on_a_single_state():
    m = Measure([0], [1.0], rule="boolean")
    spec = walsh_transform(RandomVariable(m, [2.5]))
    assert spec.masks.tolist() == [0] and spec.values.tolist() == [2.5]
    assert inverse_walsh(spec, m).values.tolist() == [2.5]


@pytest.mark.parametrize("n", range(17))
def test_fwht_matches_concatenating_butterfly_bitwise(n):
    # an even stage count leaves the result in the input array, an odd one in the buffer
    rng = np.random.default_rng(200 + n)
    values = rng.standard_normal(1 << n) * 10.0 ** rng.uniform(-3, 3, 1 << n)
    for u in (values, np.round(values)):
        a = u.copy()
        out = _fwht(a)
        assert (out is a) == (n % 2 == 0)
        assert out.tobytes() == concatenating_fwht(u).tobytes()


@pytest.mark.parametrize("scale", [1.0, 1e308])
def test_walsh_transform_leaves_its_input_untouched(scale):
    m = boolean_measure(7)
    u = RandomVariable(m, np.random.default_rng(7).uniform(-1.0, 1.0, m.size) * scale)
    before = u.values.tobytes()
    walsh_transform(u)
    assert u.values.tobytes() == before


def test_walsh_transform_scales_first_only_near_the_largest_double():
    # |c| <= max|u| for every coefficient, but the unscaled butterfly's partial sums overflow
    m = boolean_measure(2)
    spec = walsh_transform(RandomVariable.constant(m, 1e308))
    assert spec.coeffs == {0: 1e308}
    assert boolean_mgf(spec, 0.0) == 1.0
    m = boolean_measure(6)
    u = np.random.default_rng(6).uniform(-1.0, 1.0, m.size)
    # near DBL_MAX the input is scaled first; near DBL_MIN dividing last rounds each subnormal coefficient once
    for big in (True, False):
        v = u * (1.7e308 if big else 1e-306)
        spec = walsh_transform(RandomVariable(m, v))
        ref = concatenating_fwht(v / m.size) if big else concatenating_fwht(v) / m.size
        nz = np.flatnonzero(ref)
        assert spec.masks.tolist() == nz.tolist()
        assert spec.values.tobytes() == ref[nz].tobytes()


def test_walsh_round_trip_reads_the_arrays_only():
    m = boolean_measure(8)
    u = inverse_walsh(WalshSpectrum(8, {0: 0.1, 1: 0.5, 6: -0.3, 0b10100011: 0.2}), m)
    spec = walsh_transform(u)
    back = inverse_walsh(spec, m)
    boolean_mgf(spec, 0.3)
    assert "coeffs" not in vars(spec)
    assert not back.values.flags.writeable and back.values.base is None


def test_dense_spectra_of_one_size_share_one_read_only_mask_array():
    m = boolean_measure(8)
    rng = np.random.default_rng(8)
    us = [rng.standard_normal(m.size) for _ in range(2)]
    specs = [walsh_transform(RandomVariable(m, u)) for u in us]
    assert specs[0].masks is specs[1].masks and not specs[0].masks.flags.writeable
    assert specs[0].masks.dtype == np.int64 and specs[0].masks.tolist() == list(range(m.size))
    assert walsh_transform(RandomVariable(boolean_measure(7), us[0][:128])).masks.size == 128
    for u, spec in zip(us, specs):
        assert spec.values.tobytes() == (concatenating_fwht(u) / m.size).tobytes()
        assert inverse_walsh(spec, m).values.tobytes() == concatenating_fwht(spec.values).tobytes()


def test_walsh_round_trip_peak_memory():
    # at 16 sites one float array is 0.5 MiB: the input copy, the butterfly's one full-size
    # ping-pong buffer, the two spectrum arrays and the output fit under 3 MiB; a dict per
    # coefficient does not
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
    # 39 masks of rank 6: the class path averages 2**6 terms, so the spectrum is allowed
    spec = WalshSpectrum(6, {mask: 0.1 for mask in range(1, 40)})
    brute = float(np.mean(np.exp(0.5 * walsh_values(spec))))
    assert abs(boolean_mgf(spec, 0.5) - brute) <= 1e-12 * brute
    units = [1 << j for j in range(13)]
    # 13 site masks and 12 dependent ones: kernel dimension 12, so 2k <= m = 25 takes the
    # parity path, whose tables would hold 2**13 entries each
    parity = WalshSpectrum(13, {mk: 0.1 for mk in units + list(range(3, 27, 2))})
    assert len(_gf2_kernel_basis(parity.masks.tolist())) == 12
    # 13 site masks and 14 dependent ones: rank 13 below kernel dimension 14 takes the
    # class path, which would enumerate 2**13 classes
    classes = WalshSpectrum(13, {mk: 0.1 for mk in units + list(range(3, 31, 2))})
    assert len(_gf2_kernel_basis(classes.masks.tolist())) == 14
    for spec, match in ((parity, "support 25"), (classes, "support 27")):
        with pytest.raises(InvariantError, match=match):
            boolean_mgf(spec, 0.5)


def test_boolean_mgf_guard_before_kernel():
    # a generic u on 14 sites has all 16384 masks; the kernel's combinations would take
    # about m**2/16 bytes (16 MiB), but more than 2**12 masks are refused by their count alone
    m = boolean_measure(14)
    spec = walsh_transform(RandomVariable(m, np.random.default_rng(14).standard_normal(m.size)))
    assert spec.masks.size == m.size
    tracemalloc.start()
    try:
        with pytest.raises(InvariantError, match="enumeration guard"):
            boolean_mgf(spec, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_boolean_mgf_takes_the_class_path_for_a_dense_12_site_spectrum():
    # all 4,095 nonzero masks on 12 sites: rank 12 and kernel dimension 4,083, so u is averaged
    # over its 2**12 classes; 4,095 masks are below the count 2**12 + 1 that refuses unseen
    rng = np.random.default_rng(4095)
    spec = WalshSpectrum(12, {mask: float(c) for mask, c in zip(range(1, 1 << 12), rng.normal(0.0, 0.02, 4095))})
    assert len(_gf2_kernel_basis(spec.masks.tolist())) == 4095 - 12
    u = walsh_values(spec)
    for t in (0.5, -1.3):
        brute = math.fsum(np.exp(t * u).tolist()) / u.size
        assert abs(boolean_mgf(spec, t) - brute) <= 1e-12 * brute


def test_boolean_mgf_decides_with_at_most_one_elimination(monkeypatch):
    # m distinct masks span at least log2(m) dimensions: 4,097 of them are refused unseen, while
    # 4,096 masks of rank 13 are refused on the rank that one elimination gives
    eliminated = []
    elimination = orlicz._gf2_kernel_basis
    monkeypatch.setattr(orlicz, "_gf2_kernel_basis", lambda masks: eliminated.append(len(masks)) or elimination(masks))
    guard = "exceeds the enumeration guard 24 and its rank the class enumeration guard 12"
    for m, elims in ((4097, []), (4096, [4096])):
        spec = WalshSpectrum(13, {mask: 0.1 for mask in range(1, m + 1)})
        eliminated.clear()
        with pytest.raises(InvariantError, match=f"spectrum support {m} {guard}"):
            boolean_mgf(spec, 0.5)
        assert eliminated == elims


def test_nonsteep_profile_values():
    rows = nonsteep_profile(0.5, [0.0, 1.0, 1.1, -1.2])
    table = {r.alpha: r for r in rows}
    assert table[0.0].value == pytest.approx(0.0, abs=1e-15)
    assert table[1.0].value == pytest.approx(0.8037381, abs=1e-5)
    assert table[1.1].divergent and table[-1.2].divergent


def test_nonsteep_profile_matches_a_high_precision_reference():
    # 60-digit values of (C(1-alpha, a) + C(1+alpha, a)) / (2 C(1, a)) - 1 at a = 1/2
    reference = {
        0.25: 0.016073326209924572209,
        0.5: 0.070617074476621478018,
        0.75: 0.19442970433869172662,
        1.0: 0.80373808251831118034,
    }
    for row in nonsteep_profile(0.5, list(reference)):
        assert row.value == pytest.approx(reference[row.alpha], rel=1e-13)


def test_nonsteep_profile_large_a():
    # C(theta, a) alone underflows from a ~ 1e205; the profile tends to alpha**2 / (1 - alpha**2)
    for a in (1e16, 1e250, 1e300):
        rows = nonsteep_profile(a, [0.5, 1.0, 1.5])
        assert rows[0].value == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert rows[1].value == pytest.approx(a, rel=1e-12)
        assert rows[2].divergent


@pytest.mark.parametrize("a, alphas", [(0.5, [math.nan]), (0.5, [1.0, math.inf]), (0.5, [-math.inf]),
                                       (math.nan, [0.5]), (math.inf, [0.5]), (0.0, [0.5]), (1e301, [0.5])])
def test_nonsteep_profile_rejects_inputs_outside_its_domain(a, alphas):
    with pytest.raises(InvariantError):
        nonsteep_profile(a, alphas)


def test_steepness_quadrature_matches_closed_form():
    base = halfline_measure(rate=0.1, tail_tol=1e-13)
    a = 0.5
    x = base.points
    p = Density.from_unnormalized(base, (a + x) ** -1.5 * np.exp(-x))  # the half-line density of nonsteep_profile
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


@pytest.mark.parametrize("x", [1.35e154, 1e200, 1.7e308])
def test_arcsinh_young_function_stays_finite_where_x_squared_overflows(x):
    # x arcsinh(x) - sqrt(1 + x**2) + 1 with sqrt(1 + x**2) = x: it was -inf once x * x overflowed
    want = x * math.asinh(x) - x + 1.0  # inf at 1.7e308, where x arcsinh(x) overflows
    for phi in (young_pair("b").Phi, young_pair("cosh_minus_one").Phi_conj):
        assert phi(np.array([x, -x])).tolist() == pytest.approx([want, want], rel=1e-14)
    p = Density.uniform(finite_measure(np.arange(4.0)))
    [row] = steepness_profile(p, [x, 0.0, 0.0, -x], young_pair("b"), [1.0])
    assert row.value == pytest.approx(0.5 * want, rel=1e-14)


@pytest.mark.parametrize("tag", YOUNG_TAGS)
@pytest.mark.parametrize("form", ["Phi", "Phi_conj"])
def test_young_forms_are_inf_at_infinity(tag, form):
    # three forms subtract a term that is also inf at inf (x arcsinh x - x + 1, (1 + x) log1p x - x, e**y - 1 - y):
    # read there as inf, not as NaN with an invalid-value warning, which the suite makes an error
    phi = getattr(young_pair(tag), form)
    assert phi(np.array([math.inf, -math.inf])).tolist() == [math.inf, math.inf]
    assert phi(-math.inf) == math.inf


def test_steepness_profile_reports_a_zero_weight_under_an_overflow_as_divergent():
    # p.prob[0] underflows to 0 while cosh(1000) - 1 overflows: the sum meets 0 * inf, a divergent point
    m = finite_measure(np.arange(3.0), [1e-300, 1.0, 1.0])
    p = Density.from_unnormalized(m, [1e-30, 1.0, 1.0])
    assert p.prob[0] == 0.0
    assert steepness_profile(p, [1000.0, 0.0, 0.0], young_pair("cosh_minus_one"), [1.0]) == [(1.0, math.inf)]


def test_gauges_report_divergence():
    # Phi = 0 at 0 and +inf elsewhere: convex, but no radius brings E_p[Phi(u/r)] down to 1, and
    # a deformed exponential that is +inf everywhere: no radius brings the mass down to 2
    m, p = _two_point()

    def jump(x):
        return np.where(np.asarray(x) == 0.0, 0.0, np.inf)

    yf = YoungFunction("jump", jump, jump, lambda x: (jump(x), np.log1p(x)), np.expm1, lambda y: (jump(y), y * np.exp(y)), 0.0)
    for norm, name in ((luxemburg_norm, "Luxemburg"), (dual_norm, "dual")):
        with pytest.raises(InvariantError, match=f"{name} norm diverges for tag 'jump'"):
            norm(p, coordinate(m), yf)
    d = DeformedLogarithm(
        "inf", lambda x: np.asarray(x, dtype=float), np.log, lambda x: np.full(np.shape(x), np.inf), -math.inf
    )
    with pytest.raises(InvariantError, match="deformed norm diverges for tag 'inf'"):
        phi_norm(p, coordinate(m), d)


def test_validate_young_pair_checks_dphi_inv():
    b = young_pair("b")
    validate_young_pair(b)
    # slope y * exp(y): exp, not cosh, taken for the derivative of sinh
    wrong = dataclasses.replace(b, dual_sloped=lambda y: (b.dual_sloped(y)[0], y * np.exp(y)))
    with pytest.raises(InvariantError, match="slope of dual_sloped is not y times the derivative of phi_inv"):
        validate_young_pair(wrong)


def _modular(weights, F, vals, r):
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(weights @ F(vals / r))
    return total if math.isfinite(total) else math.inf


@pytest.mark.parametrize("tag", ["a", "b", "two", "cosh_minus_one"])
def test_orlicz_gauges_keep_their_contract_and_agree_with_bisection(tag):
    # modular(r) <= 1, the modular above 1 at r * (1 - 1e-14), and the radius within 1e-13 of
    # plain bisection on the same modular; the dual norm through its multiplier lam
    rng = np.random.default_rng(16)
    yf = young_pair(tag)
    dual_F = lambda y: yf.Phi(yf.phi_inv(y))  # noqa: E731
    for _ in range(200):
        m = finite_measure(np.arange(float(rng.choice([1, 4, 16, 64]))))
        p = Density.random(m, rng)
        u = rng.standard_normal(m.size) * 10.0 ** rng.uniform(-3.0, 3.0)
        r = luxemburg_norm(p, u, yf)
        assert _modular(p.prob, yf.Phi, u, r) <= 1.0 < _modular(p.prob, yf.Phi, u, r * (1.0 - 1e-14))
        oracle = bisection_root(lambda s: _modular(p.prob, yf.Phi, u, s), 1.0, float(np.max(np.abs(u))))
        assert abs(r - oracle) <= 1e-13 * oracle
        lam = bisection_root(lambda s: _modular(p.prob, dual_F, np.abs(u), s), 1.0, float(np.max(np.abs(u))))
        want = float(p.prob @ (yf.phi_inv(np.abs(u) / lam) * np.abs(u)))
        assert abs(dual_norm(p, u, yf) - want) <= 1e-13 * want


@pytest.mark.parametrize("u", [[1e-308, 0.0, 0.0, 0.0], [1e308, 1.0, 1.0, 1.0], [1e300, -1e300, 0.0, 0.0]])
def test_gauges_at_the_ends_of_the_double_range(u):
    # the lower end of the bracket, s = level / max|u|, overflows for max|u| = 1e-308: the gauge
    # scales by max|u| itself, and moves the radius, not its logarithm, by rel_tol / 2
    m = finite_measure(np.arange(4.0))
    p = Density.uniform(m)
    u = np.array(u)
    for tag in ("a", "b", "two", "cosh_minus_one"):
        yf = young_pair(tag)
        r = luxemburg_norm(p, u, yf)
        assert _modular(p.prob, yf.Phi, np.abs(u), r) <= 1.0 < _modular(p.prob, yf.Phi, np.abs(u), r * (1.0 - 1e-14))
        assert dual_norm(p, u, yf) > 0.0
    d = make_deformed("kaniadakis", 0.3)
    F = lambda x: d.exp(x + d.log(p.values))  # noqa: E731
    r = phi_norm(p, u, d)
    assert _modular(m.weights, F, np.abs(u), r) <= 2.0 < _modular(m.weights, F, np.abs(u), r * (1.0 - 1e-14))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_gauges_reject_values_that_are_not_finite(bad):
    m, p = _two_point()
    u = np.array([bad, 1.0])
    for norm, name in ((luxemburg_norm, "Luxemburg"), (dual_norm, "dual")):
        with pytest.raises(InvariantError, match=f"{name} norm diverges for tag 'b'.*not finite"):
            norm(p, u, young_pair("b"))
    with pytest.raises(InvariantError, match="not finite"):
        phi_norm(p, u, make_deformed("classical"))


# every norm that enters the one gauge; tsallis at q = 0.999, as the tangent start of the tiny density
# below overflows only for q near 1 (at q = 0.99, (1e-310)**q is 1.3e-307 and the norm is finite)
_GAUGE_NORMS = (
    [(luxemburg_norm, "Luxemburg norm", young_pair(tag)) for tag in YOUNG_TAGS]
    + [(dual_norm, "dual norm", young_pair(tag)) for tag in YOUNG_TAGS if young_pair(tag).dual_sloped is not None]
    + [(phi_norm, "deformed norm", make_deformed(tag, param))
       for tag, param in (("classical", None), ("tsallis", 0.999), ("kaniadakis", 0.3), ("newton", None))]
)


@pytest.mark.parametrize("norm, name, family", _GAUGE_NORMS, ids=[f"{n} {f.tag}" for _, n, f in _GAUGE_NORMS])
def test_each_norm_takes_the_one_gauge_entry(norm, name, family):
    # the zero vector, a value that is not finite and a start bound that overflows: one front end for all
    m = finite_measure(np.arange(4.0))
    p = Density.from_unnormalized(m, [1.0, 1e-310, 1e-310, 1e-310])
    zero = norm(p, np.zeros(4), family)
    assert zero == 0.0 and type(zero) is float
    with pytest.raises(InvariantError, match=f"^{name} diverges for tag '{family.tag}': .*not finite$"):
        norm(p, np.array([math.inf, 1.0, 1.0, 1.0]), family)
    # E_p|u| / max|u| = 3e-310, with u = 0 where p is not tiny
    with pytest.raises(InvariantError, match=f"^{name} for tag '{family.tag}': the gauge bracket overflows double"):
        norm(p, np.array([0.0, 1.0, 1.0, 1.0]), family)


def test_phi_norm_of_an_extreme_kaniadakis_density_keeps_its_contract():
    # rebuilding phi(p) as p / sqrt(1 + (kappa log_kappa p)**2) squared kappa * log_kappa(1e-300 / 3.0), about -1.3e270,
    # and leaked an overflow warning; the tangent weights take phi(p) itself
    m = finite_measure(np.arange(4.0))
    p = Density.from_unnormalized(m, [1e-300, 1.0, 1.0, 1.0])
    d = make_deformed("kaniadakis", 0.9)
    u = np.array([0.0, 1.0, -1.0, 0.5])
    r = phi_norm(p, u, d)
    F = lambda x: d.exp(x + d.log(p.values))  # noqa: E731
    assert _modular(m.weights, F, np.abs(u), r) <= 2.0 < _modular(m.weights, F, np.abs(u), r * (1.0 - 1e-14))


def test_gauges_find_a_spike_far_below_the_jensen_start():
    # p puts 1e-12 on the one point where |v| = 1e3, and |v| = 1e-3 elsewhere: the Jensen start
    # level / E_p|v| lies about 1e3 times above the root.  Newton runs in log s, with steps on log M
    # while M is far above the target; for kaniadakis the spike's curvature stops the first Newton
    # run early, and a second run to 1e-14 finishes (a fixed creep of rel_tol / 2 steps raised here)
    m = finite_measure(np.arange(8.0))
    raw = np.ones(8)
    raw[0] = 1e-12
    p = Density.from_unnormalized(m, raw)
    v = np.full(8, 1e-3)
    v[0] = 1e3
    for tag in ("a", "b", "two", "cosh_minus_one"):
        base = young_pair(tag)
        calls = []
        yf = dataclasses.replace(
            base,
            sloped=lambda x, f=base.sloped: calls.append(1) or f(x),
            dual_sloped=lambda y, f=base.dual_sloped: calls.append(1) or f(y),
        )
        dual_F = lambda y: base.Phi(base.phi_inv(y))  # noqa: E731
        for norm, F in ((luxemburg_norm, base.Phi), (dual_norm, dual_F)):
            calls.clear()
            got = norm(p, v, yf)
            r = bisection_root(lambda s: _modular(p.prob, F, v, s), 1.0, 1e3)
            want = r if norm is luxemburg_norm else float(p.prob @ (base.phi_inv(v / r) * v))
            # the dual value E_p[phi_inv(|v| / lam) |v|] amplifies lam's error by up to |v| / lam, about 40
            assert abs(got - want) <= (1e-13 if norm is luxemburg_norm else 1e-12) * want
            assert len(calls) <= 12
    for tag, param in (("classical", None), ("tsallis", 0.5), ("kaniadakis", 0.3), ("newton", None)):
        d, calls = make_deformed(tag, param), []
        counting = dataclasses.replace(d, exp=lambda x, exp=d.exp: calls.append(1) or exp(x))
        F = lambda x: d.exp(x + d.log(p.values))  # noqa: E731
        want = bisection_root(lambda s: _modular(m.weights, F, v, s), 2.0, 1e3)
        assert abs(phi_norm(p, v, counting) - want) <= 1e-13 * want
        assert len(calls) <= 25


@pytest.mark.parametrize("tag,param", [("classical", None), ("tsallis", 0.5), ("kaniadakis", 0.3), ("newton", None)])
def test_phi_norm_keeps_its_contract_and_agrees_with_bisection(tag, param):
    rng = np.random.default_rng(17)
    d = make_deformed(tag, param)
    for _ in range(200):
        m = finite_measure(np.arange(float(rng.choice([1, 4, 16, 64]))))
        p = Density.random(m, rng)
        u = rng.standard_normal(m.size) * 10.0 ** rng.uniform(-3.0, 2.0)
        log_p = d.log(p.values)
        F = lambda x: d.exp(x + log_p)  # noqa: E731
        r = phi_norm(p, u, d)
        assert _modular(m.weights, F, np.abs(u), r) <= 2.0 < _modular(m.weights, F, np.abs(u), r * (1.0 - 1e-14))
        oracle = bisection_root(lambda s: _modular(m.weights, F, np.abs(u), s), 2.0, float(np.max(np.abs(u))))
        assert abs(r - oracle) <= 1e-13 * oracle
