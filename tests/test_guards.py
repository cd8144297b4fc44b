"""Every input guard of igc's modules, given one bad input: the exception class and message it raises.

Each row of GUARDS reaches one ``raise`` that no other test reaches; where an ``igc`` command
reaches the same guard, CLI_GUARDS also checks its exit code 2 and its error record.  The young-*
rows check that the suite's Young-pair contract check, ``oracles.validate_young_pair``, refuses
each broken pair.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

import igc
from igc import BaseMismatchError, FlowError, InvariantError
from igc.cli import main
from oracles import validate_young_pair

M = igc.finite_measure(np.arange(4.0))
P = igc.Density(M, [0.1, 0.7, 0.1, 0.1])
Q = igc.Density(M, [0.4, 0.3, 0.2, 0.1])
X = igc.sphere_point(M, np.ones(4))  # values 1/2: a sphere point
T = igc.sphere_tangent(X, [1.0, -1.0, 0.0, 0.0])  # a tangent at X
GH = igc.gauss_hermite_measure(8)
U = igc.tangent(P, [1.0, 2.0, 3.0, 4.0])  # a vector of the fibre at P
U_FAR = igc.tangent(igc.Density(igc.finite_measure(np.arange(10.0, 14.0)), P.values), [1.0, 2.0, 3.0, 4.0])
U_AT_Q = igc.tangent(Q, [1.0, 2.0, 3.0, 4.0])  # E_P of it is 0.2
TWO = igc.young_pair("two")  # Phi = Phi_conj = x**2 / 2
# E_p|u| / max|u| = 3e-310 (with u = 0 where p is not tiny): the gauges' Jensen or tangent start overflows
P_TINY = igc.Density.from_unnormalized(M, [1.0, 1e-310, 1e-310, 1e-310])
U_TINY = np.array([0.0, 1.0, 1.0, 1.0])


def _pair(**fields):
    return dataclasses.replace(TWO, tag="broken", **fields)


_BIG = igc.VectorField(lambda q: np.array([1.7e308, -1.7e308, 0.0, 0.0]))  # centered under P: entry 0 overflows
_STEEP = igc.VectorField(lambda q: np.array([1e308, -1e308]))  # centered under the uniform density on 2 points
_HALVES = igc.Density.uniform(igc.finite_measure([0.0, 1.0]))


def _flipping():
    """A field whose sign flips at each call: centred under P each value is finite, but two in a row differ by
    2 * 0.9 * 1.7e308 in entry 0, which overflows."""
    signs = itertools.cycle((1.0, -1.0))
    return igc.VectorField(lambda q: next(signs) * np.array([1.7e308, 0.0, 0.0, 0.0]))


def _probe_at(scale):
    """The Lipschitz probe of an exponential field on 8 points (seed 3) at scale: from 1e154 up, some sampled
    difference overflows when squared (and from 1e308 the draw itself)."""
    rng = np.random.default_rng(3)
    m = igc.finite_measure(np.arange(8.0))
    p = igc.Density.random(m, rng)
    field = igc.exponential_field(igc.RandomVariable(m, rng.standard_normal(8)))
    return igc.one_sided_lipschitz_probe(field, p, scale=scale)


GUARDS = [
    # measures
    ("measure-shapes", lambda: igc.Measure(np.arange(3.0), np.ones(2)), InvariantError,
     "1-D arrays of equal length"),
    ("measure-empty", lambda: igc.finite_measure([]), InvariantError, "empty support"),
    ("spacing-not-periodic", lambda: M.spacing, InvariantError, "periodic uniform grids only"),
    ("boolean-sites", lambda: igc.boolean_measure(21), InvariantError, "n_sites must be between 1 and 20"),
    ("boolean-signs", lambda: igc.boolean_signs(M), InvariantError, "not a boolean measure"),
    ("boolean-site-negative", lambda: igc.boolean_site(igc.boolean_measure(2), -1), InvariantError,
     "site index -1 is not in 0 .. 1"),
    ("boolean-site-past-last", lambda: igc.boolean_site(igc.boolean_measure(2), 5), InvariantError,
     "site index 5 is not in 0 .. 1"),
    ("boolean-site-float", lambda: igc.boolean_site(igc.boolean_measure(2), 1.5), TypeError,
     "cannot be interpreted as an integer"),
    ("legendre-interval", lambda: igc.gauss_legendre_measure(1.0, 0.0, 2), InvariantError, "need b > a"),
    ("legendre-panels", lambda: igc.gauss_legendre_measure(0.0, 1.0, 0), InvariantError, "need n_panels >= 1"),
    ("periodic-nodes", lambda: igc.periodic_grid_measure(0.0, 1.0, 2), InvariantError, "need b > a and n >= 3"),
    ("hermite-nodes", lambda: igc.gauss_hermite_measure(1), InvariantError, "need at least 2 nodes"),
    ("density-size", lambda: igc.Density(M, np.full(3, 0.25)), InvariantError, "density values must match"),
    # the mass overflows: refused as +inf is, with no numpy warning first
    ("density-mass-overflow", lambda: igc.Density(igc.finite_measure([0.0, 1.0, 2.0]), [1e308, 1e308, 1.0]),
     InvariantError, "^density values must be strictly positive and finite$"),
    ("variable-size", lambda: igc.RandomVariable(M, np.ones(3)), InvariantError, "random variable values must match"),
    ("coordinate-boolean", lambda: igc.coordinate(igc.boolean_measure(2)), InvariantError, "boolean state codes"),
    ("values-size", lambda: igc.expect(P, np.ones(3)), InvariantError, "value array does not match the support size"),
    # orlicz
    ("young-tag", lambda: igc.young_pair("three"), InvariantError, "unknown Young pair tag 'three'"),
    ("young-zero", lambda: validate_young_pair(_pair(Phi=lambda x: 0.5 * x * x + 1e-3)), InvariantError,
     "Phi\\(0\\) must vanish"),
    ("young-even", lambda: validate_young_pair(_pair(Phi=lambda x: 0.5 * x * x + 0.1 * x)), InvariantError,
     "not even"),
    ("young-convex", lambda: validate_young_pair(_pair(Phi=lambda x: np.sqrt(np.abs(x)))), InvariantError,
     "midpoint convexity fails"),
    ("young-inequality",
     lambda: validate_young_pair(_pair(Phi=lambda x: 0.25 * x * x, Phi_conj=lambda x: 0.25 * x * x)),
     InvariantError, "Young inequality fails"),
    ("young-sloped", lambda: validate_young_pair(_pair(sloped=lambda x: (0.25 * x * x, x))), InvariantError,
     "sloped does not give Phi"),
    ("young-dual-sloped", lambda: validate_young_pair(_pair(dual_sloped=lambda y: (0.25 * y * y, y))),
     InvariantError, "dual_sloped does not give Phi\\(phi_inv\\)"),
    ("walsh-base", lambda: igc.walsh_transform(igc.RandomVariable(M, np.ones(4))), InvariantError,
     "needs a boolean base measure"),
    ("inverse-walsh-size",
     lambda: igc.inverse_walsh(igc.walsh_transform(igc.boolean_site(igc.boolean_measure(2), 0)),
                               igc.boolean_measure(3)),
     InvariantError, "measure does not match the spectrum size"),
    ("steepness-alpha", lambda: igc.steepness_profile(P, np.arange(4.0), TWO, [1.0, np.nan]), InvariantError,
     "alpha must be finite, got nan"),
    # at alpha 0 the profile is 0 by definition: a NaN read as a divergence there, and an inf warned in 0 * inf
    ("steepness-u-nan", lambda: igc.steepness_profile(P, [np.nan, 0.0, 0.0, 0.0], igc.young_pair("cosh_minus_one"),
                                                     [0.0, 1.0]), InvariantError, "a value of u is not finite"),
    ("steepness-u-inf", lambda: igc.steepness_profile(P, [np.inf, 0.0, 0.0, 0.0], igc.young_pair("cosh_minus_one"),
                                                     [0.0]), InvariantError, "a value of u is not finite"),
    ("boolean-mgf-t", lambda: igc.boolean_mgf(igc.WalshSpectrum(2, {1: 1.0}), np.nan), InvariantError,
     "t must be finite, got nan"),
    ("boolean-mgf-cancelling-overflow",  # u is at most 0.8, so the MGF is finite, but products of cosh(640) overflow
     lambda: igc.boolean_mgf(igc.WalshSpectrum(2, {1: -0.8, 2: -0.8, 3: -0.8}), 800.0), InvariantError,
     "parity-class terms overflow with both signs at t = 800.0"),
    ("boolean-mgf-constant-underflow",  # u = x_0 - 1: exp(-800) underflows, while cosh(800) overflows
     lambda: igc.boolean_mgf(igc.WalshSpectrum(1, {0: -1.0, 1: 1.0}), 800.0), InvariantError,
     "exp\\(t \\* c_0\\) and the MGF of the other characters over- and underflow at t = 800.0"),
    ("luxemburg-bracket", lambda: igc.luxemburg_norm(P_TINY, U_TINY, igc.young_pair("a")), InvariantError,
     "Luxemburg norm for tag 'a': the gauge bracket overflows double precision"),
    ("dual-bracket", lambda: igc.dual_norm(P_TINY, U_TINY, igc.young_pair("a")), InvariantError,
     "dual norm for tag 'a': the gauge bracket overflows double precision"),
    ("walsh-sites-float", lambda: igc.WalshSpectrum(2.5, {}), TypeError, "cannot be interpreted as an integer"),
    ("walsh-sites-negative", lambda: igc.WalshSpectrum(-1, {}), InvariantError,
     "n = -1 is not in 0 .. 63: the masks are int64"),
    ("walsh-sites-negative-mask", lambda: igc.WalshSpectrum(-1, {0: 1.0}), InvariantError,
     "n = -1 is not in 0 .. 63: the masks are int64"),
    ("walsh-sites-past-int64", lambda: igc.WalshSpectrum(64, {1 << 63: 1.0}), InvariantError,
     "n = 64 is not in 0 .. 63: the masks are int64"),
    # manifold
    ("cumulant-derivatives-no-directions", lambda: igc.cumulant_derivatives(P, U, []), InvariantError,
     "cumulant_derivatives needs at least one direction"),
    ("chart-m-mass", lambda: igc.chart_m(P, np.full(4, 0.5)), InvariantError, "chart_m: argument has mass 2.0"),
    ("transport-m-other-density", lambda: igc.transport_m(P, Q, U_AT_Q), InvariantError,
     "transport_m: values are not centered under the base density"),
    ("third-equal", lambda: igc.orthogonal_mixture_third(P, P, np.random.default_rng(0)), InvariantError,
     "q equals p"),
    ("third-degenerate",  # on 2 points the centred directions form one line; this draw projects to exactly 0
     lambda: igc.orthogonal_mixture_third(_HALVES, igc.Density(_HALVES.base, [0.25, 0.75]),
                                          SimpleNamespace(standard_normal=lambda n: np.array([1.0, 0.0]))),
     InvariantError, "degenerate direction draw"),
    # bundle
    ("sphere-size", lambda: igc.SphereVector(M, np.ones(3)), InvariantError, "sphere vector values must match"),
    ("sphere-tangent-base", lambda: igc.SphereVector(M, [0.0, 0.0, 1.0, -1.0], at=T), InvariantError,
     "tangent base must be a sphere point"),
    ("sphere-zero", lambda: igc.sphere_point(M, np.zeros(4)), InvariantError, "cannot normalize the zero vector"),
    ("sphere-patch-ball", lambda: igc.sphere_patch(X, igc.sphere_tangent(X, [2.0, -2.0, 0.0, 0.0])), InvariantError,
     "outside the unit ball"),
    ("covariant-point", lambda: igc.covariant_derivative_sphere(lambda z: z, X, X), InvariantError,
     "w must be a tangent vector"),
    ("hermite-base", lambda: igc.hermite_transport_demo(igc.RandomVariable(M, np.ones(4)), 1), InvariantError,
     "needs a Gauss-Hermite base measure"),
    ("hermite-degree", lambda: igc.hermite_transport_demo(igc.RandomVariable(GH, GH.points), 0), InvariantError,
     "n_max must be at least 1"),
    ("hilbert-transport-other-base", lambda: igc.hilbert_transport(P, Q, U_FAR), BaseMismatchError,
     "hilbert_transport: operands live on different base measures"),
    ("hilbert-transport-other-density", lambda: igc.hilbert_transport(P, Q, U_AT_Q), InvariantError,
     "hilbert_transport: values are not centered under the base density"),
    ("metric-derivative-other-base", lambda: igc.metric_derivative(P, U_FAR, np.zeros(4), U), BaseMismatchError,
     "metric_derivative: operands live on different base measures"),
    ("metric-derivative-other-density", lambda: igc.metric_derivative(P, U, np.zeros(4), U_AT_Q), InvariantError,
     "metric_derivative: values are not centered under the base density"),
    # flows
    ("field-value-overflow", lambda: igc.one_sided_lipschitz_probe(_BIG, P, trials=1), FlowError,
     "non-finite vector field value"),
    ("field-difference-overflow", lambda: igc.one_sided_lipschitz_probe(_flipping(), P, trials=1), FlowError,
     "non-finite vector field difference; pair rejected"),
    *((f"probe-scale-{scale:g}", lambda scale=scale: _probe_at(scale), InvariantError,
       "need a scale whose sampled differences square to a finite number, got " + re.escape(repr(scale)))
      for scale in (1e154, 1e200, 1e308)),
    ("chart-state-overflow", lambda: igc.integrate_e_chart(_STEEP, _HALVES, 1.0, 1.0), FlowError,
     "non-finite chart state"),
    # the stage state y + (h/2) k1 = 2 * (1e308, -1e308) overflows before any step state does
    ("chart-stage-overflow", lambda: igc.integrate_e_chart(_STEEP, _HALVES, 4.0, 4.0), FlowError,
     "^non-finite chart state; step rejected$"),
    ("heat-grid", lambda: igc.heat_flow(P, 0.1, 0.01), InvariantError, "needs a periodic uniform grid"),
    ("m-geodesic-other-base", lambda: igc.m_geodesic(P, U_FAR, 1.0), BaseMismatchError,
     "m_geodesic: operands live on different base measures"),
    ("m-geodesic-other-density", lambda: igc.m_geodesic(P, U_AT_Q, 1.0), InvariantError,
     "m_geodesic: values are not centered under the base density"),
    ("ascent-directions-empty", lambda: igc.natural_gradient_ascent(U.rv, P, []), InvariantError,
     "directions must hold at least one direction"),
    ("ascent-gamma-inf", lambda: igc.natural_gradient_ascent(U.rv, P, [U], gamma=np.inf), InvariantError,
     "need a finite gamma > 0, got inf"),
    ("ascent-gamma-nan", lambda: igc.natural_gradient_ascent(U.rv, P, [U], gamma=np.nan), InvariantError,
     "need a finite gamma > 0, got nan"),
    ("ascent-gamma-zero", lambda: igc.natural_gradient_ascent(U.rv, P, [U], gamma=0.0), InvariantError,
     "need a finite gamma > 0, got 0.0"),
    ("ascent-iters-fraction", lambda: igc.natural_gradient_ascent(U.rv, P, [U], iters=2.5), InvariantError,
     "need an integer iters >= 0, got 2.5"),
    ("ascent-iters-nan", lambda: igc.natural_gradient_ascent(U.rv, P, [U], iters=np.nan), InvariantError,
     "need an integer iters >= 0, got nan"),
    # a finite gamma whose step overflows the chart state, with no warning leaking first
    ("ascent-step-overflow", lambda: igc.natural_gradient_ascent(U.rv, P, [U], gamma=1e308), FlowError,
     "non-finite chart state; step rejected"),
    # deformed
    ("kaniadakis-param", lambda: igc.make_deformed("kaniadakis"), InvariantError, "kaniadakis needs a parameter"),
    ("phi-norm-classical-bracket", lambda: igc.phi_norm(P_TINY, U_TINY, igc.make_deformed("classical")),
     InvariantError, "deformed norm for tag 'classical': the gauge bracket overflows double precision"),
    ("phi-norm-kaniadakis-bracket",  # phi(p), the tangent weight, underflows to 0 on the tiny entries
     lambda: igc.phi_norm(P_TINY, U_TINY, igc.make_deformed("kaniadakis", 0.3)),
     InvariantError, "deformed norm for tag 'kaniadakis': the gauge bracket overflows double precision"),
    ("arc-diverges", lambda: igc.phi_arc(P, Q, igc.make_deformed("classical"), 1000.0), InvariantError,
     "arc mass diverges at t = 1000.0"),
    ("phi-connected-t", lambda: igc.phi_connected(P, Q, igc.make_deformed("tsallis", 0.5), [0.5, np.nan]),
     InvariantError, "t must be finite, got nan"),
    ("phi-arc-t", lambda: igc.phi_arc(P, Q, igc.make_deformed("classical"), np.nan), InvariantError,
     "t must be finite, got nan"),
]


@pytest.mark.parametrize("call, error, match", [row[1:] for row in GUARDS], ids=[row[0] for row in GUARDS])
def test_guard_raises_its_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


CLI_GUARDS = [
    (["chart", "--n", "0"], "empty support"),
    (["pyth", "--n", "1"], "q equals p"),
    # on 2 points the centred directions are one line; at seed 0 nothing at all is left of the draw
    (["pyth", "--n", "2"], "degenerate direction draw"),
    (["flow", "opt", "--n-sites", "21"], "n_sites must be between 1 and 20"),
    (["flow", "opt", "--gamma", "inf"], "need a finite gamma > 0, got inf"),
    (["flow", "opt", "--gamma", "1e308"], "non-finite chart state; step rejected"),
    (["flow", "heat", "--nodes", "2"], "need b > a and n >= 3"),
    (["flow", "geodesic", "--T", "1e308", "--dt", "1e-300"], "with a finite t_final / dt, got 1e+308 / 1e-300"),
]


@pytest.mark.parametrize("argv, message", CLI_GUARDS, ids=[" ".join(argv) for argv, _ in CLI_GUARDS])
def test_cli_reports_the_guard_with_exit_code_2(argv, message):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 2
    record = json.loads(out.getvalue())
    assert record == {"schema_version": 1, "command": argv[0], "error": record["error"], "pass": False}
    assert message in record["error"]


def test_pyth_on_two_points_reports_a_degenerate_draw_for_every_seed():
    # on 2 points s_p(q) spans every centred draw and only rounding survives the projection; a guard
    # against exactly 0 catches 24 of these seeds, and the other 176 fail later on "density mass ... is not 1"
    for seed in range(200):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["pyth", "--n", "2", "--seed", str(seed)])
        record = json.loads(out.getvalue())
        assert (code, record["pass"]) == (2, False), seed
        assert "degenerate direction draw" in record["error"], seed


def test_the_branches_no_other_test_takes():
    assert igc.values_on(M, 2.5).tolist() == [2.5] * 4
    b2 = igc.boolean_measure(2)
    assert igc.boolean_site(b2, True).values.tolist() == igc.boolean_site(b2, 1).values.tolist()  # True reads as 1
