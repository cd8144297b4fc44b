"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Every tolerance is pinned here, not configured elsewhere.  Criterion 9a is
implemented exactly as stated and is expected to fail; see its marker reason
for the closed-form analysis of why the stated bound cannot be met.
"""

import math
import time

import numpy as np
import pytest

from igc.bundle import hilbert_transport, metric_derivative
from igc.deformed import make_deformed, phi_cumulant
from igc.flows import (
    e_geodesic,
    exponential_field,
    heat_flow,
    integrate_e_chart,
    natural_gradient_ascent,
)
from igc.manifold import cumulant, cumulant_derivatives, divergence, orthogonal_mixture_third, patch_e, pythagorean_check
from igc.measures import (
    Density,
    RandomVariable,
    boolean_measure,
    boolean_signs,
    covariance,
    expect,
    finite_measure,
    periodic_grid_measure,
    tangent,
)
from igc.orlicz import WalshSpectrum, boolean_mgf, inverse_walsh, nonsteep_profile
from oracles import fd_gradient, fd_hessian, rk4_scalar


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_nonsteep_edge():
    start = time.perf_counter()
    rows = {r.alpha: r for r in nonsteep_profile(0.5, [1.0, 1.1])}
    elapsed = time.perf_counter() - start
    gap = abs(rows[1.0].value - 0.8037381)
    ok = gap <= 1e-5 and rows[1.1].divergent and elapsed < 1.0
    _report("01 nonsteep edge", ok, f"edge gap {gap:.2e}, divergent {rows[1.1].divergent}, {elapsed:.3f} s")


def test_criterion_02_transport_isometry():
    rng = np.random.default_rng(2024)
    worst_iso = worst_rt = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        m = finite_measure(np.arange(float(n)))
        p = Density.random(m, rng)
        q = Density.random(m, rng)
        u = tangent(p, rng.uniform(-1.0, 1.0, n))
        moved = hilbert_transport(p, q, u)
        worst_iso = max(worst_iso, abs(expect(q, moved.values**2) - expect(p, u.values**2)))
        back = hilbert_transport(q, p, moved)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.values - u.values))))
    ok = worst_iso <= 1e-12 and worst_rt <= 1e-12
    _report("02 transport isometry", ok, f"isometry {worst_iso:.2e}, round trip {worst_rt:.2e}")


def test_criterion_03_cumulant_derivatives():
    rng = np.random.default_rng(3)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 17))
        m = finite_measure(np.arange(float(n)))
        p = Density.random(m, rng)
        u = tangent(p, 0.4 * rng.standard_normal(n))
        dirs = [tangent(p, rng.standard_normal(n)) for _ in range(3)]
        grad, hess = cumulant_derivatives(p, u, dirs)
        scale_g = max(1.0, float(np.max(np.abs(grad))))
        scale_h = max(1.0, float(np.max(np.abs(hess))))
        for i in range(3):
            fd = fd_gradient(p, u.values, dirs[i].values, h)
            worst = max(worst, abs(fd - grad[i]) / scale_g)
            for j in range(3):
                fd2 = fd_hessian(p, u.values, dirs[i].values, dirs[j].values, h)
                worst = max(worst, abs(fd2 - hess[i, j]) / scale_h)
    ok = worst <= 1e-6
    _report("03 cumulant derivatives", ok, f"worst relative defect {worst:.2e}")


def test_criterion_04_boolean_mgf():
    rng = np.random.default_rng(4)
    worst = 0.0
    for n in range(2, 13):
        m = boolean_measure(n)
        for _ in range(20):
            n_masks = int(min(2 * n, 8, m.size - 1))
            masks = rng.choice(np.arange(1, m.size), size=n_masks, replace=False)
            spec = WalshSpectrum(
                n, {int(mk): float(c) for mk, c in zip(masks, rng.normal(0.0, 0.3, n_masks))}
            )
            u = inverse_walsh(spec, m)
            for t in (0.4, 0.9):
                enumeration = float(np.mean(np.exp(t * u.values)))
                worst = max(worst, abs(boolean_mgf(spec, t) - enumeration))
    ok = worst <= 1e-12
    _report("04 boolean mgf", ok, f"worst defect vs enumeration {worst:.2e}")


def test_criterion_05_bregman_and_pythagoras():
    rng = np.random.default_rng(5)
    m = finite_measure(np.arange(8.0))
    p_uniform = Density.uniform(m)
    worst_breg = 0.0
    for _ in range(100):
        q = Density.random(m, rng)
        r = Density.random(m, rng)
        res = divergence(q, r, p_uniform)
        worst_breg = max(worst_breg, abs(res.direct - res.bregman))
    worst_pyth = 0.0
    for _ in range(50):
        p = Density.random(m, rng)
        q = Density.random(m, rng)
        r = orthogonal_mixture_third(p, q, rng)
        res = pythagorean_check(p, q, r)
        worst_pyth = max(worst_pyth, abs(res.defect), abs(res.d_r_q - res.d_r_p - res.d_p_q))
    ok = worst_breg <= 1e-10 and worst_pyth <= 1e-10
    _report("05 bregman/pythagoras", ok, f"bregman {worst_breg:.2e}, split {worst_pyth:.2e}")


def test_criterion_06_geodesic_vs_integrator():
    rng = np.random.default_rng(6)
    m = finite_measure(np.arange(8.0))
    p = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(8))
    record = integrate_e_chart(exponential_field(f), p, 1.0, 1e-3)
    gap = float(np.max(np.abs(record.densities[-1].values - e_geodesic(p, f, 1.0).values)))
    ok = gap <= 1e-6
    _report("06 geodesic", ok, f"sup gap at T=1 {gap:.2e}")


def test_criterion_07_heat_flow():
    grid = periodic_grid_measure(0.0, 1.0, 64)
    x = grid.points
    p0 = Density.from_unnormalized(
        grid, 1.0 + 0.3 * np.cos(2 * math.pi * x) + 0.1 * np.sin(4 * math.pi * x)
    )
    h = grid.spacing
    res = heat_flow(p0, 0.1, h * h / 4.0)
    ok = res.max_gap <= 1e-4 and res.mass_drift <= 1e-12
    _report("07 heat flow", ok, f"sup gap {res.max_gap:.2e}, mass drift {res.mass_drift:.2e}")


def test_criterion_08_metric_derivative():
    rng = np.random.default_rng(8)
    m = finite_measure(np.arange(12.0))
    h = 1e-4
    worst_fd = worst_product = 0.0
    for _ in range(50):
        p = Density.random(m, rng)
        w = tangent(p, rng.standard_normal(12))
        h1 = rng.standard_normal(12)
        h2 = rng.standard_normal(12)

        def along(t, raw):
            pt = patch_e(p, tangent(p, t * w.values))
            return tangent(pt, raw), pt

        f1, _ = along(0.0, h1)
        d1 = metric_derivative(p, f1, np.full(12, -covariance(p, h1, w.values)), w)
        fp, pp = along(h, h1)
        fm, pm = along(-h, h1)
        fd = (hilbert_transport(pp, p, fp).values - hilbert_transport(pm, p, fm).values) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(d1.values))))
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - d1.values))) / scale)

        f2, _ = along(0.0, h2)
        d2 = metric_derivative(p, f2, np.full(12, -covariance(p, h2, w.values)), w)
        rhs = expect(p, d1.values * f2.values) + expect(p, f1.values * d2.values)

        def product_expectation(t):
            a, pt = along(t, h1)
            b, _ = along(t, h2)
            return expect(pt, a.values * b.values)

        lhs = (product_expectation(h) - product_expectation(-h)) / (2 * h)
        worst_product = max(worst_product, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst_fd <= 1e-5 and worst_product <= 1e-6
    _report("08 metric derivative", ok, f"transport FD {worst_fd:.2e}, product rule {worst_product:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: sup_{v in [0.1, 10]} |ln_q(v) - ln(v)| at q = 1 - 1e-6 "
        "equals (1-q) * ln(10)**2 / 2 = 2.65e-6 > 1e-6 at the interval endpoints; "
        "the bound holds only on [exp(-sqrt(2)), exp(sqrt(2))]"
    ),
)
def test_criterion_09a_tsallis_limit():
    d = make_deformed("tsallis", 1.0 - 1e-6)
    v = np.geomspace(0.1, 10.0, 201)
    gap = float(np.max(np.abs(d.log(v) - np.log(v))))
    ok = gap <= 1e-6
    _report("09a tsallis limit", ok, f"sup gap {gap:.2e} vs stated bound 1e-6")


def test_criterion_09b_deformed_limits():
    dk0 = make_deformed("kaniadakis", 0.0)
    us = np.linspace(-3.0, 3.0, 61)
    exact = bool(np.array_equal(dk0.exp(us), np.exp(us)))

    dk = make_deformed("kaniadakis", 0.5)
    worst_ode = 0.0
    for u in (-1.5, 0.7, 2.0):
        oracle = rk4_scalar(lambda y: float(dk.phi(np.array([y]))[0]), 1.0, u, 4000)
        ours = float(np.atleast_1d(dk.exp(np.array([u])))[0])
        worst_ode = max(worst_ode, abs(ours - oracle) / abs(oracle))

    rng = np.random.default_rng(9)
    m = finite_measure(np.arange(8.0))
    p = Density.random(m, rng)
    dc = make_deformed("classical")
    worst_k = 0.0
    for _ in range(20):
        raw = rng.standard_normal(8)
        u = RandomVariable(m, raw - expect(p, raw))
        worst_k = max(worst_k, abs(phi_cumulant(p, u, dc) - cumulant(p, tangent(p, u.values))))
    ok = exact and worst_ode <= 1e-6 and worst_k <= 1e-10
    _report(
        "09b deformed limits",
        ok,
        f"kappa=0 exact {exact}, ode rel {worst_ode:.2e}, classical cumulant {worst_k:.2e}",
    )


def test_criterion_10_natural_gradient():
    rng = np.random.default_rng(10)
    m = boolean_measure(8)
    signs = boolean_signs(m)
    coefs = rng.uniform(0.5, 1.5, 8) * rng.choice([-1.0, 1.0], 8)
    objective = RandomVariable(m, signs @ coefs)
    p0 = Density.uniform(m)
    basis = [tangent(p0, signs[:, k]) for k in range(8)]
    res = natural_gradient_ascent(objective, p0, basis, gamma=0.1, iters=500)
    best = int(np.argmax(objective.values))
    mass = float(res.record.densities[-1].prob[best])
    ok = mass >= 0.99
    _report("10 natural gradient", ok, f"argmax mass {mass:.6f} after 500 iterations")
