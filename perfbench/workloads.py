"""The three benchmark workloads: their inputs, operations, checks and rationale.

One *pass* of a workload is a fixed list of operations.  The seed draws the
data of every operation (densities, functions, spectra, CLI seeds); the
kinds and sizes of the operations are fixed, so every seed asks for the
same amount of work.  A pass holds N operations with N - 1 a multiple of 10,
so that the median and the 90th percentile over the operations of a pass
are each one operation's latency, not an interpolation between two.

An operation's ``run`` makes only library calls and returns its outputs; its
``check`` (numpy only, never timed) returns None when the outputs are
correct and the reason otherwise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from igc import bundle, deformed, flows, manifold, measures, orlicz


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], dict] | None = None
    check: Callable[[dict], str | None] | None = None
    argv: tuple[str, ...] | None = None  # cli-cold: arguments of one `igc` call


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (per-layer metric group, end-to-end metrics it should move on which workload)
    predicts: tuple[tuple[str, str], ...]
    # layers expected to hold more than half of the traced time
    dominant: tuple[str, ...]
    build: Callable[[int], list[Op]] = field(repr=False)


def digest(outputs) -> str:
    """Bitwise fingerprint of an operation's outputs (arrays, numbers, bytes, densities)."""
    h = hashlib.sha256()

    def feed(val):
        if hasattr(val, "values") and isinstance(val.values, np.ndarray):
            val = val.values  # Density, RandomVariable and the vector types
        if isinstance(val, dict):
            for key in sorted(val):
                h.update(key.encode())
                feed(val[key])
        elif isinstance(val, (list, tuple)):
            h.update(b"[%d]" % len(val))
            for item in val:
                feed(item)
        elif isinstance(val, np.ndarray):
            h.update(str((val.dtype.str, val.shape)).encode())
            h.update(np.ascontiguousarray(val).tobytes())
        elif isinstance(val, float):
            h.update(val.hex().encode())
        elif isinstance(val, bytes):
            h.update(val)
        else:
            h.update(repr(val).encode())

    feed(outputs)
    return h.hexdigest()


def _max_mass_defect(densities) -> float:
    return max(abs(float(d.values @ d.base.weights) - 1.0) for d in densities)


def _mass(values: np.ndarray, weights: np.ndarray) -> float:
    return float(values @ weights)


def _first_failure(*conditions: tuple[bool, str]) -> str | None:
    for ok, reason in conditions:
        if not ok:
            return reason
    return None


# ---------------------------------------------------------------- flows

_GEODESIC_T, _GEODESIC_DT = 0.2, 0.02  # 10 RK4 steps for every geodesic
_HEAT_STEPS = 10
_NGA_GAMMA = 0.1


def _geodesic_op(n: int, rng: np.random.Generator) -> Op:
    m = measures.finite_measure(np.arange(float(n)))
    p0 = measures.Density.random(m, rng)
    f = measures.RandomVariable(m, rng.standard_normal(n))

    def run():
        record = flows.integrate_e_chart(flows.exponential_field(f), p0, _GEODESIC_T, _GEODESIC_DT)
        closed = flows.e_geodesic(p0, f, record.times[-1])
        return {"densities": record.densities, "closed": closed, "times": record.times}

    def check(out):
        gap = float(np.max(np.abs(out["densities"][-1].values - out["closed"].values)))
        return _first_failure(
            (gap <= 1e-6, "gap to e_geodesic above 1e-6"),
            (_max_mass_defect(out["densities"]) <= 1e-12, "mass drift above 1e-12"),
        )

    return Op(f"geodesic n={n}", run, check)


def _heat_op(nodes: int) -> Op:
    grid = measures.periodic_grid_measure(0.0, 1.0, nodes)
    x = grid.points
    p0 = measures.Density.from_unnormalized(
        grid, 1.0 + 0.3 * np.cos(2 * np.pi * x) + 0.1 * np.sin(4 * np.pi * x)
    )
    h = grid.spacing
    dt = h * h / 4.0

    def run():
        res = flows.heat_flow(p0, _HEAT_STEPS * dt, dt)
        return {
            "final": res.record.densities[-1],
            "reference": res.reference,
            "max_gap": res.max_gap,
            "mass_drift": res.mass_drift,
            "residuals": res.weak_residuals,
        }

    def check(out):
        gap = float(np.max(np.abs(out["final"].values - out["reference"])))
        return _first_failure(
            (gap <= 1e-4, "heat max_gap above 1e-4"),
            (gap == out["max_gap"], "reported max_gap disagrees with the outputs"),
            (out["mass_drift"] <= 1e-12, "heat mass drift above 1e-12"),
        )

    return Op(f"heat nodes={nodes}", run, check)


def _nga_op(sites: int, iters: int, rng: np.random.Generator) -> Op:
    m = measures.boolean_measure(sites)
    signs = measures.boolean_signs(m)
    coefs = rng.uniform(0.5, 1.5, sites) * rng.choice([-1.0, 1.0], sites)
    objective = measures.RandomVariable(m, signs @ coefs)
    p0 = measures.Density.uniform(m)
    basis = [measures.tangent(p0, signs[:, k]) for k in range(sites)]
    # with independent sites the site-basis ascent moves along the e-geodesic of the
    # objective itself: after k steps q is proportional to exp(k * gamma * objective)
    t_end = iters * _NGA_GAMMA
    closed = np.exp(t_end * (objective.values - np.max(objective.values)))
    closed = closed / float(closed @ m.weights)

    def run():
        res = flows.natural_gradient_ascent(objective, p0, basis, gamma=_NGA_GAMMA, iters=iters)
        return {"densities": res.record.densities, "objective": res.objective, "regularized": res.regularized}

    def check(out):
        return _first_failure(
            (float(np.max(np.abs(out["densities"][-1].values - closed))) <= 1e-9, "ascent leaves the closed-form curve"),
            (bool(np.all(np.diff(out["objective"]) >= -1e-12)), "objective decreased"),
            (_max_mass_defect(out["densities"]) <= 1e-12, "mass drift above 1e-12"),
        )

    return Op(f"nga sites={sites}", run, check)


def build_flows(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    # 7 overhead-bound operations (the median is the 6th fastest), one in between,
    # and 3 array-bound geodesics (the 90th percentile is the 10th of 11)
    small = [_geodesic_op(n, rng) for n in (8, 32, 128)]
    small += [_heat_op(32), _heat_op(64)]  # fixed initial profile, as in `igc flow heat`
    small += [_nga_op(8, 40, rng), _nga_op(10, 30, rng)]
    mid = [_geodesic_op(4096, rng)]
    large = [_geodesic_op(n, rng) for n in (16384, 32768, 32768)]
    return small + mid + large


# ---------------------------------------------------------------- kernels

_STRICT_PAIRS = ("a", "b", "two", "cosh_minus_one")
_DEFORMED = (("classical", None, 64), ("tsallis", 0.5, 64), ("kaniadakis", 0.3, 64), ("newton", None, 4))


def _norm_pair_op(tag: str, n: int, rng: np.random.Generator) -> Op:
    m = measures.finite_measure(np.arange(float(n)))
    p = measures.Density.random(m, rng)
    u = measures.RandomVariable(m, rng.standard_normal(n))
    lam = float(rng.uniform(1.5, 4.0))
    yf = orlicz.young_pair(tag)
    lu = u * lam

    def run():
        return {
            "lux": orlicz.luxemburg_norm(p, u, yf),
            "lux_scaled": orlicz.luxemburg_norm(p, lu, yf),
            "dual": orlicz.dual_norm(p, u, yf),
            "dual_scaled": orlicz.dual_norm(p, lu, yf),
        }

    def check(out):
        return _first_failure(
            (out["lux"] > 0 and out["dual"] > 0, "norm of a nonzero function is not positive"),
            (abs(out["lux_scaled"] - lam * out["lux"]) <= 1e-12 * lam * out["lux"], "Luxemburg homogeneity"),
            (abs(out["dual_scaled"] - lam * out["dual"]) <= 1e-12 * lam * out["dual"], "dual-norm homogeneity"),
        )

    return Op(f"orlicz {tag} n={n}", run, check)


def _deformed_ops(tag: str, param: float | None, n: int, rng: np.random.Generator) -> list[Op]:
    m = measures.finite_measure(np.arange(float(n)))
    p = measures.Density.random(m, rng)
    q = measures.Density.random(m, rng)
    d = deformed.make_deformed(tag, param)
    raw = 0.5 * rng.standard_normal(n)
    centered = raw - deformed.escort_expect(p, raw, d)
    # Shrink until the patched density provably exists: for an escort-centered u the
    # normalizing constant k lies in [0, max u] (at k = max u every value is at most p),
    # so u - k + log_phi p stays above the domain edge of the deformed exponential.
    while float(np.min(centered + d.log(p.values)) - np.max(centered)) <= d.lower_bound:
        centered = 0.5 * centered
    u = measures.RandomVariable(m, rng.standard_normal(n))
    lam = float(rng.uniform(1.5, 4.0))
    lu = u * lam
    t = float(rng.uniform(0.2, 0.8))

    def run_norm():
        d = deformed.make_deformed(tag, param)
        return {"norm": deformed.phi_norm(p, u, d), "norm_scaled": deformed.phi_norm(p, lu, d)}

    def check_norm(out):
        return _first_failure(
            (out["norm"] > 0, "deformed norm of a nonzero function is not positive"),
            (abs(out["norm_scaled"] - lam * out["norm"]) <= 1e-10 * lam * out["norm"], "deformed-norm homogeneity"),
        )

    def run_chart():
        d = deformed.make_deformed(tag, param)
        arc = deformed.phi_arc(p, q, d, t)
        return {
            "k": deformed.phi_cumulant(p, centered, d),
            "patch": deformed.phi_patch(p, centered, d),
            "arc": arc.density,
            "family": arc.family_density,
            "psi": arc.psi,
        }

    def check_chart(out):
        return _first_failure(
            (out["k"] >= 0.0, "cumulant negative on an escort-centered coordinate"),
            (abs(_mass(out["patch"].values, m.weights) - 1.0) <= 1e-10, "patched density has no unit mass"),
            (abs(_mass(out["family"].values, m.weights) - 1.0) <= 1e-10, "arc family member has no unit mass"),
            (abs(_mass(out["arc"].values, m.weights) - 1.0) <= 1e-10, "normalized arc has no unit mass"),
            (bool(np.isfinite(out["psi"])), "arc normalizing constant is not finite"),
        )

    name = f"{tag} n={n}"
    return [
        Op(f"phi_norm {name}", run_norm, check_norm),
        Op(f"phi_cumulant+patch+arc {name}", run_chart, check_chart),
    ]


def _walsh_op(sites: int, rng: np.random.Generator) -> Op:
    m = measures.boolean_measure(sites)
    u = measures.RandomVariable(m, rng.standard_normal(m.size))

    def run():
        spec = orlicz.walsh_transform(u)
        return {"back": orlicz.inverse_walsh(spec, m)}

    def check(out):
        ok = float(np.max(np.abs(out["back"].values - u.values))) <= 1e-12 * max(1.0, float(np.max(np.abs(u.values))))
        return None if ok else "inverse Walsh round trip"

    return Op(f"walsh sites={sites}", run, check)


def _spectrum_with_kernel(sites: int, dim: int, rng: np.random.Generator) -> orlicz.WalshSpectrum:
    """Spectrum on the single-site masks plus ``dim`` XOR-dependent masks: kernel dimension ``dim``."""
    extra: set[int] = set()
    while len(extra) < dim:
        mask = int(rng.integers(0, 1 << sites))
        if bin(mask).count("1") >= 2:
            extra.add(mask)
    masks = [1 << k for k in range(sites)] + sorted(extra)
    coefs = 0.3 * rng.standard_normal(len(masks))
    return orlicz.WalshSpectrum(sites, {mask: float(c) for mask, c in zip(masks, coefs)})


def _mgf_op(sites: int, dim: int, rng: np.random.Generator) -> Op:
    spec = _spectrum_with_kernel(sites, dim, rng)
    t = float(rng.uniform(0.3, 1.0))
    # brute force: u(x) = sum_mask c * (-1)**popcount(x & mask) over all 2**sites states
    states = np.arange(1 << sites)
    u = np.zeros(states.size)
    for mask, c in spec.coeffs.items():
        u += c * (1.0 - 2.0 * (np.bitwise_count(states & mask) & 1))
    brute = float(np.mean(np.exp(t * u)))

    def run():
        return {"mgf": orlicz.boolean_mgf(spec, t)}

    def check(out):
        return None if abs(out["mgf"] - brute) <= 1e-12 * brute else "boolean_mgf disagrees with brute force"

    return Op(f"boolean_mgf dim={dim}", run, check)


def _hilbert_op(n: int, trips: int, rng: np.random.Generator) -> Op:
    m = measures.finite_measure(np.arange(float(n)))
    cases = []
    for _ in range(trips):
        p = measures.Density.random(m, rng)
        q = measures.Density.random(m, rng)
        cases.append((p, q, bundle.hilbert_vector(p, rng.standard_normal(n))))

    def run():
        trips = []
        for p, q, u in cases:
            moved = bundle.hilbert_transport(p, q, u)
            trips.append((moved, bundle.hilbert_transport(q, p, moved)))
        return {"trips": trips}

    def check(out):
        worst = 0.0
        for (p, q, u), (moved, back) in zip(cases, out["trips"]):
            iso = abs(float(q.prob @ moved.values**2) - float(p.prob @ u.values**2))
            worst = max(worst, iso, float(np.max(np.abs(back.values - u.values))))
        return None if worst <= 1e-12 else "Hilbert transport is not an isometric round trip"

    return Op(f"hilbert n={n}", run, check)


def _hermite_op(nodes: int, n_max: int, rng: np.random.Generator) -> Op:
    gh = measures.gauss_hermite_measure(nodes)
    yv = 1.0 + 0.3 * rng.standard_normal(nodes)
    y = measures.RandomVariable(gh, yv / np.sqrt(float(gh.weights @ (yv * yv))))

    def run():
        rep = bundle.hermite_transport_demo(y, n_max)
        return {"gram": rep.gram, "max_offdiag": rep.max_offdiag, "max_diag_defect": rep.max_diag_defect}

    def check(out):
        expected = np.array([np.prod(np.arange(1.0, k + 1.0)) for k in range(1, n_max + 1)])
        off = out["gram"] - np.diag(np.diag(out["gram"]))
        return _first_failure(
            (float(np.max(np.abs(off))) <= 1e-10 * float(expected[-1]), "transported Hermite basis is not orthogonal"),
            (float(np.max(np.abs(np.diag(out["gram"]) - expected) / expected)) <= 1e-10, "transported norms are not n!"),
        )

    return Op(f"hermite nodes={nodes}", run, check)


def _divergence_op(n: int, rng: np.random.Generator) -> Op:
    m = measures.finite_measure(np.arange(float(n)))
    p = measures.Density.random(m, rng)
    q = measures.Density.random(m, rng)
    r = manifold.orthogonal_mixture_third(p, q, rng)
    center = measures.Density.uniform(m)

    def run():
        div = manifold.divergence(q, r, center)
        pyth = manifold.pythagorean_check(p, q, r)
        return {"direct": div.direct, "bregman": div.bregman, "defect": pyth.defect,
                "split": pyth.d_r_q - pyth.d_r_p - pyth.d_p_q}

    def check(out):
        return _first_failure(
            (abs(out["direct"] - out["bregman"]) <= 1e-10, "Bregman form differs from KL"),
            (abs(out["defect"]) <= 1e-10, "Pythagorean pairing defect"),
            (abs(out["split"]) <= 1e-10, "orthogonal divergences do not split"),
        )

    return Op(f"divergence n={n}", run, check)


def build_kernels(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = [_norm_pair_op(tag, 1024, rng) for tag in _STRICT_PAIRS]
    for tag, param, n in _DEFORMED:
        ops += _deformed_ops(tag, param, n, rng)
    ops += [_walsh_op(s, rng) for s in (10, 13, 16)]
    ops += [_mgf_op(s, d, rng) for s, d in ((10, 6), (11, 9), (12, 12))]
    ops += [_hilbert_op(128, 10, rng), _hermite_op(80, 16, rng), _divergence_op(256, rng)]
    return ops


# ---------------------------------------------------------------- cli-cold

def build_cli(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    commands = [
        ["orlicz", "profile", "--a", "0.5"],
        ["steepness", "--a", "0.5"],
        ["chart", "--n", "8"],
        ["div", "--n", "8"],
        ["pyth", "--n", "8"],
        ["transport", "--trials", "20", "--max-size", "64"],
        ["flow", "opt", "--n-sites", "8", "--gamma", "0.5", "--iters", "20"],
        ["flow", "geodesic", "--n", "8", "--T", "0.1", "--dt", "0.01"],
        ["deformed", "norm", "--family", "tsallis", "--param", "0.5"],
        ["deformed", "cumulant", "--family", "kaniadakis", "--param", "0.3"],
        ["deformed", "arc", "--family", "tsallis", "--param", "0.5", "--steps", "5"],
    ]
    ops = []
    for argv in commands:
        argv = argv + ["--seed", str(int(rng.integers(0, 2**31)))]
        ops.append(Op("igc " + " ".join(argv), argv=tuple(argv)))
    return ops


# ---------------------------------------------------------------- registry

WORKLOADS = {
    "flows": Workload(
        name="flows",
        why=(
            "chart ODE flows: e-geodesics at n=8..32768, heat flow, natural-gradient ascent; "
            "patch_e once per RK4 stage dominates"
        ),
        predicts=(
            ("measures.*, manifold.*, flows.*", "throughput_ops_s and latency_ms.p50/p90 on flows; none on cli-cold; small on kernels"),
        ),
        dominant=("measures", "manifold", "flows"),
        build=build_flows,
    ),
    "kernels": Workload(
        name="kernels",
        why="one-shot root-finds and spectral kernels: Orlicz/deformed norms, Walsh, boolean_mgf, transports",
        predicts=(
            ("rootfind.*, orlicz.*, deformed.*, bundle.*", "throughput_ops_s and latency_ms.p90 on kernels; none on flows"),
        ),
        dominant=("rootfind", "deformed", "orlicz", "bundle"),
        build=build_kernels,
    ),
    "cli-cold": Workload(
        name="cli-cold",
        why="one fresh igc process per light subcommand: interpreter start plus import igc dominate",
        predicts=(
            ("cli.interp_s, cli.import_s, cli.import.scipy_s, cli.main_s",
             "setup_s on every workload and latency_ms.p50 on cli-cold; no throughput change on flows/kernels"),
        ),
        dominant=("interp", "import"),
        build=build_cli,
    ),
}
