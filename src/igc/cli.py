"""Command-line front end: deterministic tables and JSON records for every demo.

Exit codes: 0 when all checks pass, 1 on a tolerance failure, 2 on usage
errors and on input the library rejects; the latter prints one JSON record
{schema_version, command, error, pass: false}.  Identical (command, seed,
version) triples produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bundle import hilbert_transport, hilbert_vector
from .deformed import (
    escort_expect,
    make_deformed,
    phi_arc,
    phi_connected,
    phi_cumulant,
    phi_norm,
    phi_patch,
)
from .flows import (
    OptimizationResult,
    e_geodesic,
    exponential_field,
    heat_flow,
    integrate_e_chart,
    natural_gradient_ascent,
)
from .manifold import chart_s, cumulant, divergence, orthogonal_mixture_third, patch_e, pythagorean_check
from .measures import (
    Density,
    InvariantError,
    RandomVariable,
    boolean_measure,
    boolean_signs,
    expect,
    finite_measure,
    periodic_grid_measure,
    tangent,
)
from .orlicz import nonsteep_profile

SCHEMA_VERSION = 1
NONSTEEP_REFERENCE = 0.8037381  # profile value at the domain edge for a = 1/2
PROFILE_CSV_HEADER = ("alpha", "value", "divergent")
ARC_CSV_HEADER = ("t", "mass", "psi")
DEFAULT_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.1)


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int
    tol: float | None
    out: str | None
    fmt: str


def _inputs_hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _emit_record(config: RunConfig, inputs, values: dict, ok: bool) -> int:
    record = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": config.command,
        "seed": config.seed,
        "inputs_hash": _inputs_hash(inputs),
        "values": values,
        "pass": ok,
    }
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    return 0 if ok else 1


def _write_csv(config: RunConfig, header, rows) -> None:
    def dump(stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])

    if config.out:
        with open(config.out, "w", newline="") as fh:
            dump(fh)
    elif config.fmt == "csv":
        dump(sys.stdout)


def _profile(config: RunConfig, args) -> tuple[list, list[dict]]:
    """The half-line profile rows, written as the CSV table and returned with their JSON form."""
    rows = nonsteep_profile(args.a, args.alphas)
    _write_csv(config, PROFILE_CSV_HEADER, [(r.alpha, r.value, r.divergent) for r in rows])
    return rows, [{"alpha": r.alpha, "value": None if r.divergent else r.value, "divergent": r.divergent} for r in rows]


def cmd_orlicz(config: RunConfig, args) -> int:
    _, json_rows = _profile(config, args)
    return _emit_record(config, {"a": args.a, "alphas": args.alphas}, {"rows": json_rows}, True)


def cmd_steepness(config: RunConfig, args) -> int:
    rows, json_rows = _profile(config, args)
    tol = config.tol if config.tol is not None else 1e-5
    ok = True
    edge = next((r for r in rows if r.alpha == 1.0), None)
    if args.a == 0.5 and edge is not None:
        ok &= abs(edge.value - NONSTEEP_REFERENCE) <= tol
    ok &= all(r.divergent for r in rows if abs(r.alpha) > 1.0)
    values = {"rows": json_rows, "edge_value": None if edge is None else edge.value}
    return _emit_record(config, {"a": args.a, "alphas": args.alphas}, values, bool(ok))


def cmd_chart(config: RunConfig, args) -> int:
    rng = np.random.default_rng(config.seed)
    m = finite_measure(np.arange(float(args.n)))
    p = Density.random(m, rng)
    q = Density.random(m, rng)
    u = chart_s(p, q)
    defect = float(np.max(np.abs(patch_e(p, u).values - q.values)))
    tol = config.tol if config.tol is not None else 1e-12
    values = {"cumulant": cumulant(p, u), "roundtrip_defect": defect}
    inputs = {"p": p.values.tolist(), "q": q.values.tolist()}
    return _emit_record(config, inputs, values, defect <= tol)


def cmd_div(config: RunConfig, args) -> int:
    rng = np.random.default_rng(config.seed)
    m = finite_measure(np.arange(float(args.n)))
    q = Density.random(m, rng)
    r = Density.random(m, rng)
    res = divergence(q, r, Density.uniform(m))
    defect = abs(res.direct - res.bregman)
    tol = config.tol if config.tol is not None else 1e-10
    values = {"direct": res.direct, "bregman": res.bregman, "defect": defect}
    inputs = {"q": q.values.tolist(), "r": r.values.tolist()}
    return _emit_record(config, inputs, values, defect <= tol)


def cmd_pyth(config: RunConfig, args) -> int:
    rng = np.random.default_rng(config.seed)
    m = finite_measure(np.arange(float(args.n)))
    p = Density.random(m, rng)
    q = Density.random(m, rng)
    r = orthogonal_mixture_third(p, q, rng)
    res = pythagorean_check(p, q, r)
    split = res.d_r_q - res.d_r_p - res.d_p_q
    tol = config.tol if config.tol is not None else 1e-10
    ok = abs(res.defect) <= tol and abs(split) <= tol
    values = {
        "pairing": res.pairing,
        "defect": res.defect,
        "split_defect": split,
        "divergences": {"r_q": res.d_r_q, "r_p": res.d_r_p, "p_q": res.d_p_q},
    }
    inputs = {"p": p.values.tolist(), "q": q.values.tolist(), "r": r.values.tolist()}
    return _emit_record(config, inputs, values, ok)


def cmd_transport(config: RunConfig, args) -> int:
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    for _ in range(args.trials):
        n = int(rng.integers(2, args.max_size + 1))
        m = finite_measure(np.arange(float(n)))
        p = Density.random(m, rng)
        q = Density.random(m, rng)
        u = hilbert_vector(p, rng.standard_normal(n))
        moved = hilbert_transport(p, q, u)
        iso = abs(float(q.prob @ (moved.values**2)) - float(p.prob @ (u.values**2)))
        back = hilbert_transport(q, p, moved)
        rt = float(np.max(np.abs(back.values - u.values)))
        worst = max(worst, iso, rt)
    tol = config.tol if config.tol is not None else 1e-12
    values = {"n_trials": args.trials, "max_defect": worst}
    return _emit_record(config, {"trials": args.trials, "max_size": args.max_size}, values, worst <= tol)


def _trajectory_rows(record) -> tuple[tuple, list]:
    n = record.densities[0].base.size
    header = ("time",) + tuple(f"v{i:03d}" for i in range(n))
    rows = [
        (float(t),) + tuple(float(x) for x in d.values)
        for t, d in zip(record.times, record.densities)
    ]
    return header, rows


def cmd_flow(config: RunConfig, args) -> int:
    rng = np.random.default_rng(config.seed)
    if args.kind == "geodesic":
        m = finite_measure(np.arange(float(args.n)))
        p0 = Density.random(m, rng)
        f = RandomVariable(m, rng.standard_normal(args.n))
        record = integrate_e_chart(exponential_field(f), p0, args.T, args.dt)
        closed = e_geodesic(p0, f, record.times[-1])
        gap = float(np.max(np.abs(record.densities[-1].values - closed.values)))
        drift = record.mass_drift()
        final_objective = expect(record.densities[-1], f)
        tol = config.tol if config.tol is not None else 1e-6
        ok = gap <= tol and drift <= 1e-12
    elif args.kind == "heat":
        grid = periodic_grid_measure(0.0, 1.0, args.nodes)
        x = grid.points
        p0 = Density.from_unnormalized(
            grid, 1.0 + 0.3 * np.cos(2 * math.pi * x) + 0.1 * np.sin(4 * math.pi * x)
        )
        h = grid.spacing
        dt = args.dt if args.dt is not None else h * h / 4.0
        res = heat_flow(p0, args.T, dt)
        record = res.record
        gap, drift = res.max_gap, res.mass_drift
        final_objective = None
        tol = config.tol if config.tol is not None else 1e-4
        ok = gap <= tol and drift <= 1e-12
    else:  # opt
        m = boolean_measure(args.n_sites)
        signs = boolean_signs(m)
        coefs = rng.uniform(0.5, 1.5, args.n_sites) * rng.choice([-1.0, 1.0], args.n_sites)
        objective = RandomVariable(m, signs @ coefs)
        p0 = Density.uniform(m)
        basis = [tangent(p0, signs[:, k]) for k in range(args.n_sites)]
        res: OptimizationResult = natural_gradient_ascent(
            objective, p0, basis, gamma=args.gamma, iters=args.iters
        )
        record = res.record
        best = int(np.argmax(objective.values))
        argmax_mass = float(record.densities[-1].prob[best])
        gap = 1.0 - argmax_mass
        drift = record.mass_drift()
        final_objective = float(res.objective[-1])
        ok = argmax_mass >= 0.99 and drift <= 1e-12
    header, rows = _trajectory_rows(record)
    _write_csv(config, header, rows)
    values = {"final_objective": final_objective, "mass_drift": drift, "max_gap": gap}
    inputs = {"kind": args.kind, "seed": config.seed}
    return _emit_record(config, inputs, values, bool(ok))


def cmd_deformed(config: RunConfig, args) -> int:
    rng = np.random.default_rng(config.seed)
    d = make_deformed(args.family, args.param)
    m = finite_measure(np.arange(float(args.n)))
    p = Density.random(m, rng)
    q = Density.random(m, rng)
    tol = config.tol if config.tol is not None else 1e-10
    if args.kind == "arc":
        ts = [float(t) for t in np.linspace(0.0, 1.0, args.steps)]
        masses = phi_connected(p, q, d, ts)
        rows = []
        worst = 0.0
        for t, point in zip(ts, masses):
            res = phi_arc(p, q, d, t)
            rows.append((t, point.mass, res.psi))
            worst = max(worst, abs(res.family_density.mass() - 1.0))
        _write_csv(config, ARC_CSV_HEADER, rows)
        ok = worst <= tol and all(mass <= 1.0 + 1e-12 for _, mass, _ in rows)
        values = {"rows": [{"t": t, "mass": mass, "psi": psi} for t, mass, psi in rows], "family_mass_defect": worst}
    elif args.kind == "norm":
        u = RandomVariable(m, rng.standard_normal(args.n))
        nrm = phi_norm(p, u, d)
        escort_l1 = float(m.weights @ (d.phi(p.values) * np.abs(u.values)))
        homog = abs(phi_norm(p, u * 2.0, d) - 2.0 * nrm)
        ok = escort_l1 <= nrm + tol and homog <= max(tol, 1e-10 * nrm)
        values = {"norm": nrm, "escort_l1": escort_l1, "homogeneity_defect": homog}
    else:  # cumulant
        raw = 0.5 * rng.standard_normal(args.n)
        centered = raw - escort_expect(p, raw, d)
        # shrink until the patch provably exists: the constant k lies in [0, max u] for
        # escort-centered u, so u - k + log_phi p stays above the domain edge
        for _ in range(60):
            if float(np.min(centered + d.log(p.values)) - np.max(centered)) > d.lower_bound:
                break
            centered = 0.5 * centered
        u = RandomVariable(m, centered)
        k = phi_cumulant(p, u, d)
        mass_defect = abs(phi_patch(p, u, d).mass() - 1.0)
        values = {"k": k, "patch_mass_defect": mass_defect}
        ok = mass_defect <= tol and k >= 0.0
        if args.family == "classical":
            classical_gap = abs(k - cumulant(p, tangent(p, u.values)))
            values["classical_gap"] = classical_gap
            ok = ok and classical_gap <= tol
    inputs = {"family": args.family, "param": args.param, "p": p.values.tolist()}
    return _emit_record(config, inputs, values, bool(ok))


def _alpha_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for all randomized inputs (default 0)")
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="override the per-command pass tolerance")
    common.add_argument("--out", type=str, default=argparse.SUPPRESS,
                        help="write the CSV table to this path")
    common.add_argument("--format", dest="fmt", choices=("csv", "json"), default=argparse.SUPPRESS,
                        help="stdout format for tabular commands (default json)")

    parser = argparse.ArgumentParser(prog="igc", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p_orlicz = add_parser("orlicz", help="Orlicz tables")
    p_orlicz.add_argument("action", choices=("profile",))
    p_orlicz.add_argument("--a", type=float, default=0.5)
    p_orlicz.add_argument("--alphas", type=_alpha_list, default=DEFAULT_ALPHAS)

    p_steep = add_parser("steepness", help="half-line steepness profile with edge check")
    p_steep.add_argument("--a", type=float, default=0.5)
    p_steep.add_argument("--alphas", type=_alpha_list, default=DEFAULT_ALPHAS)

    for name, helptext in (("chart", "chart/patch round trip"), ("div", "divergence cross-check"),
                           ("pyth", "orthogonal-triple divergence split")):
        sp = add_parser(name, help=helptext)
        sp.add_argument("--n", type=int, default=8)

    p_tr = add_parser("transport", help="fiber transport checks")
    p_tr.add_argument("--trials", type=int, default=50)
    p_tr.add_argument("--max-size", type=int, default=64)

    p_flow = add_parser("flow", help="chart-based flows")
    p_flow.add_argument("kind", choices=("geodesic", "heat", "opt"))
    p_flow.add_argument("--T", type=float, default=None)
    p_flow.add_argument("--dt", type=float, default=None)
    p_flow.add_argument("--n", type=int, default=8)
    p_flow.add_argument("--nodes", type=int, default=64)
    p_flow.add_argument("--n-sites", type=int, default=8)
    p_flow.add_argument("--gamma", type=float, default=0.1)
    p_flow.add_argument("--iters", type=int, default=500)

    p_def = add_parser("deformed", help="deformed-exponential demos")
    p_def.add_argument("kind", choices=("arc", "norm", "cumulant"))
    p_def.add_argument("--family", type=str, default="tsallis")
    p_def.add_argument("--param", type=float, default=0.5)
    p_def.add_argument("--n", type=int, default=8)
    p_def.add_argument("--steps", type=int, default=11)

    return parser


_HANDLERS = {
    "orlicz": cmd_orlicz,
    "steepness": cmd_steepness,
    "chart": cmd_chart,
    "div": cmd_div,
    "pyth": cmd_pyth,
    "transport": cmd_transport,
    "flow": cmd_flow,
    "deformed": cmd_deformed,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "flow":
        if args.T is None:
            args.T = 0.1 if args.kind == "heat" else 1.0
        if args.dt is None and args.kind == "geodesic":
            args.dt = 1e-3
    config = RunConfig(
        command=args.command,
        seed=getattr(args, "seed", 0),
        tol=getattr(args, "tol", None),
        out=getattr(args, "out", None),
        fmt=getattr(args, "fmt", "json"),
    )
    if args.command == "deformed" and args.family in ("classical", "newton"):
        args.param = None
    try:
        return _HANDLERS[args.command](config, args)
    except InvariantError as exc:
        record = {"schema_version": SCHEMA_VERSION, "command": args.command, "error": str(exc), "pass": False}
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
