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

import numpy as np

from . import __version__
from .bundle import hilbert_transport
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
    FlowError,
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
    _dot,
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

# Each cmd_* handler takes the parsed arguments and a generator seeded with --seed and
# returns (inputs, values, ok); main writes the one record, with inputs only as their hash.


def _tol(args, default: float) -> float:
    """The pass tolerance: ``--tol`` when given, else the command's own default."""
    return args.tol if args.tol is not None else default


def _write_csv(args, header, rows) -> None:
    def dump(stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])

    if args.out:
        with open(args.out, "w", newline="") as fh:
            dump(fh)
    elif args.fmt == "csv":
        dump(sys.stdout)


def _density_pair(n: int, rng) -> tuple[Density, Density]:
    """Two random densities on the n-point support {0, ..., n-1}."""
    m = finite_measure(np.arange(float(n)))
    return Density.random(m, rng), Density.random(m, rng)


def _profile(args) -> tuple[list, dict, list[dict]]:
    """The half-line profile rows, written as the CSV table, with the inputs and the rows' JSON form."""
    if not args.alphas:
        raise InvariantError("--alphas lists no alpha; give at least one")
    rows = nonsteep_profile(args.a, args.alphas)
    _write_csv(args, PROFILE_CSV_HEADER, [(r.alpha, r.value, r.divergent) for r in rows])
    json_rows = [{"alpha": r.alpha, "value": None if r.divergent else r.value, "divergent": r.divergent} for r in rows]
    return rows, {"a": args.a, "alphas": args.alphas}, json_rows


def cmd_orlicz(args, rng):
    _, inputs, json_rows = _profile(args)
    return inputs, {"rows": json_rows}, True


def cmd_steepness(args, rng):
    rows, inputs, json_rows = _profile(args)
    ok = True
    edge = next((r for r in rows if r.alpha == 1.0), None)
    if args.a == 0.5 and edge is not None:
        ok &= abs(edge.value - NONSTEEP_REFERENCE) <= _tol(args, 1e-5)
    ok &= all(r.divergent for r in rows if abs(r.alpha) > 1.0)
    return inputs, {"rows": json_rows, "edge_value": None if edge is None else edge.value}, ok


def cmd_chart(args, rng):
    p, q = _density_pair(args.n, rng)
    u = chart_s(p, q)
    defect = float(np.max(np.abs(patch_e(p, u).values - q.values)))
    values = {"cumulant": cumulant(p, u), "roundtrip_defect": defect}
    return {"p": p.values.tolist(), "q": q.values.tolist()}, values, defect <= _tol(args, 1e-12)


def cmd_div(args, rng):
    q, r = _density_pair(args.n, rng)
    res = divergence(q, r, Density.uniform(q.base))
    defect = abs(res.direct - res.bregman)
    values = {"direct": res.direct, "bregman": res.bregman, "defect": defect}
    return {"q": q.values.tolist(), "r": r.values.tolist()}, values, defect <= _tol(args, 1e-10)


def cmd_pyth(args, rng):
    p, q = _density_pair(args.n, rng)
    r = orthogonal_mixture_third(p, q, rng)
    res = pythagorean_check(p, q, r)
    split = res.d_r_q - res.d_r_p - res.d_p_q
    tol = _tol(args, 1e-10)
    values = {
        "pairing": res.pairing,
        "defect": res.defect,
        "split_defect": split,
        "divergences": {"r_q": res.d_r_q, "r_p": res.d_r_p, "p_q": res.d_p_q},
    }
    inputs = {"p": p.values.tolist(), "q": q.values.tolist(), "r": r.values.tolist()}
    return inputs, values, abs(res.defect) <= tol and abs(split) <= tol


def cmd_transport(args, rng):
    if args.max_size < 2:
        raise InvariantError(f"--max-size {args.max_size} is below the smallest support size 2")
    if args.trials < 1:
        raise InvariantError(f"--trials {args.trials} checks nothing; give at least 1")
    worst = 0.0
    for _ in range(args.trials):
        n = int(rng.integers(2, args.max_size + 1))
        p, q = _density_pair(n, rng)
        u = tangent(p, rng.standard_normal(n))
        moved = hilbert_transport(p, q, u)
        iso = abs(_dot(q.prob, moved.values**2) - _dot(p.prob, u.values**2))
        back = hilbert_transport(q, p, moved)
        rt = float(np.max(np.abs(back.values - u.values)))
        worst = max(worst, iso, rt)
    values = {"n_trials": args.trials, "max_defect": worst}
    return {"trials": args.trials, "max_size": args.max_size}, values, worst <= _tol(args, 1e-12)


def _trajectory_rows(record) -> tuple[tuple, list]:
    n = record.densities[0].base.size
    header = ("time",) + tuple(f"v{i:03d}" for i in range(n))
    rows = [
        (float(t),) + tuple(float(x) for x in d.values)
        for t, d in zip(record.times, record.densities)
    ]
    return header, rows


def cmd_flow(args, rng):
    t_final = args.T if args.T is not None else (0.1 if args.kind == "heat" else 1.0)
    if args.kind == "geodesic":
        m = finite_measure(np.arange(float(args.n)))
        p0 = Density.random(m, rng)
        f = RandomVariable(m, rng.standard_normal(args.n))
        record = integrate_e_chart(exponential_field(f), p0, t_final, args.dt if args.dt is not None else 1e-3)
        closed = e_geodesic(p0, f, record.times[-1])
        gap = float(np.max(np.abs(record.densities[-1].values - closed.values)))
        drift = record.mass_drift()
        final_objective = expect(record.densities[-1], f)
        ok = gap <= _tol(args, 1e-6) and drift <= 1e-12
    elif args.kind == "heat":
        grid = periodic_grid_measure(0.0, 1.0, args.nodes)
        x = grid.points
        p0 = Density.from_unnormalized(
            grid, 1.0 + 0.3 * np.cos(2 * math.pi * x) + 0.1 * np.sin(4 * math.pi * x)
        )
        h = grid.spacing
        res = heat_flow(p0, t_final, args.dt if args.dt is not None else h * h / 4.0)
        record = res.record
        gap, drift = res.max_gap, res.mass_drift
        final_objective = None
        ok = gap <= _tol(args, 1e-4) and drift <= 1e-12
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
    _write_csv(args, *_trajectory_rows(record))
    values = {"final_objective": final_objective, "mass_drift": drift, "max_gap": gap}
    return {"kind": args.kind, "seed": args.seed}, values, ok


def cmd_deformed(args, rng):
    param = None if args.family in ("classical", "newton") else args.param
    d = make_deformed(args.family, param)
    p, q = _density_pair(args.n, rng)
    m = p.base
    tol = _tol(args, 1e-10)
    if args.kind == "arc":
        if args.steps < 2:
            raise InvariantError(f"--steps {args.steps} is below the two arc endpoints")
        ts = [float(t) for t in np.linspace(0.0, 1.0, args.steps)]
        masses = phi_connected(p, q, d, ts)
        rows = []
        worst = 0.0
        for t, point in zip(ts, masses):
            res = phi_arc(p, q, d, t)
            rows.append((t, point.mass, res.psi))
            worst = max(worst, abs(res.family_density.mass() - 1.0))
        _write_csv(args, ARC_CSV_HEADER, rows)
        ok = worst <= tol and all(mass <= 1.0 + 1e-12 for _, mass, _ in rows)
        values = {"rows": [{"t": t, "mass": mass, "psi": psi} for t, mass, psi in rows], "family_mass_defect": worst}
    elif args.kind == "norm":
        u = RandomVariable(m, rng.standard_normal(args.n))
        nrm = phi_norm(p, u, d)
        escort_l1 = _dot(m.weights, d.phi(p.values) * np.abs(u.values))
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
    return {"family": args.family, "param": param, "p": p.values.tolist()}, values, ok


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

    def add_parser(name, run, **kwargs):
        sp = sub.add_parser(name, parents=[common], **kwargs)
        sp.set_defaults(run=run)
        return sp

    p_orlicz = add_parser("orlicz", cmd_orlicz, help="Orlicz tables")
    p_orlicz.add_argument("action", choices=("profile",))
    p_orlicz.add_argument("--a", type=float, default=0.5)
    p_orlicz.add_argument("--alphas", type=_alpha_list, default=DEFAULT_ALPHAS)

    p_steep = add_parser("steepness", cmd_steepness, help="half-line steepness profile with edge check")
    p_steep.add_argument("--a", type=float, default=0.5)
    p_steep.add_argument("--alphas", type=_alpha_list, default=DEFAULT_ALPHAS)

    for name, run, helptext in (("chart", cmd_chart, "chart/patch round trip"),
                                ("div", cmd_div, "divergence cross-check"),
                                ("pyth", cmd_pyth, "orthogonal-triple divergence split")):
        sp = add_parser(name, run, help=helptext)
        sp.add_argument("--n", type=int, default=8)

    p_tr = add_parser("transport", cmd_transport, help="fiber transport checks")
    p_tr.add_argument("--trials", type=int, default=50)
    p_tr.add_argument("--max-size", type=int, default=64)

    p_flow = add_parser("flow", cmd_flow, help="chart-based flows")
    p_flow.add_argument("kind", choices=("geodesic", "heat", "opt"))
    p_flow.add_argument("--T", type=float, default=None)
    p_flow.add_argument("--dt", type=float, default=None)
    p_flow.add_argument("--n", type=int, default=8)
    p_flow.add_argument("--nodes", type=int, default=64)
    p_flow.add_argument("--n-sites", type=int, default=8)
    p_flow.add_argument("--gamma", type=float, default=0.1)
    p_flow.add_argument("--iters", type=int, default=500)

    p_def = add_parser("deformed", cmd_deformed, help="deformed-exponential demos")
    p_def.add_argument("kind", choices=("arc", "norm", "cumulant"))
    p_def.add_argument("--family", type=str, default="tsallis")
    p_def.add_argument("--param", type=float, default=0.5)
    p_def.add_argument("--n", type=int, default=8)
    p_def.add_argument("--steps", type=int, default=11)

    return parser


def main(argv=None) -> int:
    # the global flags' values when neither side of the subcommand sets them
    args = build_parser().parse_args(argv, argparse.Namespace(seed=0, tol=None, out=None, fmt="json"))
    try:
        # checked before any work, also for the subcommands that read no tolerance
        if args.tol is not None and not 0.0 <= args.tol < math.inf:
            raise InvariantError(f"--tol must be finite and non-negative, got {args.tol!r}")
        inputs, values, ok = args.run(args, np.random.default_rng(args.seed))
    except (InvariantError, FlowError) as exc:
        record = {"schema_version": SCHEMA_VERSION, "command": args.command, "error": str(exc), "pass": False}
        code = 2
    else:
        blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
        record = {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "command": args.command,
            "seed": args.seed,
            "inputs_hash": hashlib.sha256(blob.encode()).hexdigest(),
            "values": values,
            "pass": bool(ok),
        }
        code = 0 if ok else 1
    sys.stdout.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
