"""igc benchmark: closed-loop, single-process workloads with a separate traced run.

    python3 perfbench/run.py --workload flows|kernels|cli-cold|all \
        --seed N --seconds S --trace 0|1

Run from the repository root; ``igc`` is imported from ``src``.  One client
keeps one operation in flight (closed loop) and the BLAS/OpenMP thread pools
are capped at the number of usable cores.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
that also checks that tracing changes no output.  ``--workload all`` runs
every workload in turn and prints each metric by name with its unit.  The
last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads
    os.environ[_var] = str(NPROC)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("flows", "kernels", "cli-cold")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120.0
CLI_ENTRY = "import sys; from igc.cli import main; sys.exit(main())"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Child:
    """Result of one finished child process: output, exit code, wall time, peak RSS."""

    def __init__(self, argv: list[str], env: dict):
        t_wall = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        self.stdout = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = time.perf_counter() - t0
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.t_spawn = t_wall
        self.stderr = err[0] if err else b""
        self.code = proc.returncode
        self.rss_kib = usage.ru_maxrss


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "clients": 1,
        "loop": "closed",
    }


def measure_setup(workload: str, seed: int, labels: list[str]) -> tuple[float, list[str]]:
    """Median wall time of fresh interpreters that import igc and build the inputs."""
    argv = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    env = child_env()
    problems = []
    walls = []
    for i in range(SETUP_PROBES + 1):  # the first start also compiles the bytecode caches
        child = Child(argv, env)
        if child.code != 0 or child.stdout.decode().splitlines() != labels:
            problems.append(f"set-up probe exited {child.code}: {child.stderr.decode()[-500:]}")
        elif i > 0:
            walls.append(child.wall_s)
    return (statistics.median(walls) if walls else float("nan")), problems


class Runner:
    """Executes operations, checks them, and keeps the failure record."""

    def __init__(self, ops):
        self.ops = ops
        self.first_digest: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.max_child_rss_kib = 0
        self.child_reports: list[dict] = []

    def attempt(self, index: int, traced: bool = False) -> float:
        """Run one operation; return its latency in seconds (NaN when it raised)."""
        from workloads import digest

        op = self.ops[index]
        self.attempted += 1
        try:
            if op.argv is None:
                t0 = time.perf_counter()
                out = op.run()
                latency = time.perf_counter() - t0
                reason = op.check(out)
            else:
                out, latency, reason = self._cli(op, traced)
            fp = digest(out)
        except Exception as exc:  # an operation that raises counts as failed, with its cause
            self.failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            return float("nan")
        if reason is None and self.first_digest.setdefault(index, fp) != fp:
            reason = "output differs bitwise from the first run of this operation"
        if reason is not None:
            self.failures.append(f"{op.label}: {reason}")
        return latency

    def _cli(self, op, traced: bool):
        if traced:
            argv = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), *op.argv]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY, *op.argv]
        child = Child(argv, child_env())
        reason = None
        if child.code != 0:
            reason = f"exit code {child.code}: {child.stderr.decode(errors='replace')[-300:]}"
        else:
            try:
                record = json.loads(child.stdout.decode().strip().splitlines()[-1])
                if record.get("pass") is not True:
                    reason = '"pass" is not true'
            except (ValueError, IndexError):
                reason = "no JSON record on standard output"
        if traced:
            self.child_reports.append(self._child_report(child))
        else:
            self.max_child_rss_kib = max(self.max_child_rss_kib, child.rss_kib)
        return {"stdout": child.stdout, "code": child.code}, child.wall_s, reason

    @staticmethod
    def _child_report(child: Child) -> dict:
        import cli_child
        from stats import import_time_under

        text = child.stderr.decode(errors="replace")
        lines = [line for line in text.splitlines() if line.startswith(cli_child.MARKER)]
        if not lines:
            raise RuntimeError("traced child wrote no trace report")
        report = json.loads(lines[-1][len(cli_child.MARKER):])
        report["interp_s"] = report["t_start"] - child.t_spawn
        report["scipy_s"] = import_time_under(text, "scipy")
        report["wall_s"] = child.wall_s
        return report

    def run_pass(self, traced: bool = False) -> list[float]:
        return [self.attempt(i, traced) for i in range(len(self.ops))]


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    """Whole passes for ``seconds``; each operation's latency is its best run.

    The CPU of a shared machine drifts in speed by tens of percent over
    seconds, and a median over executions follows that drift.  The best of
    an operation's runs in the window (as ``timeit`` reports) is what the
    program costs when nothing else interferes, so it repeats across runs.
    """
    from stats import percentile, samples_beyond

    if runner.ops[0].argv is None:
        runner.run_pass()  # warm-up: lazy imports and first-call caches, checked but not timed
    runs: list[list[float]] = [[] for _ in runner.ops]
    t0 = time.perf_counter()
    while True:
        for index, latency in enumerate(runner.run_pass()):
            runs[index].append(latency)
        if time.perf_counter() - t0 >= seconds:
            break
    best = [min((x for x in r if x == x), default=float("nan")) for r in runs]
    if runner.ops[0].argv is None:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss_mib = runner.max_child_rss_kib / 1024.0
    metrics = {
        "throughput_ops_s": (len(best) / sum(best), "1/s"),
        "latency_ms.p50": (1e3 * percentile(best, 50), "ms"),
        "latency_ms.p90": (1e3 * percentile(best, 90), "ms"),
        "success_ratio": (1.0 - len(runner.failures) / runner.attempted, "ratio"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    notes = [
        f"latency samples: {len(best)} operations, each the best of {len(runs[0])} runs; "
        f"{samples_beyond(best, 50)} beyond p50, {samples_beyond(best, 90)} beyond p90",
    ]
    return metrics, notes


def per_layer(runner: Runner, seconds: float, workload, seed: int) -> dict:
    """Alternate untraced and traced passes; report per-pass medians of the layer metrics.

    The tracing overhead is the best traced pass minus the best untraced one.
    """
    import tracing

    tracer = tracing.Tracer()
    cli = runner.ops[0].argv is not None
    if not cli:
        runner.run_pass()  # warm-up; the first untraced pass gives the reference outputs
    per_pass: list[dict] = []
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    all_spans: list[tuple[int, list]] = []
    t0 = time.perf_counter()
    while not per_pass or time.perf_counter() - t0 < seconds:
        plain_walls.append(sum(runner.run_pass()))
        if cli:
            runner.child_reports = []
            walls = runner.run_pass(traced=True)
            extra = merge_child_reports(tracer, runner.child_reports)
        else:
            walls = []
            with tracing.installed(tracer):
                for i in range(len(runner.ops)):
                    tracer.op = i
                    walls.append(runner.attempt(i))
            extra = {}
        traced_walls.append(sum(walls))
        spans, counts = tracer.drain()
        all_spans.append((len(per_pass), spans))
        per_pass.append(layer_metrics(tracer.names, spans, counts, sum(walls), extra, workload.dominant))
    write_spans(workload.name, seed, tracer.names, all_spans)
    metrics = {
        key: ((statistics.median_low if unit == "count" else statistics.median)(p[key][0] for p in per_pass), unit)
        for key, (_, unit) in per_pass[0].items()
    }
    metrics["trace.overhead_s"] = (min(traced_walls) - min(plain_walls), "s")
    return metrics


def merge_child_reports(tracer, reports: list[dict]) -> dict:
    """Append the spans recorded inside traced children to the parent's tracer."""
    sums = {"interp": 0.0, "import": 0.0, "scipy": 0.0, "main": 0.0}
    for op, rep in enumerate(reports):
        ids = [tracer.name_id(name) for name in rep["names"]]
        base = len(tracer.spans)
        for nid, start, end, parent, _ in rep["spans"]:
            tracer.spans.append([ids[nid], start, end, parent + base if parent >= 0 else -1, op])
        for key, n in rep["counts"].items():
            tracer.count(key, n)
        sums["interp"] += rep["interp_s"]
        sums["import"] += rep["import_s"]
        sums["scipy"] += rep["scipy_s"]
        sums["main"] += rep["main_s"]
    return sums


def layer_metrics(names, spans, counts, total_s, extra, dominant) -> dict:
    import tracing

    summary = tracing.summarize(names, spans)
    out: dict[str, tuple[float, str]] = {}
    for name in tracing.REPORTED_SPANS:
        out[name + ".calls"] = (summary["calls"].get(name, 0), "count")
        out[name + ".self_s"] = (summary["self_s"].get(name, 0.0), "s")
    for key in tracing.COUNT_NAMES:
        out[key] = (counts.get(key, 0), "count")
    steps = counts.get("flows.rk4_steps", 0)
    roots = summary["calls"].get("rootfind.decreasing_root", 0)
    out["flows.patch_e_per_step"] = (summary["patches_in_rk4"] / steps if steps else 0.0, "ratio")
    out["rootfind.g_evals_per_root"] = (counts.get("rootfind.g_evals", 0) / roots if roots else 0.0, "ratio")
    out["cli.interp_s"] = (extra.get("interp", 0.0), "s")
    out["cli.import_s"] = (extra.get("import", 0.0), "s")
    out["cli.import.scipy_s"] = (extra.get("scipy", 0.0), "s")
    out["cli.main_s"] = (extra.get("main", 0.0), "s")
    layers = dict(summary["modules"])
    layers["interp"] = extra.get("interp", 0.0)
    layers["import"] = extra.get("import", 0.0)
    for name, value in layers.items():
        out[f"layer.{name}.self_s"] = (value, "s")
    out["layer.total_s"] = (total_s, "s")
    out["layer.uncovered_s"] = (total_s - sum(layers.values()), "s")
    out["layer.dominant_share"] = (sum(layers[m] for m in dominant) / total_s, "ratio")
    return out


def write_spans(workload: str, seed: int, names: list[str], passes) -> None:
    import numpy as np

    rows = [(p, *span) for p, spans in passes for span in spans]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    np.savez(
        OUT_DIR / f"spans-{workload}-seed{seed}.npz",
        names=np.array(names),
        pass_index=np.array([r[0] for r in rows], dtype=np.int32),
        name_id=np.array([r[1] for r in rows], dtype=np.int32),
        start=np.array([r[2] for r in rows], dtype=float),
        end=np.array([r[3] for r in rows], dtype=float),
        parent=np.array([r[4] for r in rows], dtype=np.int64),
        op=np.array([r[5] for r in rows], dtype=np.int32),
    )


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import igc

    if Path(igc.__file__).resolve().parent != SRC / "igc":
        print(f"error: imported igc from {igc.__file__}, expected {SRC / 'igc'}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ops = workload.build(args.seed)
    print(json.dumps({"machine": machine_info(args.seed)}))
    print(json.dumps({"workload": workload.name, "why": workload.why, "operations_per_pass": len(ops),
                      "predicts": workload.predicts, "dominant_layers": workload.dominant}))
    runner = Runner(ops)
    problems: list[str] = []
    if args.trace:
        metrics = per_layer(runner, args.seconds, workload, args.seed)
    else:
        setup_s, problems = measure_setup(workload.name, args.seed, [op.label for op in ops])
        metrics = {"setup_s": (setup_s, "s")}
        e2e, notes = end_to_end(runner, args.seconds)
        metrics.update(e2e)
        for line in notes:
            print(line)
    failures = problems + runner.failures
    for reason in failures:
        print("FAILED " + reason)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:9s} {name:40s} {value:14.6g} {unit}")
    print(result_line(not failures, runner.attempted, len(runner.failures), metrics))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter; every metric printed by name with its unit."""
    metrics: dict[str, tuple[float, str]] = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, m in result["metrics"].items():
            metrics[f"{name}.{key}"] = (m["value"], m["unit"])
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "igc" / "__init__.py").is_file():
        print(f"error: no igc sources at {SRC / 'igc'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
