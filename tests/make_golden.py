"""Write ``tests/golden.json``: the numbers the benchmark workloads produce, for ``tests/test_golden.py``.

For seeds 1-3 it records the ``workloads.digest`` of each ``flows`` and ``kernels`` operation of
``perfbench/workloads.py``, and the exit code and exact standard output of each ``cli-cold``
command run in process through ``igc.cli.main``.  Beside them it stores the fingerprint that
bitwise equality depends on: the Python version, the numpy version and the CPU features numpy
enabled (numpy picks its ``exp`` and ``log`` loops per CPU).

A change that moves numbers on purpose reruns this script::

    PYTHONPATH=src python3 tests/make_golden.py

Before writing it prints each entry whose digest or command record differs from the file it
replaces, and their count, for the change's notes.  It writes nothing and exits 1 when an
operation's own check fails, or when a command exits non-zero or does not print ``"pass": true``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
SEEDS = (1, 2, 3)
sys.path.insert(0, str(ROOT / "perfbench"))  # read-only: the benchmark's own workload definitions

import workloads  # noqa: E402
from igc.cli import main  # noqa: E402


def fingerprint() -> dict:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "cpu_features": sorted(k for k, on in umath.__cpu_features__.items() if on),
    }


def ops(workload: str, seed: int) -> dict:
    """The operations of one workload pass, keyed by position and label (labels repeat within a pass)."""
    return {f"{i:02d} {op.label}": op for i, op in enumerate(workloads.WORKLOADS[workload].build(seed))}


def run_cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue()}


def collect() -> tuple[dict, list[str]]:
    """The golden record, and one line for each operation or command that failed its check."""
    golden = {"fingerprint": fingerprint()}
    failures = []
    for workload in ("flows", "kernels"):
        golden[workload] = {}
        for seed in SEEDS:
            digests = golden[workload][str(seed)] = {}
            for key, op in ops(workload, seed).items():
                out = op.run()
                if (why := op.check(out)) is not None:
                    failures.append(f"{workload} {seed} {key}: {why}")
                digests[key] = workloads.digest(out)
    golden["cli-cold"] = {}
    for seed in SEEDS:
        records = golden["cli-cold"][str(seed)] = {}
        for key, op in ops("cli-cold", seed).items():
            rec = records[key] = run_cli(op.argv)
            lines = rec["stdout"].splitlines()
            if rec["code"] != 0 or not lines or json.loads(lines[-1]).get("pass") is not True:
                failures.append(f"cli-cold {seed} {key}: exit code {rec['code']}, no \"pass\": true")
    return golden, failures


def moved(old: dict, new: dict) -> list[str]:
    """The entries ("workload seed key") whose recorded value differs between two golden files, or is in one only."""
    out = []
    for workload in ("flows", "kernels", "cli-cold"):
        a, b = old.get(workload, {}), new[workload]
        for seed in sorted(set(a) | set(b)):
            sa, sb = a.get(seed, {}), b.get(seed, {})
            out += [f"{workload} {seed} {key}" for key in sorted(set(sa) | set(sb)) if sa.get(key) != sb.get(key)]
    return out


if __name__ == "__main__":
    golden, failures = collect()
    if failures:
        print("\n".join(failures) + f"\n{len(failures)} failed; {GOLDEN.relative_to(ROOT)} left as it is")
        sys.exit(1)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if old.get("fingerprint") != golden["fingerprint"]:
        print("fingerprint differs: every entry below may have moved with it")
    changed = moved(old, golden)
    print("\n".join(changed + [f"{len(changed)} moved"]))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
