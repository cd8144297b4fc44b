"""Write ``tests/golden.json``: the numbers the benchmark workloads produce, for ``tests/test_golden.py``.

For seeds 1-3 it records the ``workloads.digest`` of each ``flows`` and ``kernels`` operation of
``perfbench/workloads.py``, and the exit code and exact standard output of each ``cli-cold``
command run in process through ``igc.cli.main``.  Beside them it stores the fingerprint that
bitwise equality depends on: the Python version, the numpy version and the CPU features numpy
enabled (numpy picks its ``exp`` and ``log`` loops per CPU).

A change that moves numbers on purpose reruns this script and lists the moved entries::

    PYTHONPATH=src python3 tests/make_golden.py
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


def collect() -> dict:
    golden = {"fingerprint": fingerprint()}
    for workload in ("flows", "kernels"):
        golden[workload] = {
            str(seed): {key: workloads.digest(op.run()) for key, op in ops(workload, seed).items()}
            for seed in SEEDS
        }
    golden["cli-cold"] = {
        str(seed): {key: run_cli(op.argv) for key, op in ops("cli-cold", seed).items()} for seed in SEEDS
    }
    return golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
