"""Golden numbers: the benchmark workloads still produce the outputs recorded in ``tests/golden.json``.

The file holds, for seeds 1-3, the digest of every ``flows`` and ``kernels`` operation of
``perfbench/workloads.py`` and the exit code and standard output of every ``cli-cold`` command
(see ``tests/make_golden.py``, which writes it).  The rule:

- every operation's own ``check`` returns None, and every command exits 0 with ``"pass": true``;
- when this interpreter's fingerprint (Python version, numpy version, enabled CPU features) equals
  the file's, every digest, exit code and output must also be bitwise the recorded one.  Under
  another fingerprint numpy may take other ``exp``/``log`` loops, so only the first rule applies.
"""

import json
from functools import cache

import pytest

from make_golden import GOLDEN, SEEDS, fingerprint, ops, run_cli, workloads

RECORDED = json.loads(GOLDEN.read_text())
BITWISE = RECORDED["fingerprint"] == fingerprint()
CASES = [(w, seed, key) for w in ("flows", "kernels", "cli-cold") for seed in RECORDED[w] for key in RECORDED[w][seed]]


@cache
def _ops(workload: str, seed: str) -> dict:
    return ops(workload, int(seed))


def test_golden_file_covers_every_operation():
    for workload in ("flows", "kernels", "cli-cold"):
        assert sorted(RECORDED[workload]) == [str(s) for s in SEEDS]
        for seed in RECORDED[workload]:
            assert sorted(RECORDED[workload][seed]) == sorted(_ops(workload, seed))


@pytest.mark.parametrize("workload, seed, key", CASES, ids=[f"{w}-{s}-{k}" for w, s, k in CASES])
def test_workload_output_matches_the_golden_file(workload, seed, key):
    op = _ops(workload, seed)[key]
    if op.argv is None:
        out = op.run()
        assert op.check(out) is None
        got = workloads.digest(out)
    else:
        got = run_cli(op.argv)
        assert got["code"] == 0 and json.loads(got["stdout"].splitlines()[-1])["pass"] is True
    if BITWISE:
        assert got == RECORDED[workload][seed][key]
