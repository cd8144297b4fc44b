"""Set-up probe: a fresh interpreter imports igc and builds one pass of a workload.

Run as ``python3 perfbench/probe.py <workload> <seed>`` with ``src`` on
PYTHONPATH.  Prints the operation labels of the pass, one per line, so the
caller can check that the probe built the same pass it runs.
"""

import sys

import workloads


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    for op in workloads.WORKLOADS[name].build(seed):
        print(op.label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
