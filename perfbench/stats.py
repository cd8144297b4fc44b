"""Arithmetic the benchmark reports: percentiles, self time, import-time parsing.

Everything here is pure and stdlib-only, so the traced CLI child can import
it before ``igc`` without adding to the measured import time.
"""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """The q-th percentile (0 <= q <= 100) with linear interpolation between ranks.

    Matches numpy's default ("linear") method: the rank is (n - 1) * q / 100.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(values, q: float) -> int:
    """How many samples lie strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of the part of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover.

    ``parents[i]`` is the index of span i's parent, or -1 for a root span.
    """
    children: dict[int, list[int]] = {}
    for i, par in enumerate(parents):
        if par >= 0:
            children.setdefault(par, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        kids = [(starts[k], ends[k]) for k in children.get(i, ())]
        out.append((e - s) - covered_length(s, e, kids))
    return out


def import_time_under(stderr_text: str, package: str) -> float:
    """Seconds that ``-X importtime`` attributes to importing ``package``.

    Sums the self time of every module named ``package`` or ``package.*``
    and of every module first imported while one of those was loading.
    The log lists a module after the modules it imported, indented two
    spaces per nesting level, so it is read backwards, parents first.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|", 2)
        if len(fields) != 3:
            continue
        try:
            self_us = int(fields[0].split(":", 1)[1])
        except ValueError:
            continue  # the header line
        name_field = fields[2][1:]
        name = name_field.lstrip(" ")
        rows.append(((len(name_field) - len(name)) // 2, name, self_us))
    total_us = 0
    stack: list[tuple[int, bool]] = []
    for level, name, self_us in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside = name == package or name.startswith(package + ".") or bool(stack and stack[-1][1])
        stack.append((level, inside))
        if inside:
            total_us += self_us
    return total_us * 1e-6
