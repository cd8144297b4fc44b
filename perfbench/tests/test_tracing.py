"""Unit tests for the timing wrappers: they record spans and counts, change no result,
and leave every igc namespace as they found it.

Run with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
from igc import flows, manifold, measures  # noqa: E402


RNG = np.random.default_rng(4)
M = measures.finite_measure(np.arange(6.0))
P0 = measures.Density.random(M, RNG)
F = measures.RandomVariable(M, RNG.standard_normal(6))


def _geodesic(steps=3):
    return flows.integrate_e_chart(flows.exponential_field(F), P0, 0.1 * steps, 0.1)


def test_spans_nest_and_count_rk4_work():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.op = 7
        record = _geodesic(steps=3)
    spans, counts = tracer.drain()
    names = tracer.names
    assert len(record.times) == 4
    assert counts["flows.rk4_steps"] == 3
    roots = [s for s in spans if s[3] == -1]
    assert [names[s[0]] for s in roots] == ["flows.exponential_field", "flows.integrate_e_chart"]
    assert all(s[4] == 7 for s in spans)
    for _, start, end, parent, _ in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    summary = tracing.summarize(names, spans)
    assert summary["calls"]["manifold.patch_e"] == 15
    assert summary["patches_in_rk4"] == 15  # four stages and the emitted sample per step
    total = sum(e - s for _, s, e, p, _ in spans if p == -1)
    assert abs(sum(summary["modules"].values()) - total) <= 1e-9


def test_tracing_changes_no_result_and_restores_namespaces():
    plain = _geodesic()
    originals = (manifold.patch_e, flows.patch_e, measures.Density.__post_init__, flows.VectorField.__call__)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert flows.patch_e is not originals[1] and manifold.patch_e is flows.patch_e
        traced = _geodesic()
        assert isinstance(traced.densities[-1], measures.Density)
    after = (manifold.patch_e, flows.patch_e, measures.Density.__post_init__, flows.VectorField.__call__)
    assert all(a is b for a, b in zip(after, originals))
    for a, b in zip(plain.densities, traced.densities):
        assert a.values.tobytes() == b.values.tobytes()


def test_root_finder_evaluations_are_counted():
    from igc import orlicz

    rng = np.random.default_rng(1)
    m = measures.finite_measure(np.arange(16.0))
    p = measures.Density.random(m, rng)
    u = rng.standard_normal(16)
    calls = []
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        orlicz.luxemburg_norm(p, u, orlicz.young_pair("a"))
    _, counts = tracer.drain()
    # an independent count of the same evaluations through the root-finder's callable
    from igc import _rootfind

    def counting(g, *args, **kwargs):
        return original(lambda r: calls.append(r) or g(r), *args, **kwargs)

    original = _rootfind.decreasing_root
    orlicz.decreasing_root = counting
    try:
        orlicz.luxemburg_norm(p, u, orlicz.young_pair("a"))
    finally:
        orlicz.decreasing_root = original
    assert counts["rootfind.g_evals"] == len(calls) > 0
