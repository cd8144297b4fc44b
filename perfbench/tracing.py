"""Timing spans around igc's public functions, installed from outside the package.

The modules of ``igc`` import each other's functions by name, so a wrapper
is bound in every ``igc`` module namespace that holds the original object.
Validation of ``Density`` and ``TangentVector`` is timed by wrapping their
``__post_init__``; class names are never replaced, because ``isinstance``
checks inside the package must keep seeing the real classes.

A span is ``[name_id, start, end, parent, op]``: parent is the index of the
enclosing span in the same list (or -1) and op the operation it served.
Spans stay in memory until :meth:`Tracer.drain`; the caller writes them out.
This module imports only the standard library, so the traced CLI child can
load it without adding to the measured ``import igc`` time.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from contextlib import contextmanager

from stats import self_times

# igc module -> layer name; every public function defined in one of them is timed
LAYER_MODULES = {
    "igc.measures": "measures",
    "igc.manifold": "manifold",
    "igc.flows": "flows",
    "igc._rootfind": "rootfind",
    "igc.orlicz": "orlicz",
    "igc.deformed": "deformed",
    "igc.bundle": "bundle",
}

# (module, class, method, span name): validation and field evaluation
METHODS = (
    ("igc.measures", "Density", "__post_init__", "measures.Density"),
    ("igc.measures", "TangentVector", "__post_init__", "measures.TangentVector"),
    ("igc.flows", "VectorField", "__call__", "flows.field_eval"),
)

DEFORMED_FAMILIES = ("classical", "tsallis", "kaniadakis", "newton")

# spans reported one by one (the others count only towards their layer)
REPORTED_SPANS = (
    "measures.Density",
    "measures.TangentVector",
    "measures.tangent",
    "measures.values_on",
    "manifold.patch_e",
    "manifold.cumulant",
    "manifold.chart_s",
    "flows.integrate_e_chart",
    "flows.field_eval",
    "flows.natural_gradient_ascent",
    "flows.heat_flow",
    "flows.reference_heat_solution",
    "rootfind.decreasing_root",
    "orlicz.luxemburg_norm",
    "orlicz.dual_norm",
    "orlicz.walsh_transform",
    "orlicz.boolean_mgf",
    "deformed.phi_norm",
    "deformed.phi_cumulant",
    "deformed.phi_patch",
    "deformed.phi_arc",
) + tuple(f"deformed.exp.{tag}" for tag in DEFORMED_FAMILIES) + (
    "bundle.hilbert_transport",
    "bundle.hermite_transport_demo",
)

COUNT_NAMES = (
    "flows.rk4_steps",
    "rootfind.g_evals",
    "orlicz.boolean_mgf.terms",
) + tuple(f"deformed.exp.{tag}.elements" for tag in DEFORMED_FAMILIES)

# a span belongs to the layer its name starts with; "cli" is the span around igc.cli.main
LAYERS = tuple(LAYER_MODULES.values()) + ("cli",)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` recorded as a span; ``before`` may rewrite the arguments, ``after`` sees the result."""
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def drain(self) -> tuple[list[list], dict[str, int]]:
        """Hand over and forget the spans and counts recorded so far."""
        if self._stack:
            raise RuntimeError("drain inside an open span")
        spans, counts = self.spans, self.counts
        self.spans = []
        self.counts = {}
        return spans, counts


def _bind_everywhere(module_name: str, attr: str, replacement, patches: list) -> None:
    original = getattr(sys.modules[module_name], attr)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "igc" or mod_name.startswith("igc.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                patches.append((mod, key, val))
                setattr(mod, key, replacement)


def _public_functions(module_name: str):
    module = sys.modules[module_name]
    for attr, obj in sorted(vars(module).items()):
        if inspect.isfunction(obj) and obj.__module__ == module_name and not attr.startswith("_"):
            yield attr, obj


@contextmanager
def installed(tracer: Tracer):
    """Bind the timing wrappers into every igc module namespace; restore on exit."""
    import igc.cli  # noqa: F401  (every igc module must be loaded before binding)

    patches: list = []

    def count_g_evals(args, kwargs):
        g = args[0]

        def counted(r):
            tracer.count("rootfind.g_evals")
            return g(r)

        return (counted,) + args[1:], kwargs

    def count_rk4_steps(args, kwargs, record):
        tracer.count("flows.rk4_steps", len(record.times) - 1)

    def traced_make_deformed(make_deformed):
        # a deformation carries its exp as a field, so time it on the objects built while traced
        def build(*args, **kwargs):
            d = make_deformed(*args, **kwargs)
            key = f"deformed.exp.{d.tag}"

            def count_elements(exp_args, exp_kwargs, out):
                tracer.count(key + ".elements", getattr(exp_args[0], "size", 1))

            return dataclasses.replace(d, exp=tracer.wrap(d.exp, key, after=count_elements))

        return build

    def counted_kernel_basis(kernel_basis):
        # boolean_mgf sums over 2**(kernel dimension) parity classes
        def basis(masks):
            out = kernel_basis(masks)
            tracer.count("orlicz.boolean_mgf.terms", 1 << len(out))
            return out

        return basis

    hooks = {
        "rootfind.decreasing_root": {"before": count_g_evals},
        "flows.integrate_e_chart": {"after": count_rk4_steps},
    }
    try:
        wrappers = []
        for module_name, layer in LAYER_MODULES.items():
            for attr, fn in _public_functions(module_name):
                name = f"{layer}.{attr}"
                if name == "deformed.make_deformed":
                    wrappers.append((module_name, attr, traced_make_deformed(fn)))
                else:
                    wrappers.append((module_name, attr, tracer.wrap(fn, name, **hooks.get(name, {}))))
        kernel_basis = sys.modules["igc.orlicz"]._gf2_kernel_basis
        wrappers.append(("igc.orlicz", "_gf2_kernel_basis", counted_kernel_basis(kernel_basis)))
        for module_name, attr, wrapper in wrappers:
            _bind_everywhere(module_name, attr, wrapper, patches)
        for module_name, cls_name, meth, name in METHODS:
            owner = getattr(sys.modules[module_name], cls_name)
            original = owner.__dict__[meth]
            patches.append((owner, meth, original))
            setattr(owner, meth, tracer.wrap(original, name))
        yield tracer
    finally:
        for owner, key, val in reversed(patches):
            setattr(owner, key, val)


def summarize(names: list[str], spans: list[list]) -> dict:
    """Per span name: calls and self time; per module: self time; RK4 patch count."""
    selfs = self_times([s[1] for s in spans], [s[2] for s in spans], [s[3] for s in spans])
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for rec, own in zip(spans, selfs):
        name = names[rec[0]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
    modules = {m: 0.0 for m in LAYERS}
    for name, own in self_s.items():
        modules[name.split(".", 1)[0]] += own
    patch_id = names.index("manifold.patch_e") if "manifold.patch_e" in names else -1
    integ_id = names.index("flows.integrate_e_chart") if "flows.integrate_e_chart" in names else -1
    patches_in_rk4 = 0
    for rec in spans:
        if rec[0] != patch_id:
            continue
        par = rec[3]
        while par >= 0 and spans[par][0] != integ_id:
            par = spans[par][3]
        patches_in_rk4 += par >= 0
    return {"calls": calls, "self_s": self_s, "modules": modules, "patches_in_rk4": patches_in_rk4}
