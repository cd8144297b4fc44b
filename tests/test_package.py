"""The package surface: each module's ``__all__`` is its public API, and ``igc`` re-exports all of them."""

import dataclasses
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import igc
from igc import bundle, deformed, flows, manifold, measures, orlicz

MODULES = (measures, orlicz, manifold, bundle, flows, deformed)


def test_igc_exports_the_modules_public_names_once():
    joined = [name for module in MODULES for name in module.__all__]
    assert igc.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_every_exported_name_is_the_modules_own_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(igc, name) is getattr(module, name), name


@pytest.mark.parametrize("module", MODULES, ids=[module.__name__ for module in MODULES])
def test_every_public_function_and_class_is_declared(module):
    defined = [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert sorted(set(defined) - set(module.__all__)) == []


def test_every_fibre_valued_function_returns_the_one_centred_vector_type():
    # on a finite support the exponential, mixture and Hilbert fibres at p are one space
    m = igc.finite_measure(np.arange(4.0))
    p = igc.Density(m, [0.1, 0.7, 0.1, 0.1])
    q = igc.Density(m, [0.4, 0.3, 0.2, 0.1])
    u = igc.tangent(p, [1.0, -2.0, 0.5, 3.0])
    results = {
        "tangent": u,
        "chart_s": igc.chart_s(p, q),
        "transition_e": igc.transition_e(p, q, u),
        "transport_e": igc.transport_e(p, q, u),
        "transport_m": igc.transport_m(p, q, u),
        "chart_m": igc.chart_m(p, q),
        "cumulant_gradient": igc.cumulant_gradient(p, u),
        "hilbert_transport": igc.hilbert_transport(p, q, u),
        "metric_derivative": igc.metric_derivative(p, u, np.zeros(4), u),
        "VectorField.__call__": igc.VectorField(lambda r: r.values)(p),
    }
    for name, v in results.items():
        assert type(v) is igc.TangentVector, name
    deleted = {"CotangentVector", "HilbertVector", "cotangent", "hilbert_vector", "hessian_expectation", "transport_values"}
    assert not deleted & set(igc.__all__)


# plain results, with their fields in order; the validated objects and the replaceable function bundles
RESULT_FIELDS = {
    "DivergenceResult": ("direct", "bregman"),
    "PythagoreanResult": ("pairing", "defect", "d_r_q", "d_r_p", "d_p_q"),
    "EConvergenceRow": ("index", "alpha", "forward", "backward"),
    "MixtureGeodesic": ("function", "positive"),
    "CurveRecord": ("times", "densities", "velocities"),
    "OptimizationResult": ("record", "objective", "regularized"),
    "HeatFlowResult": ("record", "reference", "max_gap", "mass_drift", "weak_residuals"),
    "ProfilePoint": ("alpha", "value"),
    "HermiteTransportReport": ("gram", "max_offdiag", "max_diag_defect"),
    "PhiArcMassPoint": ("t", "mass", "finite"),
    "PhiChartResult": ("u", "k"),
    "PhiArcResult": ("density", "psi", "family_density", "pairing_unnormalized", "pairing_normalized"),
}
DATACLASSES = {
    "Measure", "Density", "RandomVariable", "TangentVector", "SphereVector",
    "YoungFunction", "WalshSpectrum", "DeformedLogarithm",
}


def test_plain_results_are_named_tuples_and_only_validated_objects_are_dataclasses():
    for name, fields in RESULT_FIELDS.items():
        cls = getattr(igc, name)
        assert issubclass(cls, tuple) and cls._fields == fields, name
    assert {name for name in igc.__all__ if dataclasses.is_dataclass(getattr(igc, name))} == DATACLASSES


def test_integrate_e_chart_raises_the_exported_flow_error():
    p = igc.Density.uniform(igc.finite_measure(np.arange(3.0)))
    field = igc.VectorField(lambda q: np.array([np.inf, 0.0, 0.0]))
    with pytest.raises(igc.FlowError, match="non-finite"):
        igc.integrate_e_chart(field, p, 0.1, 0.1)


def test_import_runs_no_gauge_or_root_find():
    # every Young pair carries its unit level as a constant: a fresh `import igc` solves nothing
    src = str(Path(igc.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); calls = []\n"
        "def profile(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name in ('_gauge', 'decreasing_root'):\n"
        "        calls.append(frame.f_code.co_name)\n"
        "sys.setprofile(profile)\n"
        "import igc\n"
        "sys.setprofile(None)\n"
        "print(len(calls), 'igc.orlicz' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "True"]
