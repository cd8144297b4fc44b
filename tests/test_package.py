"""The package surface: each module's ``__all__`` is its public API, and ``igc`` re-exports all of them."""

import ast
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
ROOT = Path(__file__).resolve().parents[1]


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
    assert not DELETED & set(igc.__all__)


# names taken out of the public surface: each only wrapped other code, only served its own tests or duplicated the
# library
DELETED = {
    "CotangentVector", "HilbertVector", "cotangent", "hilbert_vector", "hessian_expectation", "transport_values",
    "validate_young_pair", "boolean_phi_moment", "nonsteep_density", "e_convergence_diagnostic", "EConvergenceRow",
    "affine_bound_defect", "escort_mass", "escort_density", "hermite_values", "upper_incomplete_gamma_half",
}

# the public names that no library function, acceptance criterion or benchmark op reads: each is a paper object,
# kept for the identity that the named test checks
PAPER_OBJECTS = {
    "boolean_site": "test_orlicz.py::test_boolean_mgf_examples",  # E[exp(t (x_0 + x_1))] = cosh(t)**2
    "lp_norm": "test_manifold.py::test_e_convergence_diagnostic",  # e-convergence: L^alpha(p) of p_n/p - 1, p/p_n - 1
    "halfline_measure": "test_measures.py::test_halfline_tail_bound",  # the truncated grid integrates C(1, a)
    "coordinate": "test_manifold.py::test_cumulant_examples",  # K_p(x) = log cosh 1 on {-1, 1}
    "steepness_profile": "test_orlicz.py::test_steepness_quadrature_matches_closed_form",  # E_p[Phi(alpha x)]
    "cumulant_gradient": "test_manifold.py::test_gradient_identity_and_monotonicity",  # DK_p(u) = q/p - 1, monotone
    "cumulant_gradient_derivative": "test_manifold.py::test_gradient_weak_derivative",  # D(q/p) = (q/p)(w - E_q[w])
    "transition_e": "test_manifold.py::test_transition_maps",  # s_p2 = s_p1 + log(p1/p2), recentred, and affine
    "transport_e": "test_properties.py::test_e_and_m_transports_are_dual",  # E_q[m(v) e(u)] = E_p[v u]
    "transport_m": "test_properties.py::test_e_and_m_transports_are_dual",
    "patch_m": "test_manifold.py::test_chart_m",  # (v + 1) p inverts the mixture chart q/p - 1
    "embed_sqrt": "test_bundle.py::test_embed_derivative",  # d sqrt(p) = sqrt(p) u / 2 along the e-chart
    "tangent_bundle_chart": "test_bundle.py::test_tangent_bundle_chart_roundtrip",  # chart and patch invert
    "tangent_bundle_patch": "test_bundle.py::test_tangent_bundle_chart_roundtrip",
    "covariant_derivative_sphere": "test_bundle.py::test_covariant_derivative_metric_compatibility",  # D<F, G>
    "m_geodesic": "test_flows.py::test_m_geodesic",  # unit mass, positive exactly up to t = -1 / min v
    "one_sided_lipschitz_probe": "test_flows.py::test_one_sided_lipschitz",  # 0 for the e-chart field
    "phi_chart": "test_deformed.py::test_phi_patch_chart_roundtrip",  # the deformed chart and patch invert
}


def _reads(path: Path) -> set[str]:
    """The names a file reads: loaded names and attribute names, f-string fields included, without the reads
    that a top-level definition makes of its own name."""
    reads = set()
    for top in ast.parse(path.read_text()).body:
        reads |= {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute) or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        } - {getattr(top, "name", None)}
    return reads


def test_every_public_name_is_read_or_pinned_to_the_test_of_its_identity():
    # read by the library, the acceptance criteria or the benchmark's workloads, or else a PAPER_OBJECTS entry
    sources = [*sorted((ROOT / "src" / "igc").glob("*.py")), ROOT / "tests" / "test_acceptance.py",
               ROOT / "perfbench" / "workloads.py"]
    reached = set().union(*map(_reads, sources))
    assert [name for name in igc.__all__ if name not in reached and name not in PAPER_OBJECTS] == []
    assert sorted(set(PAPER_OBJECTS) - set(igc.__all__)) == []
    for name, test in PAPER_OBJECTS.items():
        file, function = test.split("::")
        tree = ast.parse((ROOT / "tests" / file).read_text())
        assert function in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, (name, test)


# plain results, with their fields in order; the validated objects and the replaceable function bundles
RESULT_FIELDS = {
    "DivergenceResult": ("direct", "bregman"),
    "PythagoreanResult": ("pairing", "defect", "d_r_q", "d_r_p", "d_p_q"),
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
