"""The package namespace: every exported name resolves, eagerly or on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import supgauss
from supgauss import bounds, bands, funcclass, scenarios, simulate, smoothmax

# every name `supgauss` exports, by the module that defines it
EXPORTS = {
    bands: ("BandResult", "CoverageReport", "build_band", "coverage_experiment", "critical_value"),
    bounds: ("AnalyticVectorMoments", "CouplingBudget", "MomentInputs", "SteinCouplingTerms", "VcBudget",
             "coupling_budget", "crossover_sweep", "stein_coupling_terms", "vc_class_budget", "yurinskii_bound"),
    funcclass: ("DiscreteMeasure", "DiscretizedClass", "covering_number", "entropy_integral", "exhaustive_min_cover",
                "product_class", "vc_entropy_bound"),
    scenarios: ("KernelScenario", "SeriesScenario", "design", "design_kernel", "design_series",
                "kernel_density_scenario", "rate_experiment", "series_mean_scenario", "series_quantile_scenario",
                "xi_n"),
    simulate: ("CovarianceError", "CovarianceModel", "RngPolicy", "SupSample", "empirical_sup_sample",
               "gaussian_sup_sample", "ks_distance", "levy_concentration", "quantile_coupling", "sup_quantile"),
    smoothmax: ("IndicatorSmoothing", "SmoothMaxDerivs", "epsilon_beta_delta", "smooth_max", "smooth_max_derivs",
                "smoothed_indicator"),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_export_resolves_by_import_getattr_and_dir(module, name):
    namespace = {}
    exec(f"from supgauss import {name}", namespace)
    assert namespace[name] is getattr(supgauss, name) is getattr(module, name)
    assert name in dir(supgauss)


@pytest.mark.parametrize("name", ["bounds", "smoothmax", "__version__"])
def test_submodules_and_version_resolve(name):
    assert name in dir(supgauss)
    assert getattr(supgauss, name) is not None


@pytest.mark.parametrize("name", ["no_such_name", "Bounds", "_LAZY_"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(supgauss, name)
    with pytest.raises(ImportError):
        exec(f"from supgauss import {name}", {})


def test_closed_form_modules_load_on_first_access():
    """`import supgauss` loads neither closed-form module; the first access to one of its names loads it."""
    code = ("import sys, supgauss\n"
            "mods = lambda: [m for m in ('supgauss.bounds', 'supgauss.smoothmax') if m in sys.modules]\n"
            "seen = [mods()]\n"
            "from supgauss import smooth_max\n"
            "seen.append(mods())\n"
            "supgauss.coupling_budget\n"
            "seen.append(mods())\n"
            "print(seen)")
    src = str(Path(supgauss.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
                         check=True).stdout
    assert out.strip() == str([[], ["supgauss.smoothmax"], ["supgauss.bounds", "supgauss.smoothmax"]])
