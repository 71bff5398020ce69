"""Gaussian-coupling error budgets for suprema of empirical processes.

The package evaluates explicit non-asymptotic coupling bounds between the
supremum of an empirical process and the supremum of its Gaussian analogue,
and verifies them by Monte Carlo simulation in kernel (local) and series
scenarios, including undersmoothed uniform confidence bands.
"""

import importlib

from .bands import BandResult, CoverageReport, build_band, coverage_experiment
from .funcclass import (
    DiscreteMeasure,
    DiscretizedClass,
    covering_number,
    entropy_integral,
    exhaustive_min_cover,
    product_class,
    vc_entropy_bound,
)
from .scenarios import (
    KernelScenario,
    SeriesScenario,
    design,
    design_kernel,
    design_series,
    kernel_density_scenario,
    rate_experiment,
    series_mean_scenario,
    series_quantile_scenario,
    xi_n,
)
from .simulate import (
    CovarianceError,
    CovarianceModel,
    RngPolicy,
    SupSample,
    WorkerError,
    empirical_sup_sample,
    gaussian_sup_sample,
    ks_distance,
    levy_concentration,
    quantile_coupling,
    sup_quantile,
)

# The closed-form modules load on first access (PEP 562): no rate or bands run uses them.
_LAZY = {
    "bounds": ("AnalyticVectorMoments", "CouplingBudget", "MomentInputs", "SteinCouplingTerms", "VcBudget",
               "coupling_budget", "crossover_sweep", "stein_coupling_terms", "vc_class_budget", "yurinskii_bound"),
    "smoothmax": ("IndicatorSmoothing", "SmoothMaxDerivs", "epsilon_beta_delta", "smooth_max", "smooth_max_derivs",
                  "smoothed_indicator"),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name == module or name in names:
            mod = importlib.import_module(f"{__name__}.{module}")
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *(name for names in _LAZY.values() for name in names)})


__version__ = "0.1.0"
