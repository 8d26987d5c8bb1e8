"""Design and verification toolkit for dispersion-limited two-interferometer QKD links."""

from .bb84 import (
    DetectionRow,
    DetectionTable,
    GTermAnalysis,
    default_baseline,
    detection_table,
    g_term_analysis,
    g_term_value,
    z_difference,
)
from .compensation import (
    CompensationPlan,
    plan,
    precompensate_input,
)
from .core import (
    CALIBRATED_KAPPA_SCALE,
    DerivedQuantities,
    LinkParams,
    MzConfig,
    PAIRS,
    PrecompMultiplier,
    derive,
    x_rho,
)
from .design import (
    DesignReport,
    build_design_report,
    gate_window,
    max_rate,
    min_phase_sum,
    sweep_lengths,
    visibility_of_rho,
)
from .errors import ConfigError, InfeasibleDesignError, ResolutionError, VerificationError
from .spectra import (
    ComponentTerms,
    GridSpec,
    SpectrumCurve,
    component_terms,
    eval_analytic,
    eval_oracle,
    exact_window_masses,
    max_normalized_deviation,
    middle_window_masses,
)
from .units import C0

__version__ = "0.1.0"

__all__ = [
    "C0",
    "CALIBRATED_KAPPA_SCALE",
    "CompensationPlan",
    "ComponentTerms",
    "ConfigError",
    "DerivedQuantities",
    "DesignReport",
    "DetectionRow",
    "DetectionTable",
    "GTermAnalysis",
    "GridSpec",
    "InfeasibleDesignError",
    "LinkParams",
    "MzConfig",
    "PAIRS",
    "PrecompMultiplier",
    "ResolutionError",
    "SpectrumCurve",
    "VerificationError",
    "build_design_report",
    "component_terms",
    "default_baseline",
    "derive",
    "detection_table",
    "eval_analytic",
    "eval_oracle",
    "exact_window_masses",
    "g_term_analysis",
    "g_term_value",
    "gate_window",
    "max_normalized_deviation",
    "max_rate",
    "middle_window_masses",
    "min_phase_sum",
    "plan",
    "precompensate_input",
    "sweep_lengths",
    "visibility_of_rho",
    "x_rho",
    "z_difference",
]
