"""qwsearch: spectral simulator for continuous-time quantum-walk spatial search.

Exact finite-N spectra, success probabilities, critical couplings, and
scaling behavior of the search Hamiltonian H = -gamma*L - |w><w| on the
complete graph, the hypercube, and d-dimensional periodic lattices, with a
brute-force dense oracle for validation.
"""

__version__ = "0.1.0"

from .analysis import (
    BoundCheck,
    BoundReport,
    PredictionRecord,
    ScalingRecord,
    ScanRecord,
    SubcriticalReport,
    coupling_scan_center,
    critical_predictions,
    critical_reference,
    find_critical_gamma,
    scan_gamma,
    subcritical_scaling,
    verify_failure_bounds,
    verify_transition_bounds,
)
from .constants import (
    ConstantEntry,
    DivergenceError,
    NoRootError,
    build_constant_table,
    epstein_sum,
    green_integral,
    inverse_energy_sum,
    log_law_fit,
    log_law_intercept,
    scaling_function,
    scaling_function_root,
)
from .evolution import (
    DenseReference,
    EvolutionTrace,
    amplitude,
    amplitudes,
    default_time_horizon,
    find_optimal_time,
    trace,
)
from .graphs import (
    GraphFamily,
    LevelSpectrum,
    level_spectrum,
    neg_laplacian,
)
from .secular import (
    BracketError,
    SecularPoleError,
    SecularSpectrum,
    lowest_two,
    secular_derivative,
    secular_value,
    solve_spectrum,
)

__all__ = [
    "__version__",
    "BoundCheck", "BoundReport", "PredictionRecord", "ScalingRecord", "ScanRecord",
    "SubcriticalReport", "coupling_scan_center", "critical_predictions",
    "critical_reference", "find_critical_gamma", "scan_gamma", "subcritical_scaling",
    "verify_failure_bounds", "verify_transition_bounds",
    "ConstantEntry", "DivergenceError", "NoRootError", "build_constant_table",
    "epstein_sum", "green_integral", "inverse_energy_sum",
    "log_law_fit", "log_law_intercept", "scaling_function", "scaling_function_root",
    "DenseReference", "EvolutionTrace", "amplitude", "amplitudes", "default_time_horizon",
    "find_optimal_time", "trace",
    "GraphFamily", "LevelSpectrum", "level_spectrum", "neg_laplacian",
    "BracketError", "SecularPoleError", "SecularSpectrum",
    "lowest_two", "secular_derivative", "secular_value", "solve_spectrum",
]
