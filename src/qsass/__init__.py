"""Stochastic quasi-Newton step search with noisy oracles.

A limited-memory BFGS model with an eigenvalue-bounded curvature store
drives an adaptive step search whose function comparisons are relaxed by
the estimated oracle noise.  The package bundles the solver, synthetic and
measurement-based noise models, analytic test problems, an experiment
harness with performance/data profiles, and numeric evaluation of the
method's complexity guarantees.
"""

from .errors import (BudgetExhaustedError, ConfigurationError, RegistryError,
                     SpecFileError, SpectrumQueryError, UnsupportedProblemError)
from .store import CurvaturePairStore, SpectrumBounds
from .problems import (Problem, VqeProblem, builtin_problem,
                       list_builtin_problems, list_vqe_presets,
                       load_problem_manifest, vqe_problem)
from .oracles import OracleModel, OracleParams
from .solver import RunTrace, SolverConfig, StoppingRule, run
from .profiles import MetricTable, data_profile, performance_profile
from .bench import (ExperimentSpec, experiment_spec_from_file, run_experiment,
                    write_experiment)
from .theory import (MODES, TheoryInputs, accuracy_floor, failure_probability,
                     iteration_bound, progress_constants, success_probability)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError", "ConfigurationError", "RegistryError",
    "SpecFileError", "SpectrumQueryError", "UnsupportedProblemError",
    "CurvaturePairStore", "SpectrumBounds",
    "Problem", "VqeProblem", "builtin_problem", "list_builtin_problems",
    "list_vqe_presets", "load_problem_manifest", "vqe_problem",
    "OracleModel", "OracleParams",
    "RunTrace", "SolverConfig", "StoppingRule", "run",
    "MetricTable", "data_profile", "performance_profile",
    "ExperimentSpec", "experiment_spec_from_file", "run_experiment",
    "write_experiment",
    "MODES", "TheoryInputs", "accuracy_floor", "failure_probability",
    "iteration_bound", "progress_constants", "success_probability",
]
