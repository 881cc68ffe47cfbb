"""Experiment harness: configurations, runners, figure/table generators."""

from repro.harness.configs import (
    A72Params,
    CONFIGURATIONS,
    Configuration,
    DEFAULT_PARAMS,
    configuration,
)
from repro.harness.parallel import (
    last_matrix_report,
    resolve_workers,
    run_matrix_parallel,
)
from repro.harness.result_cache import ResultCache, source_fingerprint
from repro.harness.runner import RunResult, run_matrix, run_one
from repro.harness.supervisor import (
    GroupReport,
    MatrixReport,
    SupervisorConfig,
    SupervisorError,
)

__all__ = [
    "A72Params",
    "CONFIGURATIONS",
    "Configuration",
    "DEFAULT_PARAMS",
    "GroupReport",
    "MatrixReport",
    "ResultCache",
    "RunResult",
    "SupervisorConfig",
    "SupervisorError",
    "configuration",
    "last_matrix_report",
    "resolve_workers",
    "run_matrix",
    "run_matrix_parallel",
    "run_one",
    "source_fingerprint",
]
