"""Static offload verifier: map-clause, dataflow, partition and race checks.

Public surface::

    from repro.analysis import verify_region, AnalysisReport, Severity

    report = verify_region(region, scalars={"N": 1024})
    if not report.ok:
        print(report.render())

``repro lint`` (CLI) and the runtime's strict mode
(``offload(..., strict=True)``) are thin wrappers over this module.
The diagnostic catalogue lives in ``docs/ANALYSIS.md``.
"""

from repro.analysis.dataflow import BodyAccess, analyze_body
from repro.analysis.diagnostics import (
    CODES,
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    Severity,
    Span,
    json_report,
)
from repro.analysis.fusioncheck import check_fusable_chains
from repro.analysis.infer import (
    ArrayEvidence,
    InferenceReport,
    infer_region,
    naive_tofrom_region,
)
from repro.analysis.mapcheck import check_dataflow, check_inferred_maps, check_maps
from repro.analysis.partition_check import check_partitions
from repro.analysis.races import check_races
from repro.analysis.verifier import (
    enforce_strict,
    probe_envs,
    python_file_regions,
    source_regions,
    verify_python_file,
    verify_region,
    verify_source,
)

__all__ = [
    "CODES",
    "AnalysisError",
    "AnalysisReport",
    "ArrayEvidence",
    "BodyAccess",
    "Diagnostic",
    "InferenceReport",
    "Severity",
    "Span",
    "analyze_body",
    "check_dataflow",
    "check_fusable_chains",
    "check_inferred_maps",
    "check_maps",
    "check_partitions",
    "check_races",
    "enforce_strict",
    "infer_region",
    "json_report",
    "naive_tofrom_region",
    "probe_envs",
    "python_file_regions",
    "source_regions",
    "verify_python_file",
    "verify_region",
    "verify_source",
]
