"""Pipeline core and the SecurityKG facade (paper Figure 1).

Porter -> Checker -> source-dependent Parsers -> source-independent
Extractors run on a parallel pipeline of serialisable records; the
:class:`~repro.core.system.SecurityKG` facade wires collection,
processing, storage and applications together under one configuration.
"""

from repro.core.checker import CheckReport, Checker, default_checks
from repro.core.config import SystemConfig
from repro.core.extractor import Extractor
from repro.core.parsers import ParserDispatch, ParserError, SourceParser
from repro.core.pipeline import Pipeline, PipelineResult, Stage
from repro.core.porter import Porter, report_id_for
from repro.core.system import SecurityKG, SystemReport

__all__ = [
    "CheckReport",
    "Checker",
    "Extractor",
    "ParserDispatch",
    "ParserError",
    "Pipeline",
    "PipelineResult",
    "Porter",
    "SecurityKG",
    "SourceParser",
    "Stage",
    "SystemConfig",
    "SystemReport",
    "default_checks",
    "report_id_for",
]
