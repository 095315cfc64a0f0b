"""Workloads and traces: arrival processes, request streams, the synthetic
Azure-like invocation trace used by the Fig. 1a analysis, and the
trace-file subsystem (versioned on-disk format, diurnal rate curves, Zipf
popularity mixes, record/replay)."""

from .azure import AzureLikeTrace, SlackAnalysis, generate_trace, slack_analysis
from .diurnal import DiurnalRate, nhpp_arrivals
from .popularity import PopularityMix
from .trace_file import (
    TRACE_SCHEMA,
    WorkloadTrace,
    cached_trace,
    generate_workload_trace,
    load_trace,
    replay_arrivals,
    save_trace,
    trace_from_requests,
)
from .workload import ArrivalSpec, WorkloadConfig, generate_requests

__all__ = [
    "nhpp_arrivals",
    "DiurnalRate",
    "PopularityMix",
    "TRACE_SCHEMA",
    "WorkloadTrace",
    "load_trace",
    "save_trace",
    "cached_trace",
    "generate_workload_trace",
    "trace_from_requests",
    "replay_arrivals",
    "ArrivalSpec",
    "AzureLikeTrace",
    "SlackAnalysis",
    "generate_trace",
    "slack_analysis",
    "WorkloadConfig",
    "generate_requests",
]
