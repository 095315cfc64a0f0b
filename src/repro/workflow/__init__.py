"""Workflow model: DAGs, specs, requests, catalog."""

from .catalog import Workflow, intelligent_assistant, video_analytics
from .chain import chain_dag
from .dag import WorkflowDAG
from .request import RequestOutcome, StageRecord, WorkflowRequest
from .spec import chain_spec, parse_spec, parse_spec_file

__all__ = [
    "WorkflowDAG",
    "chain_dag",
    "parse_spec",
    "parse_spec_file",
    "chain_spec",
    "Workflow",
    "intelligent_assistant",
    "video_analytics",
    "WorkflowRequest",
    "StageRecord",
    "RequestOutcome",
]
