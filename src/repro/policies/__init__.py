"""Sizing policies: early-binding baselines, ORION, the Janus family, the
clairvoyant Optimal oracle (paper §V-A), and the shared policy registry."""

from .base import SizingPolicy
from .dag import DagFixedPolicy, DagGrandSLAMPolicy, DagJanusPolicy
from .early_binding import (
    FixedPlanPolicy,
    GrandSLAMPlusPolicy,
    GrandSLAMPolicy,
    WorstCasePolicy,
)
from .janus import JanusPolicy, janus, janus_minus, janus_plus
from .oracle import OraclePolicy
from .orion import OrionPolicy
from .registry import DEFAULT_SUITE, POLICIES, PolicyBuilder, PolicyRegistry

__all__ = [
    "SizingPolicy",
    "PolicyRegistry",
    "PolicyBuilder",
    "POLICIES",
    "DEFAULT_SUITE",
    "DagFixedPolicy",
    "DagGrandSLAMPolicy",
    "DagJanusPolicy",
    "FixedPlanPolicy",
    "WorstCasePolicy",
    "GrandSLAMPolicy",
    "GrandSLAMPlusPolicy",
    "OrionPolicy",
    "JanusPolicy",
    "janus",
    "janus_minus",
    "janus_plus",
    "OraclePolicy",
]
