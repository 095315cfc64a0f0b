"""Discrete-event simulation kernel.

A minimal, deterministic, generator-based DES engine in the style of SimPy,
built from scratch for this reproduction (the paper's testbed is replaced by
simulation, see DESIGN.md §2). Public surface:

- :class:`Simulator` — clock, event heap, run loop
- :class:`Event`, :class:`Timeout`, :class:`AllOf`, :class:`AnyOf`
- :class:`Process`, :class:`Interrupt` — generator coroutines
- :class:`TimeSeries` — measurement
"""

from .engine import Simulator
from .events import AllOf, AnyOf, Event, Timeout
from .monitor import TimeSeries
from .process import Interrupt, Process

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "Interrupt",
    "TimeSeries",
]
