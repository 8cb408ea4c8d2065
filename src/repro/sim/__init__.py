"""Deterministic discrete-event simulation kernel (AmpNet substrate).

Public surface::

    from repro.sim import Simulator, Interrupt, Store, Tracer

See :mod:`repro.sim.kernel` for the event-loop semantics.
"""

from .events import (
    AnyOf,
    Callback,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .kernel import Simulator, StopSimulation
from .monitor import (
    NULL_TRACER,
    ConvergenceTracker,
    Counter,
    LatencyStat,
    Tracer,
)
from .rand import SeededStreams, derive_seed
from .resources import Store

__all__ = [
    "AnyOf",
    "Callback",
    "ConvergenceTracker",
    "Counter",
    "Event",
    "Interrupt",
    "LatencyStat",
    "NULL_TRACER",
    "Process",
    "SeededStreams",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Store",
    "Timeout",
    "Tracer",
    "derive_seed",
]
