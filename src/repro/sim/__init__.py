"""Discrete-event simulation engine (the XDEVS substitute).

The paper evaluates the redundancy techniques on XDEVS, a discrete-event
simulation framework specialized for software systems.  XDEVS itself is not
publicly available, so this package provides a from-scratch discrete-event
engine with the facilities the evaluation needs:

* :class:`~repro.sim.engine.Simulator` -- an event-driven clock with
  schedule/cancel primitives and deterministic tie-breaking,
* :class:`~repro.sim.processes.Process` -- generator-based cooperative
  processes layered on the event queue,
* :class:`~repro.sim.rng.RngRegistry` -- named, independently seeded random
  streams so that simulated subsystems (node selection, job durations,
  failures, churn) draw from decoupled sequences and experiments are
  reproducible.

The engine is intentionally generic: :mod:`repro.dca` builds the paper's
system model (Figure 1) on top of it and :mod:`repro.volunteer` builds the
BOINC-like pull-model substrate on top of it.
"""

from repro.sim.engine import Simulator, SimulationError, StopSimulation
from repro.sim.events import Event, EventQueue
from repro.sim.processes import Process, Timeout, Waiting
from repro.sim.rng import RngRegistry
from repro.sim.streams import (
    CHURN,
    DURATIONS,
    FAILURES,
    NODE_SELECTION,
    SPOT_CHECKS,
    StreamLabel,
)

__all__ = [
    "CHURN",
    "DURATIONS",
    "Event",
    "EventQueue",
    "FAILURES",
    "NODE_SELECTION",
    "Process",
    "RngRegistry",
    "SPOT_CHECKS",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "StreamLabel",
    "Timeout",
    "Waiting",
]
