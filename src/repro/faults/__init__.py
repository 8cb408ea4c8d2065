"""Fault injection: the fault vocabulary and scripted schedules."""

from .injector import FaultAction, FaultKind, FaultSchedule, FaultScheduleError

__all__ = [
    "FaultAction",
    "FaultKind",
    "FaultSchedule",
    "FaultScheduleError",
]
