"""repro.exec — the acquisition unit plan and per-unit random streams.

The acquisition pipeline's work is an explicit DAG of checkpoint units
(:mod:`repro.exec.dag`), run serially in canonical order; that order is
the checkpoint journal's record order. Each unit runs inside
:func:`unit_scope` (:mod:`repro.exec.context`), which partitions the
sequential random streams per unit so a unit's draws never depend on
which units ran before it or on where a resumed run picked up.
"""

from repro.exec.context import UnitKey, current_unit, unit_scope
from repro.exec.dag import ExecutionDAG, PhaseNode, WorkUnit

__all__ = [
    "ExecutionDAG",
    "PhaseNode",
    "UnitKey",
    "WorkUnit",
    "current_unit",
    "unit_scope",
]
