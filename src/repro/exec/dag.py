"""The acquisition work DAG: checkpoint units as explicit nodes.

The acquisition pipeline's implicit structure — three phases, each a loop
over ``(interface, attribute)`` pairs — becomes an explicit
:class:`ExecutionDAG`: one :class:`WorkUnit` node per checkpoint unit,
grouped into :class:`PhaseNode` stages. Phases are barriers: the Attr
phases borrow from instance sets the Surface phase produced, so every unit
of a phase runs after every unit of the previous one.

The canonical order — phases in plan order, units within a phase in
enumeration order — is the exact iteration order of the pre-DAG serial
loops and the order units are journaled in, so the plan defines the
checkpoint journal's boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, List, Sequence, Tuple

from repro.exec.context import UnitKey

__all__ = ["ExecutionDAG", "PhaseNode", "WorkUnit"]


@dataclass
class WorkUnit:
    """One checkpoint unit: one ``(phase, interface, attribute)`` of work.

    Carries live references to the objects the unit mutates (the
    attribute's ``acquired`` list, the acquisition record) so the unit
    can be handed around without knowing acquisition internals.
    """

    phase: str
    interface: Any
    attribute: Any
    record: Any
    #: position in the DAG's canonical (serial) order, assigned at plan time
    index: int = -1

    @property
    def key(self) -> UnitKey:
        return (self.phase, self.interface.interface_id, self.attribute.name)

    def __repr__(self) -> str:  # compact: shows up in plan diagnostics
        return f"WorkUnit({'/'.join(self.key)})"


@dataclass
class PhaseNode:
    """One barrier stage of the DAG: a named, ordered batch of units."""

    name: str
    units: List[WorkUnit] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.units)


class ExecutionDAG:
    """Phases of work units with barrier dependencies between phases.

    Build it with :meth:`add_phase` (in execution order); iterate
    :attr:`phases` to run it, or :meth:`units` for the flat canonical
    order. The phase grouping *is* the dependency structure.
    """

    def __init__(self) -> None:
        self._phases: List[PhaseNode] = []
        self._n_units = 0

    # ------------------------------------------------------------- building
    def add_phase(self, name: str, units: Sequence[WorkUnit]) -> PhaseNode:
        """Append a phase; stamps each unit's canonical ``index``."""
        if any(phase.name == name for phase in self._phases):
            raise ValueError(f"duplicate phase {name!r}")
        node = PhaseNode(name, list(units))
        for unit in node.units:
            if unit.phase != name:
                raise ValueError(
                    f"unit {unit!r} declares phase {unit.phase!r}, "
                    f"planned into phase {name!r}"
                )
            unit.index = self._n_units
            self._n_units += 1
        self._phases.append(node)
        return node

    # ------------------------------------------------------------ traversal
    @property
    def phases(self) -> Tuple[PhaseNode, ...]:
        return tuple(self._phases)

    @property
    def n_units(self) -> int:
        return self._n_units

    def units(self) -> Iterator[WorkUnit]:
        """All units in canonical (serial, journal) order."""
        for phase in self._phases:
            yield from phase.units
