"""Domain-type inference for attribute instance sets.

IceQ evaluates domain similarity "based on the (inferred) types of the
domains (such as integer, real, monetary values and date) and the values in
the domains". This module infers one of those types from an instance set by
majority vote over per-value type recognition.
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, Sequence

from repro.util import counters as work

__all__ = ["DomainType", "infer_type", "value_type"]


class DomainType(enum.Enum):
    INTEGER = "integer"
    REAL = "real"
    MONETARY = "monetary"
    DATE = "date"
    STRING = "string"

    @property
    def is_numeric(self) -> bool:
        return self in (DomainType.INTEGER, DomainType.REAL, DomainType.MONETARY)


_MONETARY_RE = re.compile(r"^\$\s*\d[\d,]*(?:\.\d+)?$")
_INTEGER_RE = re.compile(r"^\d[\d,]*$")
_REAL_RE = re.compile(r"^\d[\d,]*\.\d+$")

_MONTHS = {
    "january", "february", "march", "april", "may", "june", "july",
    "august", "september", "october", "november", "december",
    "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "sept",
    "oct", "nov", "dec",
}
_DATE_RE = re.compile(r"^\d{1,2}[/-]\d{1,2}(?:[/-]\d{2,4})?$")


def value_type(value: str) -> DomainType:
    """Type of a single value string.

    >>> value_type("$15,200")
    <DomainType.MONETARY: 'monetary'>
    >>> value_type("Jan 15")
    <DomainType.DATE: 'date'>
    """
    text = value.strip()
    if _MONETARY_RE.match(text):
        return DomainType.MONETARY
    if _INTEGER_RE.match(text):
        return DomainType.INTEGER
    if _REAL_RE.match(text):
        return DomainType.REAL
    if _DATE_RE.match(text):
        return DomainType.DATE
    words = text.lower().split()
    if words and words[0] in _MONTHS and len(words) <= 2:
        if len(words) == 1 or words[1].isdigit():
            return DomainType.DATE
    return DomainType.STRING


def infer_type(values: Sequence[str], majority: float = 0.6) -> DomainType:
    """Infer the type of an instance set by majority vote.

    A non-string type must account for at least ``majority`` of the values,
    otherwise the set is STRING (heterogeneous sets degrade to strings, as
    they would for a parser of real form data).
    """
    if work.ACTIVE is not None:
        work.ACTIVE.bump("types.inferences")
    values = [v for v in values if v and v.strip()]
    if not values:
        return DomainType.STRING
    counts: dict = {}
    for value in values:
        t = value_type(value)
        counts[t] = counts.get(t, 0) + 1
    best = max(counts, key=lambda t: counts[t])
    if best is DomainType.STRING:
        return DomainType.STRING
    # Integers and reals mix freely (mileage lists, acreage lists).
    numeric = counts.get(DomainType.INTEGER, 0) + counts.get(DomainType.REAL, 0)
    if best in (DomainType.INTEGER, DomainType.REAL):
        if numeric / len(values) >= majority:
            return (
                DomainType.REAL
                if counts.get(DomainType.REAL, 0) > counts.get(DomainType.INTEGER, 0)
                else DomainType.INTEGER
            )
        return DomainType.STRING
    if counts[best] / len(values) >= majority:
        return best
    return DomainType.STRING
