"""The blocking stage: which (new, registered) pairs deserve a full
similarity evaluation.

``Sim = α·LabelSim + β·DomSim`` can only be positive when the pair shares
observable evidence, and every kind of evidence the similarity reads is
indexable:

- **label tokens** — ``LabelSim`` is a cosine over
  :func:`~repro.matching.similarity.normalize_label_words`; no shared
  normalised token means a zero dot product;
- **value signatures** — for non-numeric domains ``DomSim`` is containment
  over ``strip().lower()``-normalised instance values, so a positive
  overlap requires at least one shared signature *and* equal inferred
  types (a type mismatch outside the numeric family zeroes the type
  factor);
- **the numeric family** — two numeric-typed domains compare by range
  overlap, which can be positive without any shared literal value, so all
  numeric-typed attributes share one bucket.

A cross-interface pair matching none of the three postings therefore has
``Sim == 0`` exactly — skipping its evaluation and treating the entry as
0.0 in the merge loop is not an approximation. That soundness claim is
what ``tests/test_registry_blocking.py`` attacks with seeded
perturbations, and what lets the incremental assimilator promise
byte-identical clusters while evaluating a fraction of the pairs.

The index mirrors the postings idiom of
:class:`repro.surfaceweb.index.InvertedIndex`: plain token -> sorted
posting lists, built with ``setdefault``. Every skipped pair is charged to
the :class:`BlockingStats` ledger so the InvariantChecker can audit
``evaluated + blocked == n·|registry|`` for every assimilation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.matching.similarity import AttributeView
from repro.util import counters as work

__all__ = ["AddRecord", "BlockingIndex", "BlockingStats"]

AttrKey = Tuple[str, str]


def label_tokens(view: AttributeView) -> Set[str]:
    """The label's normalised token set — the LabelSim evidence."""
    return set(view.profile.label_vector)


def value_signatures(view: AttributeView) -> Set[str]:
    """Normalised instance values — the non-numeric DomSim evidence.

    Exactly the normalisation :func:`repro.matching.similarity.value_similarity`
    applies, so a pair without a shared signature has zero containment.
    """
    return set(view.profile.values)


@dataclass(frozen=True)
class Signature:
    """Everything the blocking index knows about one attribute view."""

    key: AttrKey
    tokens: frozenset
    values: frozenset
    #: inferred type name, or None without instances (DomSim = 0 then)
    type_name: Any
    numeric: bool

    @classmethod
    def of(cls, view: AttributeView) -> "Signature":
        profile = view.profile
        return cls(
            key=view.key,
            tokens=frozenset(label_tokens(view)),
            values=frozenset(value_signatures(view)),
            type_name=profile.domain_type.value if profile.values else None,
            numeric=bool(profile.values) and profile.domain_type.is_numeric,
        )


class BlockingIndex:
    """Inverted index over registered views' blocking evidence.

    Candidate generation for a new view unions three posting families:
    shared label token, shared ``(type, value-signature)`` pair, and the
    all-numeric bucket (when the new view is itself numeric). Posting
    lists hold view ids (positions in the registered-view sequence), so
    candidates come back as a sorted id list.
    """

    def __init__(self) -> None:
        self._signatures: List[Signature] = []
        self._by_token: Dict[str, List[int]] = {}
        self._by_value: Dict[Tuple[Any, str], List[int]] = {}
        self._numeric: List[int] = []

    def __len__(self) -> int:
        return len(self._signatures)

    def add(self, view: AttributeView) -> int:
        """Index one registered view; returns its view id."""
        view_id = len(self._signatures)
        signature = Signature.of(view)
        self._signatures.append(signature)
        for token in signature.tokens:
            self._by_token.setdefault(token, []).append(view_id)
        if signature.type_name is not None and not signature.numeric:
            for value in signature.values:
                self._by_value.setdefault(
                    (signature.type_name, value), []).append(view_id)
        if signature.numeric:
            self._numeric.append(view_id)
        return view_id

    def candidates(self, view: AttributeView) -> List[int]:
        """Registered view ids that might have nonzero similarity to ``view``.

        Over-generation is allowed (it only costs evaluations); missing a
        pair that batch evaluation would score above zero is the bug the
        soundness suite hunts.
        """
        if work.ACTIVE is not None:
            work.ACTIVE.bump("blocking.probes")
        signature = Signature.of(view)
        found: Set[int] = set()
        for token in signature.tokens:
            found.update(self._by_token.get(token, ()))
        if signature.type_name is not None and not signature.numeric:
            for value in signature.values:
                found.update(self._by_value.get(
                    (signature.type_name, value), ()))
        if signature.numeric:
            found.update(self._numeric)
        return sorted(found)


@dataclass(frozen=True)
class AddRecord:
    """The ledger line for one assimilation: what was and wasn't evaluated."""

    interface_id: str
    #: attribute views the new interface contributed (``n``)
    new_views: int
    #: registered views at assimilation time (``|registry|``)
    existing_views: int
    #: candidate pairs that got the full similarity evaluation
    evaluated: int
    #: cross pairs the blocking stage skipped (charged as Sim = 0)
    blocked: int

    @property
    def pairs_considered(self) -> int:
        """The full cross-pair scope this add was accountable for."""
        return self.new_views * self.existing_views

    def to_dict(self) -> Dict[str, Any]:
        return {
            "interface_id": self.interface_id,
            "new_views": self.new_views,
            "existing_views": self.existing_views,
            "evaluated": self.evaluated,
            "blocked": self.blocked,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AddRecord":
        return cls(
            interface_id=payload["interface_id"],
            new_views=payload["new_views"],
            existing_views=payload["existing_views"],
            evaluated=payload["evaluated"],
            blocked=payload["blocked"],
        )


@dataclass
class BlockingStats:
    """Cumulative blocking ledger: one :class:`AddRecord` per assimilation.

    The conservation law the InvariantChecker audits: for every add,
    ``evaluated + blocked == new_views · existing_views``, and the totals
    below are exactly the column sums of the history — no evaluation goes
    unaccounted, no skipped pair goes uncharged.
    """

    adds: List[AddRecord] = field(default_factory=list)

    @property
    def evaluated(self) -> int:
        return sum(record.evaluated for record in self.adds)

    @property
    def blocked(self) -> int:
        return sum(record.blocked for record in self.adds)

    @property
    def pairs_considered(self) -> int:
        return sum(record.pairs_considered for record in self.adds)

    @property
    def reduction(self) -> float:
        """Fraction of the cross-pair scope blocking skipped, in [0, 1]."""
        considered = self.pairs_considered
        return self.blocked / considered if considered else 0.0

    def record(self, add: AddRecord) -> None:
        self.adds.append(add)

    def to_dict(self) -> Dict[str, Any]:
        return {"adds": [record.to_dict() for record in self.adds]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BlockingStats":
        return cls(adds=[AddRecord.from_dict(r) for r in payload.get("adds", [])])
