"""The endpoint representation of interval sequences.

This is the representation at the heart of P-TPMiner. Every interval event
``(e, s, f)`` is decomposed into a **start endpoint** ``e+`` at time ``s``
and a **finish endpoint** ``e-`` at time ``f``; a point event contributes a
single **point endpoint** ``e.``. Endpoints that occur at the same instant
are grouped into a **pointset**, and the time-ordered list of pointsets is
the **endpoint sequence**.

The transform is *lossless with respect to arrangement*: the pairwise Allen
relation of any two intervals can be read back off the relative order of
their four endpoints, so mining over endpoint sequences finds exactly the
frequent arrangements — while reducing the "complex relation between two
intervals" (13 cases) to plain sequence/itemset structure.

Duplicate event types are disambiguated with **occurrence indices**: the
k-th event carrying label ``e`` (in the canonical ``(start, finish, label)``
order of the e-sequence) is occurrence ``k``, and its endpoints are
``(e, k, +)`` / ``(e, k, -)``. Matching the finish of occurrence ``k``
therefore always refers to the same interval as its start.

Two layers live here:

* a public, string-labelled layer (:class:`Endpoint`,
  :class:`EndpointSequence`) used by pattern objects, I/O and tests;
* an integer-interned layer (:class:`EncodedDatabase`,
  :class:`EncodedSequence`) used by the miners' hot loops, where a token is
  the pair ``(sym, occ)`` with ``sym = label_id * 3 + kind``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple, Optional

from repro.model.database import ESequenceDatabase
from repro.model.event import IntervalEvent
from repro.model.sequence import ESequence

__all__ = [
    "START",
    "FINISH",
    "POINT",
    "KIND_CHARS",
    "Endpoint",
    "EndpointSequence",
    "EncodedSequence",
    "EncodedDatabase",
    "endpoint_sequence_of",
]

#: Endpoint kind codes. The numeric order (point < start < finish) is the
#: canonical intra-pointset ordering used everywhere. Points sort *before*
#: starts so that generation order agrees with the canonical occurrence
#: numbering: a point occurrence ``(ps, ps)`` precedes an interval
#: occurrence ``(ps, later)`` under the ``(start_ps, finish_ps)`` rule.
POINT, START, FINISH = 0, 1, 2

#: Display characters per kind code.
KIND_CHARS = {START: "+", FINISH: "-", POINT: "."}
_CHAR_KINDS = {char: kind for kind, char in KIND_CHARS.items()}


class Endpoint(NamedTuple):
    """One endpoint token: ``(label, occ, kind)``.

    ``occ`` is the occurrence index (1-based) of the interval this endpoint
    belongs to among same-label intervals; ``kind`` is one of
    :data:`START`, :data:`FINISH`, :data:`POINT`.
    """

    label: str
    occ: int
    kind: int

    @property
    def sort_key(self) -> tuple[str, int, int]:
        """Canonical ordering key: label, then kind, then occurrence."""
        return (self.label, self.kind, self.occ)

    def __str__(self) -> str:
        suffix = f"#{self.occ}" if self.occ != 1 else ""
        return f"{self.label}{suffix}{KIND_CHARS[self.kind]}"

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        """Parse the :meth:`__str__` form, e.g. ``"A#2+"`` or ``"B-"``."""
        text = text.strip()
        if not text or text[-1] not in _CHAR_KINDS:
            raise ValueError(f"cannot parse endpoint token {text!r}")
        kind = _CHAR_KINDS[text[-1]]
        body = text[:-1]
        occ = 1
        if "#" in body:
            body, _, occ_text = body.rpartition("#")
            occ = int(occ_text)
        if not body:
            raise ValueError(f"endpoint token {text!r} has an empty label")
        return cls(body, occ, kind)


Pointset = tuple[Endpoint, ...]


def _sorted_pointset(endpoints: Iterable[Endpoint]) -> Pointset:
    return tuple(sorted(endpoints, key=lambda e: e.sort_key))


class EndpointSequence:
    """A canonical endpoint sequence: a tuple of sorted pointsets.

    Built from an e-sequence via :meth:`from_esequence`; the inverse
    transform :meth:`to_esequence` reconstructs an e-sequence with integer
    timestamps ``0..m-1`` that has the identical arrangement (and thus an
    identical endpoint sequence) — the losslessness property the paper's
    representation relies on.
    """

    __slots__ = ("_pointsets",)

    def __init__(self, pointsets: Iterable[Iterable[Endpoint]]) -> None:
        sets = tuple(_sorted_pointset(ps) for ps in pointsets)
        if any(not ps for ps in sets):
            raise ValueError("endpoint sequences cannot contain empty pointsets")
        self._pointsets = sets

    @property
    def pointsets(self) -> tuple[Pointset, ...]:
        """The pointsets in temporal order, canonically sorted internally."""
        return self._pointsets

    def __len__(self) -> int:
        return len(self._pointsets)

    def __iter__(self) -> "Iterator[Pointset]":
        return iter(self._pointsets)

    def __getitem__(self, index: int) -> Pointset:
        return self._pointsets[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EndpointSequence):
            return NotImplemented
        return self._pointsets == other._pointsets

    def __hash__(self) -> int:
        return hash(self._pointsets)

    def __str__(self) -> str:
        return " ".join(
            "(" + " ".join(str(e) for e in ps) + ")" for ps in self._pointsets
        )

    def __repr__(self) -> str:
        return f"EndpointSequence<{self}>"

    @property
    def num_tokens(self) -> int:
        """Total number of endpoint tokens across pointsets."""
        return sum(len(ps) for ps in self._pointsets)

    @classmethod
    def from_esequence(cls, seq: ESequence) -> "EndpointSequence":
        """Decompose an e-sequence into its endpoint sequence."""
        by_time: dict[float, list[Endpoint]] = {}
        for event, occ in seq.occurrence_indexed():
            if event.is_point:
                by_time.setdefault(event.start, []).append(
                    Endpoint(event.label, occ, POINT)
                )
            else:
                by_time.setdefault(event.start, []).append(
                    Endpoint(event.label, occ, START)
                )
                by_time.setdefault(event.finish, []).append(
                    Endpoint(event.label, occ, FINISH)
                )
        return cls(by_time[t] for t in sorted(by_time))

    def to_esequence(self, sid: Optional[int] = None) -> ESequence:
        """Reconstruct an e-sequence with integer times ``0..m-1``.

        The reconstruction realizes the same arrangement: round-tripping
        through :meth:`from_esequence` yields an equal endpoint sequence.
        Raises :class:`ValueError` when the endpoint sequence is not
        well-formed (a finish without its start, or an unfinished start).
        """
        open_at: dict[tuple[str, int], int] = {}
        events: list[IntervalEvent] = []
        for time, pointset in enumerate(self._pointsets):
            for ep in pointset:
                key = (ep.label, ep.occ)
                if ep.kind == POINT:
                    events.append(IntervalEvent(time, time, ep.label))
                elif ep.kind == START:
                    if key in open_at:
                        raise ValueError(f"start {ep} appears twice")
                    open_at[key] = time
                else:
                    if key not in open_at:
                        raise ValueError(f"finish {ep} has no matching start")
                    start_time = open_at.pop(key)
                    if start_time == time:
                        raise ValueError(
                            f"interval {ep.label}#{ep.occ} starts and finishes "
                            "in the same pointset; encode it as a point event"
                        )
                    events.append(IntervalEvent(start_time, time, ep.label))
        if open_at:
            dangling = ", ".join(f"{l}#{o}" for l, o in sorted(open_at))
            raise ValueError(f"unfinished starts: {dangling}")
        return ESequence(events, sid=sid)


def endpoint_sequence_of(seq: ESequence) -> EndpointSequence:
    """Shorthand for :meth:`EndpointSequence.from_esequence`."""
    return EndpointSequence.from_esequence(seq)


# ---------------------------------------------------------------------------
# Integer-interned layer for the miners
# ---------------------------------------------------------------------------

#: An encoded token is ``(sym, occ)`` with ``sym = label_id * 3 + kind``.
Token = tuple[int, int]


class EncodedSequence:
    """One sequence in interned form, with precomputed position indices.

    Attributes
    ----------
    pointsets:
        ``tuple`` of pointsets; each pointset is a sorted ``tuple`` of
        ``(sym, occ)`` tokens.
    start_pos / finish_pos:
        For every interval occurrence ``(label_id, occ)``, the pointset
        index of its start/finish endpoint (for points, both equal the
        point's position). The miner uses ``finish_pos`` to locate — in
        O(1) — the unique pointset where a pending interval can close.
    times:
        The original timestamp of each pointset (same length as
        ``pointsets``); used by the time-constrained (``max_span``)
        mining mode, which bounds embeddings to a time window.
    """

    __slots__ = ("sid", "pointsets", "start_pos", "finish_pos", "times")

    def __init__(
        self,
        sid: int,
        pointsets: Sequence[Sequence[Token]],
        start_pos: dict[tuple[int, int], int],
        finish_pos: dict[tuple[int, int], int],
        times: Sequence[float] = (),
    ) -> None:
        self.sid = sid
        self.pointsets = tuple(tuple(sorted(ps)) for ps in pointsets)
        self.start_pos = start_pos
        self.finish_pos = finish_pos
        self.times = tuple(times)

    def __len__(self) -> int:
        return len(self.pointsets)


class EncodedDatabase:
    """A whole database interned for mining.

    Labels are interned in **sorted lexicographic order**, so the integer
    token order coincides with the public canonical endpoint order — the
    miners and the string-level pattern objects therefore agree on pattern
    canonical form without any re-sorting.
    """

    __slots__ = ("labels", "label_ids", "sequences", "size")

    def __init__(self, db: ESequenceDatabase) -> None:
        self.labels: tuple[str, ...] = tuple(sorted(db.alphabet))
        self.label_ids: dict[str, int] = {
            label: i for i, label in enumerate(self.labels)
        }
        self.size = len(db)
        self.sequences: list[EncodedSequence] = [
            self._encode_sequence(seq) for seq in db
        ]

    def _encode_sequence(self, seq: ESequence) -> EncodedSequence:
        by_time: dict[float, list[Token]] = {}
        spans: list[tuple[int, int, float, float, bool]] = []
        for event, occ in seq.occurrence_indexed():
            label_id = self.label_ids[event.label]
            if event.is_point:
                by_time.setdefault(event.start, []).append(
                    (label_id * 3 + POINT, occ)
                )
                spans.append((label_id, occ, event.start, event.start, True))
            else:
                by_time.setdefault(event.start, []).append(
                    (label_id * 3 + START, occ)
                )
                by_time.setdefault(event.finish, []).append(
                    (label_id * 3 + FINISH, occ)
                )
                spans.append((label_id, occ, event.start, event.finish, False))
        times = sorted(by_time)
        time_index = {t: i for i, t in enumerate(times)}
        start_pos: dict[tuple[int, int], int] = {}
        finish_pos: dict[tuple[int, int], int] = {}
        for label_id, occ, s, f, _is_point in spans:
            start_pos[(label_id, occ)] = time_index[s]
            finish_pos[(label_id, occ)] = time_index[f]
        assert seq.sid is not None
        return EncodedSequence(
            seq.sid, [by_time[t] for t in times], start_pos, finish_pos,
            times,
        )

    # -- sym helpers -------------------------------------------------------
    def sym(self, label: str, kind: int) -> int:
        """Interned symbol of ``(label, kind)``."""
        return self.label_ids[label] * 3 + kind

    def label_of(self, sym: int) -> str:
        """Label of an interned symbol."""
        return self.labels[sym // 3]

    @staticmethod
    def kind_of(sym: int) -> int:
        """Kind code of an interned symbol."""
        return sym % 3

    def decode_token(self, token: Token) -> Endpoint:
        """Convert an interned ``(sym, occ)`` token back to an Endpoint."""
        sym, occ = token
        return Endpoint(self.labels[sym // 3], occ, sym % 3)
