"""Pigeons, holes, records, partial matchings and their consistency predicates.

Pigeons are ``0..n`` and holes are ``0..n-1`` unless the pigeon side is
overridden (the subset-labeled variant uses ``2**n`` pigeons).  A matching is
injective in both coordinates; two matchings contradict each other exactly
when their union is not a matching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional


class Record(NamedTuple):
    """A single answer ``pigeon -> hole``."""

    pigeon: int
    hole: int


@dataclass(frozen=True)
class GameSize:
    """Board dimensions: ``n`` holes and, by default, ``n + 1`` pigeons."""

    n: int
    pigeon_count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one hole, got n={self.n}")
        if self.pigeon_count is not None and self.pigeon_count < self.n + 1:
            raise ValueError(
                f"pigeon override {self.pigeon_count} must be >= n+1 = {self.n + 1}"
            )

    @property
    def pigeons(self) -> range:
        return range(self.pigeon_count if self.pigeon_count is not None else self.n + 1)

    @property
    def holes(self) -> range:
        return range(self.n)


@dataclass(frozen=True)
class LogPower:
    """The width/length budget pair: ``width = |n|^C`` and ``cap = 2**width``,
    where ``|n|`` is the binary length of ``n``."""

    n: int
    C: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.C < 1:
            raise ValueError("n and C must be positive")

    @property
    def bitlen(self) -> int:
        return self.n.bit_length()

    @property
    def width(self) -> int:
        return self.bitlen**self.C

    @property
    def cap(self) -> int:
        return 2**self.width


def records_conflict(a: Record, b: Record) -> bool:
    """True iff the two records cannot belong to one matching."""
    (p, h), (q, k) = a, b
    return (p == q) != (h == k)


@dataclass(frozen=True)
class Matching:
    """An injective-both-ways set of records, stored sorted by pigeon."""

    entries: tuple[Record, ...] = field(default=())

    def __post_init__(self) -> None:
        recs = tuple(sorted(set(Record(*r) for r in self.entries)))
        pigeons = [r.pigeon for r in recs]
        holes = [r.hole for r in recs]
        if len(set(pigeons)) != len(recs) or len(set(holes)) != len(recs):
            raise ValueError(f"not a matching: {recs}")
        object.__setattr__(self, "entries", recs)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, rec: Record) -> bool:
        return rec in self.entries

    @property
    def pigeons(self) -> frozenset[int]:
        return frozenset(r.pigeon for r in self.entries)

    @property
    def holes(self) -> frozenset[int]:
        return frozenset(r.hole for r in self.entries)

    def union(self, other: "Matching") -> "Matching":
        """The combined matching; raises ValueError when they contradict."""
        return Matching(self.entries + other.entries)

    def __str__(self) -> str:
        return "{" + ", ".join(f"({r.pigeon},{r.hole})" for r in self.entries) + "}"


def matchings_consistent(a: Matching, b: Matching) -> bool:
    """True iff the union of the two matchings is again a matching."""
    for x in a:
        for y in b:
            if records_conflict(x, y):
                return False
    return True


@dataclass(frozen=True)
class Query:
    """A set of queried pigeons and holes."""

    pigeons: frozenset[int] = frozenset()
    holes: frozenset[int] = frozenset()

    def __len__(self) -> int:
        return len(self.pigeons) + len(self.holes)

    @staticmethod
    def of(pigeons: Iterable[int] = (), holes: Iterable[int] = ()) -> "Query":
        return Query(frozenset(pigeons), frozenset(holes))

    def __str__(self) -> str:
        items = [f"p{i}" for i in sorted(self.pigeons)] + [f"h{i}" for i in sorted(self.holes)]
        return " ".join(items) if items else "-"


def covers(m: Matching, q: Query) -> bool:
    return q.pigeons <= m.pigeons and q.holes <= m.holes


def minimal_covers(q: Query, size: GameSize) -> frozenset[Matching]:
    """All inclusion-minimal matchings covering ``q`` on the board.

    The empty result is meaningful: it signals that the query cannot be
    answered, which is a Prover win.  A query outside the board raises.
    """
    for p in q.pigeons:
        if p not in size.pigeons:
            raise ValueError(f"pigeon {p} outside board")
    for h in q.holes:
        if h not in size.holes:
            raise ValueError(f"hole {h} outside board")

    out: set[Matching] = set()

    def extend(m: tuple[Record, ...]) -> None:
        got = Matching(m)
        missing_p = q.pigeons - got.pigeons
        missing_h = q.holes - got.holes
        if missing_p:
            cands = [Record(min(missing_p), h) for h in size.holes]
        elif missing_h:
            cands = [Record(p, min(missing_h)) for p in size.pigeons]
        else:
            out.add(got)
            return
        for cand in cands:
            if all(not records_conflict(cand, r) for r in m):
                extend(m + (cand,))

    extend(())
    return frozenset(out)


def all_matchings(size: GameSize, max_size: Optional[int] = None) -> Iterator[Matching]:
    """Enumerate every partial matching on the board (small boards only)."""
    pigeons = list(size.pigeons)
    holes = list(size.holes)
    limit = min(len(pigeons), len(holes))
    if max_size is not None:
        limit = min(limit, max_size)
    for k in range(limit + 1):
        for ps in itertools.combinations(pigeons, k):
            for hs in itertools.permutations(holes, k):
                yield Matching(tuple(Record(p, h) for p, h in zip(ps, hs)))
