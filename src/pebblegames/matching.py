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

    def check_record(self, rec: Record) -> None:
        if rec.pigeon not in self.pigeons or rec.hole not in self.holes:
            raise ValueError(f"record {rec} outside board {self}")


@dataclass(frozen=True)
class LogPower:
    """The width/length budget pair: ``width = |n|^C`` and ``cap = 2**width``.

    ``|n|`` is the binary length of ``n``; callers may shrink ``cap`` for
    tests since only its existence matters for the game rules.
    """

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
    return (a.pigeon == b.pigeon) != (a.hole == b.hole)


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

    def hole_of(self, pigeon: int) -> Optional[int]:
        for r in self.entries:
            if r.pigeon == pigeon:
                return r.hole
        return None

    def pigeon_of(self, hole: int) -> Optional[int]:
        for r in self.entries:
            if r.hole == hole:
                return r.pigeon
        return None

    @property
    def pigeons(self) -> frozenset[int]:
        return frozenset(r.pigeon for r in self.entries)

    @property
    def holes(self) -> frozenset[int]:
        return frozenset(r.hole for r in self.entries)

    def union(self, other: "Matching") -> "Matching":
        """The combined matching; raises ValueError when they contradict."""
        return Matching(self.entries + other.entries)

    def restrict_to(self, pigeons: Iterable[int], holes: Iterable[int]) -> "Matching":
        ps, hs = set(pigeons), set(holes)
        return Matching(tuple(r for r in self.entries if r.pigeon in ps and r.hole in hs))

    def __str__(self) -> str:
        return "{" + ", ".join(f"({r.pigeon},{r.hole})" for r in self.entries) + "}"


EMPTY_MATCHING = Matching()


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

    @staticmethod
    def parse(text: str) -> "Query":
        pigeons, holes = set(), set()
        text = text.strip()
        if text in ("", "-"):
            return Query()
        for item in text.split():
            if item.startswith("p"):
                pigeons.add(int(item[1:]))
            elif item.startswith("h"):
                holes.add(int(item[1:]))
            else:
                raise ValueError(f"bad query item {item!r}")
        return Query.of(pigeons, holes)


def covers(m: Matching, q: Query) -> bool:
    return q.pigeons <= m.pigeons and q.holes <= m.holes


def minimal_covers(
    q: Query, base: Optional[Matching], size: GameSize
) -> frozenset[Matching]:
    """All inclusion-minimal matchings covering ``q``.

    When ``base`` is given, only covers consistent with it are returned.
    The empty result is meaningful: it signals that the query cannot be
    answered (a Prover win in the plain game).
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
        missing_p = sorted(q.pigeons - got.pigeons)
        missing_h = sorted(q.holes - got.holes)
        if not missing_p and not missing_h:
            if base is None or matchings_consistent(got, base):
                out.add(got)
            return
        if missing_p:
            p = missing_p[0]
            for h in size.holes:
                cand = Record(p, h)
                if all(not records_conflict(cand, r) for r in m):
                    extend(m + (cand,))
        else:
            h = missing_h[0]
            for p in size.pigeons:
                cand = Record(p, h)
                if all(not records_conflict(cand, r) for r in m):
                    extend(m + (cand,))

    extend(())
    return frozenset(out)


def format_matching_text(m: Matching) -> str:
    """Matching text form: one ``p h`` record per line, blank line terminates."""
    return "".join(f"{r.pigeon} {r.hole}\n" for r in m.entries) + "\n"


def parse_matching_text(lines: Iterator[str]) -> Matching:
    recs = []
    for line in lines:
        line = line.strip()
        if not line:
            break
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad record line {line!r}")
        recs.append(Record(int(parts[0]), int(parts[1])))
    return Matching(tuple(recs))


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
