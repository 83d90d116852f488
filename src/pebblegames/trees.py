"""Finite index-sequence trees, the vertex and tree orders, ordinal embedding.

A vertex is a tuple of child indices (>= 1); the empty tuple is the root.
A tree is any nonempty prefix-closed finite set of vertices.  The tree order
compares two trees at the first structural disagreement along the
lexicographic sweep of their vertices; it is a linear order and every
transition of the backtracking game strictly increases positions under it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator

from pebblegames.matching import LogPower

Vertex = tuple[int, ...]

ROOT: Vertex = ()


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def is_prefix(v: Vertex, w: Vertex) -> bool:
    return len(v) <= len(w) and w[: len(v)] == v


def component(v: Vertex, k: int) -> int:
    """The k-th component (1-based), -1 past the end (padding convention)."""
    return v[k - 1] if 1 <= k <= len(v) else -1


def lex_compare(v: Vertex, w: Vertex) -> Ordering:
    """Lexicographic vertex order with out-of-range components read as -1."""
    for k in range(max(len(v), len(w))):
        a, b = component(v, k + 1), component(w, k + 1)
        if a != b:
            return Ordering.LESS if a < b else Ordering.GREATER
    return Ordering.EQUAL


@dataclass(frozen=True)
class FiniteTree:
    """A nonempty prefix-closed set of vertices, kept sorted lexicographically.

    All real child indices are >= 1, so the lexicographic order with -1
    padding coincides with plain tuple comparison and the sorted vertex
    list makes ``T_{<w}`` a prefix slice.  ``_key``, the negated components
    of the sorted vertices in one flat tuple, is the tree's position in the
    tree order (see ``tree_compare``); like ``_members`` it is no field, so
    equality, hashing and ``repr`` see only the vertices.
    """

    vertices: tuple[Vertex, ...] = field(default=(ROOT,))

    def __post_init__(self) -> None:
        vs = tuple(sorted(set(tuple(v) for v in self.vertices)))
        if not vs:
            raise ValueError("a tree is nonempty")
        have = frozenset(vs)
        for v in vs:
            if any(i < 1 for i in v):
                raise ValueError(f"child indices start at 1: {v}")
            if v and v[:-1] not in have:
                raise ValueError(f"not prefix-closed: missing parent of {v}")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "_members", have)
        object.__setattr__(self, "_key", tuple(-i for v in vs for i in v))

    def __contains__(self, v: Vertex) -> bool:
        return tuple(v) in self._members  # type: ignore[attr-defined]

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def height(self) -> int:
        return max(len(v) for v in self.vertices)


_LESS, _EQUAL, _GREATER = Ordering.LESS, Ordering.EQUAL, Ordering.GREATER


def tree_compare(t: FiniteTree, u: FiniteTree) -> Ordering:
    """The tree order: ``t`` is below ``u`` iff some witness ``w`` in ``u``
    has identical strictly-smaller parts in both trees yet is absent from
    ``t``.  That is, the smaller vertex at the first mismatch of the sorted
    vertex lists is the witness for the tree that owns it, and a list that
    is a prefix of the other belongs to the smaller tree.

    Comparing the trees' ``_key`` tuples gives the same answer:

    - Before the first mismatching vertices ``x`` (of ``t``) and ``y`` (of
      ``u``) the two keys are equal.
    - Neither of ``x``, ``y`` is a proper prefix of the other: if ``x`` were
      a prefix of ``y``, prefix-closure would put ``x`` in ``u`` before
      ``y``, so ``x`` would also appear earlier in ``t``'s list.
    - So the keys first differ at the first differing component of ``x`` and
      ``y``, and negation turns ``x < y`` into "``t`` is greater".
    - If one vertex list is a prefix of the other, its key is a prefix of the
      other key (every vertex past the shared root adds a component): LESS.

    No mark between vertices is needed, as the mismatch never falls past
    the end of ``x`` or ``y``.
    """
    a, b = t._key, u._key  # type: ignore[attr-defined]
    return _GREATER if a > b else (_LESS if a < b else _EQUAL)


def universe(b: int, h: int) -> list[Vertex]:
    """All vertices of ``[b]^{<=h}`` in lexicographic order."""
    out: list[Vertex] = []

    def rec(prefix: Vertex) -> None:
        out.append(prefix)
        if len(prefix) < h:
            for i in range(1, b + 1):
                rec(prefix + (i,))

    rec(ROOT)
    return out


def all_trees(b: int, h: int) -> Iterator[FiniteTree]:
    """Every rooted tree contained in ``[b]^{<=h}`` (prefix-closed subsets)."""

    def sub(level: int) -> Iterator[tuple[Vertex, ...]]:
        # All shapes of a subtree hanging below one vertex at this depth,
        # expressed as relative vertex tuples including the local root ().
        if level == h:
            yield (ROOT,)
            return
        child_opts: list[list[tuple[Vertex, ...]]] = []
        for i in range(1, b + 1):
            opts: list[tuple[Vertex, ...]] = [()]
            for shape in sub(level + 1):
                opts.append(tuple((i,) + v for v in shape))
            child_opts.append(opts)
        for combo in itertools.product(*child_opts):
            yield (ROOT,) + tuple(v for part in combo for v in part)

    for shape in sub(0):
        yield FiniteTree(shape)


def ordinal_embed(t: FiniteTree, b: int, h: int) -> int:
    """An order-reversing injection of the tree order into the naturals.

    The tree's characteristic word along the lexicographic sweep of
    ``[b-1]^{<=h}`` decides comparisons at its first differing position, so
    reading the complemented word as a base-``b`` numeral reverses the
    order.  The value stays below ``b**b**(h+1)``.
    """
    if t.height > h:
        raise ValueError(f"tree height {t.height} exceeds bound {h}")
    if any(i > b - 1 for v in t for i in v):
        raise ValueError(f"tree branching violates bound < {b}")
    member = set(t.vertices)
    value = 0
    for v in universe(b - 1, h):
        value = value * b + (0 if v in member else 1)
    return value


def is_nc_tree(t: FiniteTree, cfg: LogPower) -> bool:
    """Height at most ``cfg.C`` and branching at most ``cfg.cap``, plus
    left-sibling closure: the shape of the backtracking game's board tree."""
    if t.height > cfg.C:
        return False
    have = set(t.vertices)
    for v in t:
        if not v:
            continue
        if v[-1] > cfg.cap:
            return False
        if v[-1] > 1 and v[:-1] + (v[-1] - 1,) not in have:
            return False
    return True


class TreeOracle:
    """Membership view of a possibly huge board tree.

    The backtracking game only needs membership, leaf tests and child
    counts; explicit trees are wrapped, generated ones are described by a
    membership callable plus a height bound.
    """

    def __init__(
        self,
        member: Callable[[Vertex], bool],
        max_height: int,
    ) -> None:
        self._member = member
        self.max_height = max_height

    @staticmethod
    def explicit(t: FiniteTree) -> "TreeOracle":
        return TreeOracle(lambda v: v in t, t.height)

    def __contains__(self, v: Vertex) -> bool:
        return self._member(tuple(v))

    def is_leaf(self, v: Vertex) -> bool:
        if v not in self:
            raise KeyError(f"{v} not in tree")
        return len(v) >= self.max_height or (v + (1,)) not in self


def format_vertex(v: Vertex) -> str:
    return ".".join(str(i) for i in v) if v else "-"


def parse_vertex(text: str) -> Vertex:
    text = text.strip()
    if text == "-":
        return ROOT
    return tuple(int(p) for p in text.split("."))


def format_tree(t: FiniteTree) -> str:
    return "".join(format_vertex(v) + "\n" for v in t.vertices)


def parse_tree(lines: Iterable[str]) -> FiniteTree:
    """Read a tree file, one vertex per line.  A line that is not a vertex,
    or whose vertex has no parent in the file, is refused naming it."""
    at: dict[Vertex, int] = {}  # vertex -> its first line
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            v = parse_vertex(line)
        except ValueError as exc:
            raise ValueError(f"line {i}: bad vertex {line!r}") from exc
        if any(k < 1 for k in v):
            raise ValueError(f"line {i}: bad vertex {line!r}: child indices start at 1")
        at.setdefault(v, i)
    if not at:
        raise ValueError("empty tree file")
    for v, i in at.items():
        if v and v[:-1] not in at:
            raise ValueError(f"line {i}: {format_vertex(v)} has no parent {format_vertex(v[:-1])}")
    return FiniteTree(tuple(at))
