"""The backtracking pebble game on a bounded board tree.

Positions are partial labelings of the tree; every label carries a matching
and one auxiliary integer per level.  Prover either climbs above the
frontier (option 1), jumps to the next sibling of a vertex below it
(option 2), or backtracks, erasing the frontier subtree and growing the
rightmost surviving branch (option 3).  Each transition strictly increases
the position's domain in the tree order, which is what forces termination;
``g2_apply`` checks it on every transition.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

from pebblegames.matching import (
    GameSize,
    LogPower,
    Matching,
    Query,
    matchings_consistent,
    minimal_covers,
)
from pebblegames.trees import (
    FiniteTree,
    Ordering,
    TreeOracle,
    Vertex,
    format_vertex,
    is_prefix,
    tree_compare,
)


@dataclass(frozen=True)
class PositionLabel:
    """A matching plus one auxiliary integer per level of the vertex."""

    matching: Matching
    aux: tuple[int, ...]


@dataclass(frozen=True)
class G2Position:
    """A labeled tree: ``domain`` is the tree of the labeled vertices, and
    the frontier is its largest vertex."""

    labels: dict[Vertex, PositionLabel]
    domain: FiniteTree = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # FiniteTree refuses an empty or not downward closed domain.  Labels
        # grow along each root path; the prefix order is transitive, so each
        # vertex is checked against its parent only.
        object.__setattr__(self, "domain", FiniteTree(tuple(self.labels)))
        for v in self.domain:
            lab = self.labels[v]
            if len(lab.aux) != len(v):
                raise ValueError(f"aux length mismatch at {v}")
            if not v:
                continue
            up = self.labels[v[:-1]]
            if not set(up.matching.entries) <= set(lab.matching.entries):
                raise ValueError(f"labels not monotone between {v[:-1]} and {v}")
            if lab.aux[:-1] != up.aux:
                raise ValueError(f"aux not monotone between {v[:-1]} and {v}")

    @property
    def dom(self) -> tuple[Vertex, ...]:
        return self.domain.vertices

    @property
    def frontier(self) -> Vertex:
        return self.dom[-1]


def initial_position() -> G2Position:
    return G2Position({(): PositionLabel(Matching(), ())})


@dataclass(frozen=True)
class ProverMove:
    """Option plus its argument: a child index for option 1, a proper prefix
    of the frontier otherwise, and the remembered integer ``B``."""

    option: int
    x: Union[int, Vertex]
    b: int


class G2Tag(Enum):
    ONGOING = "ongoing"
    PROVER_WINS = "prover-wins"
    DELAYER_WINS = "delayer-wins"


@dataclass(frozen=True)
class G2StepResult:
    tag: G2Tag
    position: Optional[G2Position] = None


class MalformedMove(ValueError):
    pass


class ContractViolation(AssertionError):
    """Raised when a play breaks the growth guarantee or its step cap."""


def _validate_move(mv: ProverMove, frontier: Vertex, cfg: LogPower) -> None:
    if mv.option not in (1, 2, 3):
        raise MalformedMove(f"option {mv.option} not in 1..3")
    if not 1 <= mv.b <= cfg.cap:
        raise MalformedMove(f"B={mv.b} outside [1, {cfg.cap}]")
    if mv.option == 1:
        if not isinstance(mv.x, int) or not 1 <= mv.x <= cfg.cap:
            raise MalformedMove(f"option 1 needs a child index, got {mv.x!r}")
    else:
        x = mv.x
        if not isinstance(x, tuple) or x == frontier or not is_prefix(x, frontier):
            raise MalformedMove(f"option {mv.option} needs a proper prefix of {frontier}")


def _landing(
    pos: G2Position, mv: ProverMove, tree: TreeOracle
) -> Optional[tuple[Vertex, Vertex, Optional[Vertex]]]:
    """Where a shape-legal move lands: the new vertex, the vertex whose label
    it carries, and the root of the erased subtree (option 3 only); None
    when the landing is off the board, which is a Delayer win."""
    c = pos.frontier
    if mv.option == 1:
        target = c + (mv.x,)
        return (target, c, None) if target in tree else None
    x: Vertex = mv.x  # type: ignore[assignment]
    k = c[len(x)]
    if mv.option == 2:
        target = x + (k + 1,)
        return (target, x, None) if target in tree else None
    # Option 3: backtrack below the frontier and regrow to the right.
    back = x + (k - 1,)
    if k - 1 < 1 or back not in pos.labels:
        return None
    base = [v for v in pos.dom if is_prefix(back, v)][-1]
    if tree.is_leaf(base):
        return None
    return base + (1,), base, x + (k,)


def g2_apply(
    pos: G2Position,
    answer: Matching,
    mv: ProverMove,
    cfg: LogPower,
    tree: TreeOracle,
) -> G2StepResult:
    """Apply one Prover move after Delayer's answer.

    A landing off the board is a Delayer win, decided before the
    contradiction check, which compares the answer against the matching
    carried to the landing vertex.  An ongoing position that does not grow
    in the tree order breaks the termination argument and raises
    ``ContractViolation``.
    """
    _validate_move(mv, pos.frontier, cfg)
    landing = _landing(pos, mv, tree)
    if landing is None:
        return G2StepResult(G2Tag.DELAYER_WINS)
    target, source, cut = landing
    carried = pos.labels[source]
    if not matchings_consistent(carried.matching, answer):
        return G2StepResult(G2Tag.PROVER_WINS)
    new = {v: l for v, l in pos.labels.items() if cut is None or not is_prefix(cut, v)}
    new[target] = PositionLabel(carried.matching.union(answer), carried.aux + (mv.b,))
    nxt = G2Position(new)
    if tree_compare(pos.domain, nxt.domain) is not Ordering.LESS:
        raise ContractViolation(f"domain failed to grow: {pos.dom} -> {nxt.dom}")
    return G2StepResult(G2Tag.ONGOING, nxt)


# ---------------------------------------------------------------------------
# Strategies.


@dataclass(frozen=True)
class ObliviousStrategy:
    """Callbacks that only see the frontier vertex, its matching and aux.

    The engine enforces the restriction structurally: these callbacks are
    never handed the full position.
    """

    query: Callable[[Vertex, Matching, tuple[int, ...]], Query]
    move: Callable[[Vertex, Matching, tuple[int, ...], Matching], ProverMove]

    def on_positions(self) -> PositionStrategy:
        """The same strategy as position callbacks, which hand it only the
        frontier vertex, its matching and its aux."""

        def view(pos: G2Position) -> tuple[Vertex, Matching, tuple[int, ...]]:
            lab = pos.labels[pos.frontier]
            return pos.frontier, lab.matching, lab.aux

        return PositionStrategy(
            lambda pos: self.query(*view(pos)),
            lambda pos, answer: self.move(*view(pos), answer),
        )


@dataclass(frozen=True)
class PositionStrategy:
    """Unrestricted callbacks reading the whole position (the root-ramify
    construction needs to compare the frontier against other leaves)."""

    query: Callable[[G2Position], Query]
    move: Callable[[G2Position, Matching], ProverMove]

    def on_positions(self) -> PositionStrategy:
        return self


ProverStrategy = Union[ObliviousStrategy, PositionStrategy]
DelayerCallback = Callable[[G2Position, Query], Matching]


@functools.cache
def answer_options(q: Query, cfg: LogPower) -> tuple[Matching, ...]:
    """The minimal covers Delayer may answer ``q`` with, sorted by their
    records and built once per (query, cfg).  A query wider than
    ``cfg.width`` is refused here, before its covers are built; an empty
    list means Delayer cannot answer, which is a Prover win."""
    if len(q) > cfg.width:
        raise MalformedMove(f"query size {len(q)} exceeds width {cfg.width}")
    options = minimal_covers(q, GameSize(cfg.n))
    return tuple(sorted(options, key=lambda m: m.entries))


@dataclass(frozen=True)
class G2PlayResult:
    """A finished play: its winner, its step count, and each answered step
    as ``(query, answer, move, result)``.  A final step whose query has no
    cover is counted but has no entry."""

    winner: str
    steps: int
    moves: tuple[tuple[Query, Matching, ProverMove, G2StepResult], ...]


def format_transcript(cfg: LogPower, play: G2PlayResult) -> str:
    """The play as ``g2sim`` prints it: a header, then query, answer and move
    lines per answered step, then the winner."""
    lines = ["game g2", f"n {cfg.n}", f"C {cfg.C}"]
    for q, answer, mv, _ in play.moves:
        x = format_vertex(mv.x) if isinstance(mv.x, tuple) else str(mv.x)
        lines.append(f"query: {q}")
        lines.append("answer: " + " ".join(f"{r.pigeon},{r.hole}" for r in answer.entries))
        lines.append(f"move: o={mv.option} x={x} B={mv.b}")
    lines.append(f"winner: {play.winner}")
    return "\n".join(lines) + "\n"


def g2_play(
    cfg: LogPower,
    tree: TreeOracle,
    prover: ProverStrategy,
    delayer: DelayerCallback,
    step_cap: int,
) -> G2PlayResult:
    """Drive a full play; one still running after ``step_cap`` steps raises.

    A query with no minimal cover at all is a Prover win (Delayer cannot
    answer); answers are validated for shape but deliberately not for
    consistency, which only the landing check judges.
    """
    prover = prover.on_positions()
    pos = initial_position()
    moves = []
    for step in range(1, step_cap + 1):
        q = prover.query(pos)
        options = answer_options(q, cfg)
        if not options:
            tag = G2Tag.PROVER_WINS  # Delayer cannot answer
        else:
            answer = delayer(pos, q)
            if answer not in options:
                raise MalformedMove(f"{answer} is not a minimal cover of {q}")
            mv = prover.move(pos, answer)
            result = g2_apply(pos, answer, mv, cfg, tree)
            moves.append((q, answer, mv, result))
            tag = result.tag
        if tag is not G2Tag.ONGOING:
            winner = "prover" if tag is G2Tag.PROVER_WINS else "delayer"
            return G2PlayResult(winner, step, tuple(moves))
        pos = result.position
    raise ContractViolation(f"play exceeded step cap {step_cap}")


# ---------------------------------------------------------------------------
# The unrestricted Prover for the root-ramified board, winning at n = 2 and
# n = 3 (checked exhaustively); at n = 4 and 5 some Delayer branch beats it.


def root_ramify_tree(n: int) -> FiniteTree:
    """Root with ``n + 1`` children, each with a single grandchild."""
    vs: list[Vertex] = [()]
    for i in range(1, n + 2):
        vs.append((i,))
        vs.append((i, 1))
    return FiniteTree(tuple(vs))


def _candidate_moves(
    pos: G2Position, tree: TreeOracle
) -> list[tuple[ProverMove, Matching]]:
    """Shape-legal non-losing moves paired with the matching the answer
    will be checked against at the landing: option 1, then options 2 and 3
    at each cut of the frontier."""
    c = pos.frontier
    moves = [ProverMove(1, 1, 1)]
    for cut in range(len(c)):
        moves += [ProverMove(2, c[:cut], 1), ProverMove(3, c[:cut], 1)]
    out: list[tuple[ProverMove, Matching]] = []
    for mv in moves:
        landing = _landing(pos, mv, tree)
        if landing is not None:
            out.append((mv, pos.labels[landing[1]].matching))
    return out


def _kill_query(
    pos: G2Position, tree: TreeOracle, cfg: LogPower, size: GameSize
) -> Optional[Query]:
    """A query every minimal cover of which is refuted by some move."""
    candidates = _candidate_moves(pos, tree)
    if not candidates:
        return None
    pigeons = list(size.pigeons)
    queries = [Query.of([p]) for p in pigeons]
    if cfg.width >= 2:
        queries += [Query.of(pair) for pair in itertools.combinations(pigeons, 2)]
    for q in queries:
        covers_q = answer_options(q, cfg)
        if covers_q and all(
            any(not matchings_consistent(store, m) for _, store in candidates)
            for m in covers_q
        ):
            return q
    return None


def prover_root_ramify(n: int, cfg: LogPower) -> tuple[FiniteTree, PositionStrategy]:
    """The unrestricted Prover for the root-ramified board.

    Option 1 opens the first child, option 2 sweeps fresh pigeon questions
    along the root's children, and as soon as some query is guaranteed to
    clash with a reachable stored matching whatever the cover, that query is
    asked and the clash delivered by the refuting move.

    It wins every Delayer branch at n = 2 and n = 3, where
    ``exhaust_delayer`` checks it.  It is built for any n >= 2 but loses at
    n = 4 and 5: after the sweep, some answers leave it climbing off a leaf.
    """
    if n < 2 or cfg.C < 2:
        raise ValueError("the construction needs n >= 2 and C >= 2")
    if cfg.cap <= n:
        raise ValueError(f"branching cap {cfg.cap} must exceed n={n}")
    if cfg.n != n:
        raise ValueError("cfg board size mismatch")
    size = GameSize(n)
    tree_explicit = root_ramify_tree(n)
    tree = TreeOracle.explicit(tree_explicit)

    def query(pos: G2Position) -> Query:
        c = pos.frontier
        if c == ():
            return Query.of([0])
        kill = _kill_query(pos, tree, cfg, size)
        if kill is not None:
            return kill
        if len(c) == 1 and c[0] <= n:
            return Query.of([c[0]])  # sweep: child (m) asks pigeon m
        return Query.of([0])

    def move(pos: G2Position, answer: Matching) -> ProverMove:
        candidates = _candidate_moves(pos, tree)
        for mv, store in candidates:
            if not matchings_consistent(store, answer):
                return mv
        c = pos.frontier
        if c == ():
            return ProverMove(1, 1, 1)
        if len(c) == 1 and c[0] <= n and c[:0] + (c[0] + 1,) in tree:
            return ProverMove(2, (), 1)
        if candidates:
            for mv, _ in candidates:
                if mv.option == 2:
                    return mv
            return candidates[0][0]
        return ProverMove(1, 1, 1)  # no non-losing move: concede

    return tree_explicit, PositionStrategy(query, move)


# Deeper branches of the Delayer answer tree count as Prover losses.
EXHAUST_MAX_DEPTH = 60


def exhaust_delayer(
    cfg: LogPower, tree: TreeOracle, prover: ProverStrategy
) -> tuple[bool, int, int]:
    """Walk the full Delayer answer tree; returns (prover_always_wins,
    number of terminal branches, maximal depth seen)."""
    prover = prover.on_positions()
    branches = 0
    deepest = 0
    all_win = True

    def step(pos: G2Position, depth: int) -> None:
        nonlocal branches, deepest, all_win
        deepest = max(deepest, depth)
        if depth > EXHAUST_MAX_DEPTH:
            all_win = False
            branches += 1
            return
        options = answer_options(prover.query(pos), cfg)
        if not options:
            branches += 1  # unanswerable query: Prover wins
            return
        for answer in options:
            result = g2_apply(pos, answer, prover.move(pos, answer), cfg, tree)
            if result.tag is G2Tag.ONGOING:
                step(result.position, depth + 1)
            else:
                branches += 1
                all_win &= result.tag is G2Tag.PROVER_WINS

    step(initial_position(), 1)
    return all_win, branches, deepest


# ---------------------------------------------------------------------------
# Random playouts (fuzzing the monotonicity and determinacy claims).


def _hash_int(*parts: object) -> int:
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def random_nc_tree(C: int, seed: int) -> FiniteTree:
    """A random left-sibling-closed tree of height <= C in which each vertex
    has at most three children."""
    vs: list[Vertex] = [()]

    def grow(v: Vertex) -> None:
        if len(v) >= C:
            return
        width = _hash_int("w", seed, v) % 4
        for i in range(1, width + 1):
            child = v + (i,)
            vs.append(child)
            grow(child)

    grow(())
    return FiniteTree(tuple(vs))


# A random playout still running after this many steps is a counterexample
# to halting.
PLAYOUT_STEP_CAP = 50_000


def random_playout(cfg: LogPower, tree: TreeOracle, seed: int) -> G2PlayResult:
    """One play with hash-driven legal-ish Prover moves and Delayer answers."""
    size = GameSize(cfg.n)

    def query(pos: G2Position) -> Query:
        k = _hash_int("q", seed, pos.dom) % 3
        pigeons = sorted(size.pigeons)
        picks = [
            pigeons[_hash_int("qp", seed, pos.dom, i) % len(pigeons)] for i in range(k)
        ]
        return Query.of(picks)

    def move(pos: G2Position, answer: Matching) -> ProverMove:
        c = pos.frontier
        h = _hash_int("m", seed, pos.dom, answer.entries)
        # Mostly survivable moves so plays go deep; one raw move in the mix
        # keeps the losing branches of the rules exercised.
        choices = [mv for mv, _ in _candidate_moves(pos, tree)]
        raw: list[ProverMove] = [ProverMove(1, 1 + h % min(cfg.cap, 4), 1 + h % cfg.cap)]
        for cut in range(len(c)):
            raw.append(ProverMove(2, c[:cut], 1 + (h >> 3) % cfg.cap))
            raw.append(ProverMove(3, c[:cut], 1 + (h >> 5) % cfg.cap))
        pool = choices * 3 + raw
        return pool[h % len(pool)]

    def delayer(pos: G2Position, q: Query) -> Matching:
        options = answer_options(q, cfg)
        return options[_hash_int("d", seed, pos.dom, q) % len(options)]

    return g2_play(cfg, tree, PositionStrategy(query, move), delayer, PLAYOUT_STEP_CAP)
