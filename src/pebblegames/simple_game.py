"""The two-record game: strategies, plays, strategy graphs and win analysis.

Prover fixes a round count ``s`` and a table ``F`` mapping the single
retained record to the next question; the oldest record is always evicted.
Delayer's answers trace a walk in a labeled multigraph whose nodes are the
pigeons and whose edge ``(p, h)`` points at ``F(p, h)``.  Delayer wins at
length ``s`` exactly when some locally consistent walk of length ``s`` from
the initial node ends in an edge compatible with every earlier edge, which
is what both the brute-force oracle and the certificate decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from pebblegames.matching import GameSize, Record, records_conflict


class EdgeRef(NamedTuple):
    """An edge of the strategy graph: tail pigeon plus hole label."""

    tail: int
    label: int

    @property
    def record(self) -> Record:
        return Record(self.tail, self.label)


@dataclass(frozen=True)
class SimpleStrategy:
    """A round count, an initial question, and the total table ``F``.

    ``table[p][h]`` is the question asked after the retained record
    ``(p, h)``; it is defined on every pigeon/hole pair.
    """

    size: GameSize
    s: int
    init: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError("round count must be >= 1")
        pigeons = self.size.pigeons
        if self.init not in pigeons:
            raise ValueError(f"initial question {self.init} not a pigeon")
        if len(self.table) != len(pigeons):
            raise ValueError("table must have one row per pigeon")
        for row in self.table:
            if len(row) != self.size.n:
                raise ValueError("table rows must have one entry per hole")
            for v in row:
                if v not in pigeons:
                    raise ValueError(f"table value {v} not a pigeon")

    @property
    def n(self) -> int:
        return self.size.n

    def next_question(self, rec: Record) -> int:
        return self.table[rec.pigeon][rec.hole]

    def with_s(self, s: int) -> "SimpleStrategy":
        return SimpleStrategy(self.size, s, self.init, self.table)

    def edges(self) -> list[EdgeRef]:
        return [EdgeRef(p, h) for p in self.size.pigeons for h in self.size.holes]


def make_strategy(
    n: int,
    s: int,
    init: int,
    table: dict[tuple[int, int], int] | Sequence[Sequence[int]],
    pigeon_count: Optional[int] = None,
) -> SimpleStrategy:
    size = GameSize(n, pigeon_count)
    if isinstance(table, dict):
        rows = tuple(
            tuple(table[(p, h)] for h in size.holes) for p in size.pigeons
        )
    else:
        rows = tuple(tuple(row) for row in table)
    return SimpleStrategy(size, s, init, rows)


class PlayOutcome(Enum):
    PROVER_WINS_MIDGAME = "prover-midgame"
    PROVER_WINS_FINAL = "prover-final"
    DELAYER_WINS = "delayer"
    INCOMPLETE = "incomplete"


@dataclass(frozen=True)
class Play:
    """Delayer's answer sequence, at most ``s`` holes."""

    answers: tuple[int, ...]


@dataclass(frozen=True)
class PlayResult:
    outcome: PlayOutcome
    step: Optional[int]
    records: tuple[Record, ...]

    @property
    def prover_won(self) -> bool:
        return self.outcome in (
            PlayOutcome.PROVER_WINS_MIDGAME,
            PlayOutcome.PROVER_WINS_FINAL,
        )


def play_simplified(strat: SimpleStrategy, play: Play) -> PlayResult:
    """Simulate a play.

    A contradiction with the immediately preceding record ends the game at
    once (Delayer broke the two-in-a-row rule); the final record is
    additionally compared against the whole history.
    """
    if len(play.answers) > strat.s:
        raise ValueError(f"play longer than s={strat.s}")
    records: list[Record] = []
    question = strat.init
    for i, answer in enumerate(play.answers, start=1):
        if answer not in strat.size.holes:
            raise ValueError(f"answer {answer} not a hole")
        rec = Record(question, answer)
        if records and records_conflict(rec, records[-1]):
            records.append(rec)
            return PlayResult(PlayOutcome.PROVER_WINS_MIDGAME, i, tuple(records))
        records.append(rec)
        if i == strat.s:
            if any(records_conflict(rec, old) for old in records[:-1]):
                return PlayResult(PlayOutcome.PROVER_WINS_FINAL, i, tuple(records))
            return PlayResult(PlayOutcome.DELAYER_WINS, i, tuple(records))
        question = strat.next_question(rec)
    return PlayResult(PlayOutcome.INCOMPLETE, None, tuple(records))


def all_plays(strat: SimpleStrategy) -> Iterator[Play]:
    """Every answer sequence of length ``s`` (the exhaustive play space)."""

    def rec(prefix: tuple[int, ...]) -> Iterator[Play]:
        if len(prefix) == strat.s:
            yield Play(prefix)
            return
        for h in strat.size.holes:
            yield from rec(prefix + (h,))

    yield from rec(())


# ---------------------------------------------------------------------------
# The strategy graph view.


@dataclass(frozen=True)
class StrategyGraph:
    """Adjacency view of the strategy multigraph."""

    strat: SimpleStrategy

    @property
    def nodes(self) -> range:
        return self.strat.size.pigeons

    @property
    def initial(self) -> int:
        return self.strat.init

    def head(self, e: EdgeRef) -> int:
        return self.strat.table[e.tail][e.label]

    def out_edges(self, p: int) -> list[EdgeRef]:
        return [EdgeRef(p, h) for h in self.strat.size.holes]

    def edges(self) -> list[EdgeRef]:
        return self.strat.edges()

    def adjacency_lines(self) -> list[str]:
        lines = []
        for p in self.nodes:
            outs = " ".join(f"{h}->{self.head(EdgeRef(p, h))}" for h in self.strat.size.holes)
            mark = "*" if p == self.initial else " "
            lines.append(f"{mark}{p}: {outs}")
        return lines


def build_graph(strat: SimpleStrategy) -> StrategyGraph:
    return StrategyGraph(strat)


def edges_compatible(a: EdgeRef, b: EdgeRef) -> bool:
    """True iff the two records form a partial one-to-one mapping."""
    return not records_conflict(a.record, b.record)


@dataclass(frozen=True)
class PathFlags:
    is_path: bool
    locally_consistent: bool
    globally_consistent: bool
    last_edge_globally_consistent: bool


def path_consistency(strat: SimpleStrategy, path: Sequence[EdgeRef]) -> PathFlags:
    """The walk/consistency predicates for a candidate edge sequence."""
    graph = build_graph(strat)
    ok_walk = bool(path) and path[0].tail == strat.init
    for prev, nxt in zip(path, path[1:]):
        if graph.head(prev) != nxt.tail:
            ok_walk = False
            break
    local = all(edges_compatible(a, b) for a, b in zip(path, path[1:]))
    glob = all(
        edges_compatible(path[i], path[j])
        for i in range(len(path))
        for j in range(i + 1, len(path))
    )
    last = bool(path) and all(edges_compatible(e, path[-1]) for e in path[:-1])
    return PathFlags(ok_walk, local, glob, last)


def find_loops(strat: SimpleStrategy) -> frozenset[EdgeRef]:
    """Fixed points of the table: edges pointing back at their own tail."""
    return frozenset(
        EdgeRef(p, h)
        for p in strat.size.pigeons
        for h in strat.size.holes
        if strat.table[p][h] == p
    )


# ---------------------------------------------------------------------------
# Canonical anti-strategies.

HolePolicy = Callable[[Sequence[int]], int]


def smallest_unused_policy(unused: Sequence[int]) -> int:
    return unused[0]


@dataclass(frozen=True)
class CanonicalPlay:
    play: Play
    result: PlayResult
    gave_up: bool
    revisit_step: Optional[int]
    gave_up_step: Optional[int] = None


def canonical_antistrategy(
    strat: SimpleStrategy, hole_policy: HolePolicy = smallest_unused_policy
) -> CanonicalPlay:
    """The play where fresh questions get fresh holes and repeats repeat.

    When the fresh holes run out Delayer gives up and answers 0, as the
    construction prescribes.
    """
    first_answer: dict[int, int] = {}
    used: list[int] = []
    answers: list[int] = []
    question = strat.init
    gave_up_step: Optional[int] = None
    revisit: Optional[int] = None
    for i in range(1, strat.s + 1):
        if question in first_answer:
            if revisit is None:
                revisit = i
            h = first_answer[question]
        else:
            unused = [h for h in strat.size.holes if h not in used]
            if not unused:
                if gave_up_step is None:
                    gave_up_step = i
                h = 0
            else:
                h = hole_policy(unused)
                if h not in unused:
                    raise ValueError("hole policy picked a used hole")
            first_answer[question] = h
            used.append(h)
        answers.append(h)
        question = strat.next_question(Record(question, h))
    play = Play(tuple(answers))
    return CanonicalPlay(
        play, play_simplified(strat, play), gave_up_step is not None, revisit, gave_up_step
    )


def all_canonical_plays(strat: SimpleStrategy) -> Iterator[CanonicalPlay]:
    """Exhaust every canonical anti-strategy (all fresh-hole choices)."""

    def rec(
        question: int,
        first_answer: dict[int, int],
        used: tuple[int, ...],
        answers: tuple[int, ...],
        gave_up_step: Optional[int],
        revisit: Optional[int],
    ) -> Iterator[CanonicalPlay]:
        i = len(answers) + 1
        if i > strat.s:
            play = Play(answers)
            yield CanonicalPlay(
                play,
                play_simplified(strat, play),
                gave_up_step is not None,
                revisit,
                gave_up_step,
            )
            return
        if question in first_answer:
            h = first_answer[question]
            yield from rec(
                strat.next_question(Record(question, h)),
                first_answer,
                used,
                answers + (h,),
                gave_up_step,
                revisit if revisit is not None else i,
            )
            return
        unused = [h for h in strat.size.holes if h not in used]
        if not unused:
            h = 0
            yield from rec(
                strat.next_question(Record(question, h)),
                {**first_answer, question: h},
                used,
                answers + (h,),
                gave_up_step if gave_up_step is not None else i,
                revisit,
            )
            return
        for h in unused:
            yield from rec(
                strat.next_question(Record(question, h)),
                {**first_answer, question: h},
                used + (h,),
                answers + (h,),
                gave_up_step,
                revisit,
            )

    yield from rec(strat.init, {}, (), (), None, None)


# ---------------------------------------------------------------------------
# Deciding Delayer wins: brute-force oracle and periodicity certificate.


class SearchBudgetExceeded(RuntimeError):
    pass


def brute_force_delayer_wins(
    strat: SimpleStrategy, s: int, budget: int = 5_000_000
) -> bool:
    """Exhaustive DFS over answer sequences: does some locally consistent
    length-``s`` walk end in a globally consistent edge?

    Kept deliberately independent of the certificate machinery; this is the
    oracle the certificate is validated against.
    """
    if strat.size.n**s > budget:
        raise SearchBudgetExceeded(f"{strat.size.n}**{s} exceeds budget {budget}")
    holes = strat.size.holes
    table = strat.table

    def dfs(question: int, prev: Optional[EdgeRef], edges: tuple[EdgeRef, ...]) -> bool:
        depth = len(edges)
        if depth == s:
            last = edges[-1]
            return all(edges_compatible(e, last) for e in edges[:-1])
        for h in holes:
            e = EdgeRef(question, h)
            if prev is not None and not edges_compatible(prev, e):
                continue
            if dfs(table[question][h], e, edges + (e,)):
                return True
        return False

    return dfs(strat.init, None, ())


@dataclass(frozen=True)
class WinCertificate:
    """Winning lengths, explicitly up to ``s_max`` and periodically beyond.

    For ``s > preperiod`` the verdict is ``(s - preperiod - 1) % period in
    residues``; the explicit list covers at least ``[1, preperiod]`` so the
    two views overlap and can be cross-checked.
    """

    s_max: int
    explicit: frozenset[int]
    preperiod: int
    period: int
    residues: frozenset[int]

    def wins(self, s: int) -> bool:
        if s < 1:
            raise ValueError("lengths start at 1")
        if s <= self.s_max:
            return s in self.explicit
        return (s - self.preperiod - 1) % self.period in self.residues

    def wins_all(self) -> bool:
        return len(self.explicit) == self.s_max and len(self.residues) == self.period

    def check_overlap(self) -> bool:
        return all(
            (s in self.explicit) == ((s - self.preperiod - 1) % self.period in self.residues)
            for s in range(self.preperiod + 1, self.s_max + 1)
        )

    def summary(self) -> str:
        if self.wins_all():
            head = "all s >= 1 winning"
        else:
            wins = sorted(self.explicit)
            head = f"winning s <= {self.s_max}: {wins if wins else 'none'}"
        return (
            f"{head}; tail: preperiod={self.preperiod} period={self.period} "
            f"residues={sorted(self.residues)}"
        )


def _edge_index(n: int, e: EdgeRef) -> int:
    return e.tail * n + e.label


def compatibility_masks(size: GameSize) -> list[int]:
    """Bitmask per edge of all edges compatible with it (board-level data)."""
    n = size.n
    edges = [EdgeRef(p, h) for p in size.pigeons for h in size.holes]
    masks = []
    for e in edges:
        m = 0
        for f in edges:
            if edges_compatible(e, f):
                m |= 1 << _edge_index(n, f)
        masks.append(m)
    return masks


def delayer_wins_lengths(strat: SimpleStrategy, s_max: int = 64) -> WinCertificate:
    """Decide the winning lengths for every ``s >= 1``.

    A length-``s`` witness ending with edge ``(p, h)`` exists iff a walk of
    ``s - 1`` steps over the edges compatible with ``(p, h)`` reaches the
    tail ``p``; per candidate the reachable-edge set evolves by a fixed
    union-homomorphic map over a finite lattice, so its orbit is eventually
    periodic and the full quantifier closes.
    """
    size = strat.size
    n = size.n
    num_edges = len(size.pigeons) * n
    compat = compatibility_masks(size)
    heads = [strat.table[e // n][e % n] for e in range(num_edges)]
    out_mask = [0] * len(size.pigeons)
    for e in range(num_edges):
        out_mask[e // n] |= 1 << e
    trans = [out_mask[heads[e]] & compat[e] for e in range(num_edges)]
    start = out_mask[strat.init]

    # win_seqs[c] = (mu, lam, values): hit-flags per time step, eventually
    # periodic with the candidate's orbit.
    candidates = []
    for c in range(num_edges):
        allowed = compat[c]
        target = 0
        p = c // n
        for e in range(num_edges):
            if heads[e] == p:
                target |= 1 << e
        r = start & allowed
        seen: dict[int, int] = {}
        hits: list[bool] = []  # hits[t] corresponds to win at s = t + 2
        t = 0
        while r not in seen:
            seen[r] = t
            hits.append(bool(r & target))
            nxt = 0
            m = r
            while m:
                e = (m & -m).bit_length() - 1
                nxt |= trans[e]
                m &= m - 1
            r = nxt & allowed
            t += 1
        mu = seen[r]
        lam = t - mu
        candidates.append((mu, lam, hits))

    # Combine: win(1) is always true (a single edge is vacuously globally
    # consistent); win(s) for s >= 2 is the OR over candidates at t = s - 2.
    preperiod = max(mu for mu, _, _ in candidates) + 1
    period = 1
    for _, lam, _ in candidates:
        period = period * lam // math.gcd(period, lam)

    def win_at(s: int) -> bool:
        if s == 1:
            return True
        t = s - 2
        for mu, lam, hits in candidates:
            idx = t if t < len(hits) else mu + (t - mu) % lam
            if hits[idx]:
                return True
        return False

    # The explicit region always covers the preperiod so the periodic
    # formula is only ever consulted on the tail it is valid for.
    s_hi = max(s_max, preperiod)
    hi = max(s_hi, preperiod + period)
    explicit_all = {s for s in range(1, hi + 1) if win_at(s)}
    residues = frozenset(
        (s - preperiod - 1) % period
        for s in range(preperiod + 1, preperiod + period + 1)
        if s in explicit_all
    )
    cert = WinCertificate(
        s_max=s_hi,
        explicit=frozenset(s for s in explicit_all if s <= s_hi),
        preperiod=preperiod,
        period=period,
        residues=residues,
    )
    if not cert.check_overlap():
        raise AssertionError("certificate overlap check failed")
    return cert


# ---------------------------------------------------------------------------
# Prover's winning strategies for the small and subset-labeled boards.


def prover_small_n(n: int, s: int) -> SimpleStrategy:
    """The winning table for one or two holes: ask 0, then 1, then 2 forever."""
    if n not in (1, 2):
        raise ValueError("only boards with n <= 2 are Prover-won")
    if s < n + 1:
        raise ValueError(f"need s >= {n + 1}")
    if n == 1:
        table = {(0, 0): 1, (1, 0): 0}
        return make_strategy(1, s, 0, table)
    table = {}
    for h in range(2):
        table[(0, h)] = 1
        table[(1, h)] = 2
        table[(2, h)] = 2
    return make_strategy(2, s, 0, table)


def subset_prover(n: int) -> SimpleStrategy:
    """The ``2**n``-pigeon table: pigeons are hole subsets as bitmasks.

    Start at the empty set; a record ``(S, h)`` re-asks ``S`` when ``h`` is
    already inside it and otherwise asks ``S | {h}``.
    """
    if n < 1:
        raise ValueError("n >= 1")
    size = GameSize(n, pigeon_count=2**n)
    rows = []
    for mask in range(2**n):
        rows.append(
            tuple(mask if (mask >> h) & 1 else mask | (1 << h) for h in range(n))
        )
    return SimpleStrategy(size, n + 1, 0, tuple(rows))


# ---------------------------------------------------------------------------
# Cover-by-two path specifications (figure certificates).


@dataclass(frozen=True)
class PathSpec:
    """A finite edge prefix plus an optional repeating cycle, with the
    spec's own red (not globally consistent) edge set."""

    prefix: tuple[EdgeRef, ...]
    cycle: tuple[EdgeRef, ...]
    red: frozenset[EdgeRef] = frozenset()

    def __post_init__(self) -> None:
        if not self.prefix and not self.cycle:
            raise ValueError("empty path spec")
        # Heads are implied by successor tails, so the only structural
        # requirement is that each edge always has the same successor (the
        # head is a function of the edge in a real strategy graph).
        seq = list(self.prefix) + list(self.cycle)
        if self.cycle:
            seq.append(self.cycle[0])
        succ: dict[EdgeRef, int] = {}
        for a, b in zip(seq, seq[1:]):
            if a in succ and succ[a] != b.tail:
                raise ValueError(f"edge {a} has two successors; cycle breaks the walk")
            succ[a] = b.tail
        bad = self.red - set(self.prefix) - set(self.cycle)
        if bad:
            raise ValueError(f"red edges not on the path: {sorted(bad)}")

    def unroll(self, s: int) -> tuple[EdgeRef, ...]:
        if s <= len(self.prefix):
            return self.prefix[:s]
        if not self.cycle:
            raise ValueError(f"finite path of length {len(self.prefix)} cannot reach {s}")
        out = list(self.prefix)
        i = 0
        while len(out) < s:
            out.append(self.cycle[i % len(self.cycle)])
            i += 1
        return tuple(out)


def _locally_consistent(walk: Sequence[EdgeRef]) -> bool:
    return all(edges_compatible(a, b) for a, b in zip(walk, walk[1:]))


def _last_globally_consistent(walk: Sequence[EdgeRef]) -> bool:
    last = walk[-1]
    return all(edges_compatible(e, last) for e in walk[:-1])


def check_cover_by_two(
    spec_a: PathSpec,
    spec_b: Optional[PathSpec],
    threshold: int,
    horizon: int,
) -> bool:
    """Machine-check a cover-by-two figure (or a single covering path).

    For every length in ``[threshold, threshold + horizon]`` the unrollings
    must be locally consistent, at least one must end in a non-red edge, and
    the red marking must equal recomputed last-edge global consistency.
    """
    specs = [spec_a] if spec_b is None else [spec_a, spec_b]
    for s in range(threshold, threshold + horizon + 1):
        covered = False
        for spec in specs:
            walk = spec.unroll(s)
            if len(walk) < s or not _locally_consistent(walk):
                return False
            good = _last_globally_consistent(walk)
            if good != (walk[-1] not in spec.red):
                return False  # color coding disagrees with recomputation
            covered = covered or good
        if not covered:
            return False
    return True


# ---------------------------------------------------------------------------
# Strategy and play file formats.


def format_strategy(strat: SimpleStrategy) -> str:
    lines = [
        "game simple",
        f"n {strat.size.n}",
        f"s {strat.s}",
        f"init {strat.init}",
    ]
    if strat.size.pigeon_count is not None:
        lines.insert(2, f"pigeons {strat.size.pigeon_count}")
    for p in strat.size.pigeons:
        for h in strat.size.holes:
            lines.append(f"map {p} {h} -> {strat.table[p][h]}")
    return "\n".join(lines) + "\n"


class StrategyParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_strategy(text: str) -> SimpleStrategy:
    n = s = init = pigeon_count = None
    cells: dict[tuple[int, int], int] = {}
    saw_game = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key == "game":
                if parts[1:] != ["simple"]:
                    raise StrategyParseError(line_no, f"unsupported game {line!r}")
                saw_game = True
            elif key == "n":
                n = int(parts[1])
            elif key == "s":
                s = int(parts[1])
            elif key == "init":
                init = int(parts[1])
            elif key == "pigeons":
                pigeon_count = int(parts[1])
            elif key == "map":
                if len(parts) != 5 or parts[3] != "->":
                    raise StrategyParseError(line_no, f"bad map line {line!r}")
                cells[(int(parts[1]), int(parts[2]))] = int(parts[4])
            else:
                raise StrategyParseError(line_no, f"unknown key {key!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, StrategyParseError):
                raise
            raise StrategyParseError(line_no, f"cannot parse {line!r}") from exc
    if not saw_game:
        raise StrategyParseError(1, "missing 'game simple' header")
    if n is None or s is None or init is None:
        raise StrategyParseError(1, "missing n, s or init")
    size = GameSize(n, pigeon_count)
    expected = len(size.pigeons) * n
    if len(cells) != expected:
        raise StrategyParseError(1, f"expected {expected} map lines, got {len(cells)}")
    return make_strategy(n, s, init, cells, pigeon_count)


def parse_play(text: str) -> Play:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "answers":
            raise StrategyParseError(line_no, f"expected 'answers ...', got {line!r}")
        return Play(tuple(int(p) for p in parts[1:]))
    raise StrategyParseError(1, "empty play file")
