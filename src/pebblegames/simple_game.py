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

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence

from pebblegames.matching import GameSize, Record, records_conflict


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

    def next_question(self, rec: Record) -> int:
        return self.table[rec.pigeon][rec.hole]

    def with_s(self, s: int) -> "SimpleStrategy":
        return SimpleStrategy(self.size, s, self.init, self.table)

    def edges(self) -> list[Record]:
        """The edges of the strategy graph: edge ``(p, h)`` is the record
        ``p -> h``, leaving node ``p`` for node ``F(p, h)``."""
        return [Record(p, h) for p in self.size.pigeons for h in self.size.holes]


def make_strategy(
    n: int,
    s: int,
    init: int,
    table: dict[tuple[int, int], int],
    pigeon_count: Optional[int] = None,
) -> SimpleStrategy:
    size = GameSize(n, pigeon_count)
    rows = tuple(tuple(table[(p, h)] for h in size.holes) for p in size.pigeons)
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


def won_lengths(strat: SimpleStrategy, play: Play) -> frozenset[int]:
    """The lengths ``s`` at which the first ``s`` answers of ``play`` are a
    Delayer win of the game with round count ``s``, from one walk.

    The rules are ``play_simplified``'s: the walk stops at the first record
    that contradicts the one before it, and length ``i`` is won when record
    ``i`` contradicts no earlier record.  An answer the walk reaches that
    is not a hole raises ``ValueError``.  Copies of one record contradict
    the same records, so each record is tested against the distinct
    earlier ones only.
    """
    won = set()
    earlier: set[Record] = set()
    prev = None
    question = strat.init
    for i, answer in enumerate(play.answers, start=1):
        if answer not in strat.size.holes:
            raise ValueError(f"answer {answer} not a hole")
        rec = Record(question, answer)
        if prev is not None and records_conflict(rec, prev):
            break
        if not any(records_conflict(rec, old) for old in earlier):
            won.add(i)
        earlier.add(rec)
        prev = rec
        question = strat.next_question(rec)
    return frozenset(won)


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


def adjacency_lines(strat: SimpleStrategy) -> list[str]:
    """One line per pigeon, ``*`` marking the initial one: ``p: h->head ...``."""
    lines = []
    for p in strat.size.pigeons:
        outs = " ".join(f"{h}->{strat.table[p][h]}" for h in strat.size.holes)
        mark = "*" if p == strat.init else " "
        lines.append(f"{mark}{p}: {outs}")
    return lines


@dataclass(frozen=True)
class PathFlags:
    is_path: bool
    locally_consistent: bool
    globally_consistent: bool
    last_edge_globally_consistent: bool


def path_consistency(strat: SimpleStrategy, path: Sequence[Record]) -> PathFlags:
    """The walk/consistency predicates for a candidate edge sequence."""
    ok_walk = bool(path) and path[0].pigeon == strat.init
    for prev, nxt in zip(path, path[1:]):
        if strat.next_question(prev) != nxt.pigeon:
            ok_walk = False
            break
    local = _locally_consistent(path)
    glob = all(
        not records_conflict(path[i], path[j])
        for i in range(len(path))
        for j in range(i + 1, len(path))
    )
    last = bool(path) and _last_globally_consistent(path)
    return PathFlags(ok_walk, local, glob, last)


def find_loops(strat: SimpleStrategy) -> frozenset[Record]:
    """Fixed points of the table: edges pointing back at their own tail."""
    return frozenset(e for e in strat.edges() if strat.next_question(e) == e.pigeon)


# ---------------------------------------------------------------------------
# Canonical anti-strategies.

@dataclass(frozen=True)
class CanonicalPlay:
    """One canonical play, with the round at which Delayer gave up (None
    when it never did)."""

    play: Play
    gave_up_step: Optional[int]


def all_canonical_plays(strat: SimpleStrategy) -> Iterator[CanonicalPlay]:
    """Exhaust every canonical anti-strategy, trying fresh holes in
    ascending order: the first play gives each fresh question the smallest
    fresh hole.  Once the fresh holes run out Delayer gives up and answers
    0, as the construction prescribes."""

    def rec(
        question: int,
        first_answer: dict[int, int],
        used: tuple[int, ...],
        answers: tuple[int, ...],
        gave_up_step: Optional[int],
    ) -> Iterator[CanonicalPlay]:
        # A question asked before takes its first answer again.
        while question in first_answer and len(answers) < strat.s:
            h = first_answer[question]
            answers += (h,)
            question = strat.next_question(Record(question, h))
        i = len(answers) + 1
        if i > strat.s:
            yield CanonicalPlay(Play(answers), gave_up_step)
            return
        fresh = [(h, used + (h,)) for h in strat.size.holes if h not in used]
        if not fresh and gave_up_step is None:
            gave_up_step = i
        for h, now_used in fresh or [(0, used)]:
            yield from rec(
                strat.next_question(Record(question, h)),
                {**first_answer, question: h},
                now_used,
                answers + (h,),
                gave_up_step,
            )

    yield from rec(strat.init, {}, (), (), None)


# ---------------------------------------------------------------------------
# Deciding Delayer wins: brute-force oracle and periodicity certificate.


class SearchBudgetExceeded(RuntimeError):
    pass


# brute_force_delayer_wins refuses a search over more answer sequences.
DFS_BUDGET = 5_000_000


def brute_force_delayer_wins(strat: SimpleStrategy, s_max: int) -> frozenset[int]:
    """The lengths ``1..s_max`` Delayer wins, by one exhaustive DFS over
    answer sequences.

    Length ``s`` is won iff some locally consistent length-``s`` walk ends
    in an edge compatible with every earlier edge.  Every prefix of a
    locally consistent walk is one too, so each node at depth ``d`` of the
    search decides length ``d``, and the search descends only while some
    longer length is undecided.  Raises ``SearchBudgetExceeded`` when
    ``n**s_max`` exceeds ``DFS_BUDGET``.

    Kept deliberately independent of the certificate machinery (it tests
    compatibility on plain pairs, never through the certificate's masks);
    this is the oracle the certificate is validated against.
    """
    if s_max < 1:
        raise ValueError("lengths start at 1")
    if strat.size.n**s_max > DFS_BUDGET:
        raise SearchBudgetExceeded(f"{strat.size.n}**{s_max} exceeds budget {DFS_BUDGET}")
    holes = strat.size.holes
    table = strat.table
    won = [False] * (s_max + 1)  # won[0] stays False: the stop for `top`
    top = s_max  # the longest length not yet won; 0 once all are
    walk: list[tuple[int, int]] = []

    def dfs(p: int) -> None:
        nonlocal top
        depth = len(walk) + 1
        for h in holes:
            if top < depth:
                return
            if walk:
                q, k = walk[-1]
                if (p == q) != (h == k):
                    continue
            if not won[depth] and all((p == q) == (h == k) for q, k in walk):
                won[depth] = True
                while won[top]:
                    top -= 1
            if depth < top:
                walk.append((p, h))
                dfs(table[p][h])
                walk.pop()

    dfs(strat.init)
    return frozenset(s for s in range(1, s_max + 1) if won[s])


@dataclass(frozen=True)
class WinCertificate:
    """The winning lengths for every ``s >= 1``, as the hits of the joint
    orbit up to its first repeated state.

    Length 1 is always won (one edge has no earlier edge to contradict),
    and hit ``t`` decides length ``t + 2``.  The hits from index ``mu`` on
    are one period of the cycle, which repeats forever, so they decide every
    longer length.  ``s_max`` only bounds the lengths that ``summary`` lists.
    """

    s_max: int
    hits: tuple[bool, ...]
    mu: int

    @property
    def preperiod(self) -> int:
        return self.mu + 1

    @property
    def period(self) -> int:
        return len(self.hits) - self.mu

    def wins(self, s: int) -> bool:
        if s < 1:
            raise ValueError("lengths start at 1")
        t = s - 2
        if t >= len(self.hits):
            t = self.mu + (t - self.mu) % self.period
        return t < 0 or self.hits[t]

    def wins_all(self) -> bool:
        return all(self.hits)

    def summary(self) -> str:
        if self.wins_all():
            head = "all s >= 1 winning"
        else:
            s_hi = max(self.s_max, self.preperiod)
            wins = [s for s in range(1, s_hi + 1) if self.wins(s)]
            head = f"winning s <= {s_hi}: {wins}"
        residues = [i for i, hit in enumerate(self.hits[self.mu :]) if hit]
        return (
            f"{head}; tail: preperiod={self.preperiod} period={self.period} "
            f"residues={residues}"
        )


@functools.cache
def compatibility_masks(size: GameSize) -> tuple[int, ...]:
    """Bitmask per edge of all edges compatible with it.

    This is board-level data: it is built once per ``GameSize``, cached, and
    the same tuple is shared by every certificate on that board.
    """
    edges = [Record(p, h) for p in size.pigeons for h in size.holes]
    return tuple(
        sum(1 << i for i, f in enumerate(edges) if not records_conflict(e, f))
        for e in edges
    )


@functools.cache
def _joint_masks(size: GameSize) -> tuple[int, int, tuple[int, ...]]:
    """Board-level masks of the joint orbit, in which candidate edge ``c``
    owns bits ``[E c, E c + E)``: bit ``E c`` of every candidate, each
    candidate's compatibility mask in its own field, and per pigeon ``p``
    bit ``E c`` of the candidates with tail ``p``.  A value ``m`` below
    ``2**E`` times one of the bit masks puts ``m`` into each field it
    marks."""
    n = size.n
    num_edges = len(size.pigeons) * n
    compat = compatibility_masks(size)
    tail_ones = [0] * len(size.pigeons)
    for c in range(num_edges):
        tail_ones[c // n] |= 1 << (num_edges * c)
    allowed = sum(m << (num_edges * c) for c, m in enumerate(compat))
    return sum(tail_ones), allowed, tuple(tail_ones)


def delayer_wins_lengths(strat: SimpleStrategy, s_max: int = 64) -> WinCertificate:
    """Decide the winning lengths for every ``s >= 1``.

    A length-``s`` witness ending with edge ``(p, h)`` exists iff a walk of
    ``s - 1`` steps over the edges compatible with ``(p, h)`` reaches the
    tail ``p``; per candidate the reachable-edge set evolves by a fixed
    union-homomorphic map over a finite lattice, so its orbit is eventually
    periodic and the full quantifier closes.

    The candidates are iterated as one joint orbit: candidate ``c``'s set
    sits in bits ``[E c, E c + E)`` of one integer, and a step moves every
    set at once.  The joint state first repeats once every candidate's set has
    entered its cycle and all of them are back in phase, so its preperiod is
    the largest candidate preperiod and its period the least common multiple
    of the candidate periods.  A hit is a state in which the walk of some
    candidate has reached that candidate's tail.  The hits up to the first
    repeated state are the certificate; ``s_max`` only bounds the lengths
    its summary lists.
    """
    size = strat.size
    n = size.n
    num_edges = len(size.pigeons) * n
    compat = compatibility_masks(size)
    heads = [strat.table[e // n][e % n] for e in range(num_edges)]
    out_mask = [0] * len(size.pigeons)
    in_mask = [0] * len(size.pigeons)
    for e in range(num_edges):
        out_mask[e // n] |= 1 << e
        in_mask[heads[e]] |= 1 << e
    trans = [out_mask[heads[e]] & compat[e] for e in range(num_edges)]
    ones, allowed, tail_ones = _joint_masks(size)
    target = sum(m * tail_ones[p] for p, m in enumerate(in_mask))
    r = out_mask[strat.init] * ones & allowed
    seen: dict[int, int] = {}
    hits: list[bool] = []  # hits[t] decides length t + 2
    while r not in seen:
        seen[r] = len(hits)
        hits.append(bool(r & target))
        nxt = 0
        for e, succ in enumerate(trans):
            # Bit E c + e of r, moved to bit E c, times e's successors: no
            # carries, since each product stays inside its E-bit field.
            nxt |= ((r >> e) & ones) * succ
        r = nxt & allowed
    return WinCertificate(s_max, tuple(hits), seen[r])


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

    prefix: tuple[Record, ...]
    cycle: tuple[Record, ...]
    red: frozenset[Record] = frozenset()

    def __post_init__(self) -> None:
        if not self.prefix and not self.cycle:
            raise ValueError("empty path spec")
        # Heads are implied by successor tails, so the only structural
        # requirement is that each edge always has the same successor (the
        # head is a function of the edge in a real strategy graph).
        seq = list(self.prefix) + list(self.cycle)
        if self.cycle:
            seq.append(self.cycle[0])
        succ: dict[Record, int] = {}
        for a, b in zip(seq, seq[1:]):
            if a in succ and succ[a] != b.pigeon:
                raise ValueError(f"edge {a} has two successors; cycle breaks the walk")
            succ[a] = b.pigeon
        bad = self.red - set(self.prefix) - set(self.cycle)
        if bad:
            raise ValueError(f"red edges not on the path: {sorted(bad)}")

    def unroll(self, s: int) -> tuple[Record, ...]:
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


def _locally_consistent(walk: Sequence[Record]) -> bool:
    return all(not records_conflict(a, b) for a, b in zip(walk, walk[1:]))


def _last_globally_consistent(walk: Sequence[Record]) -> bool:
    last = walk[-1]
    return all(not records_conflict(e, last) for e in walk[:-1])


def check_cover_by_two(specs: Sequence[PathSpec], threshold: int, horizon: int) -> bool:
    """Machine-check a cover-by-two figure (or a single covering path).

    For every length in ``[threshold, threshold + horizon]`` the unrollings
    must be locally consistent, at least one must end in a non-red edge, and
    the red marking must equal recomputed last-edge global consistency.
    """
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


class ParseError(ValueError):
    """A line of a strategy, play or cover file that cannot be read."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def file_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """The number, stripped text and words of each line of a file that is
    neither blank nor a comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line, line.split()


def read_header(
    header: dict[str, tuple], line_no: int, line: str, convert: Callable[[str], object] = int
) -> None:
    """Store ``header[key] = (value, line_no)`` from a header line
    ``key value``.  A key takes exactly one value and appears once; any
    other line is refused naming it."""
    key, *values = line.split()
    if len(values) != 1:
        raise ParseError(line_no, f"cannot parse {line!r}: {key!r} takes one value")
    if key in header:
        raise ParseError(line_no, f"{key!r} already given on line {header[key][1]}")
    header[key] = (convert(values[0]), line_no)


def parse_strategy(text: str) -> SimpleStrategy:
    """Read a strategy file.  Each header key takes one value on one line,
    and each board cell exactly one ``map`` line: a repeated key or cell, one
    off the board or a value that is not a pigeon is refused naming its
    line, as is a header value the board cannot take."""
    header: dict[str, tuple] = {}  # key -> (value, line)
    cells: dict[tuple[int, int], tuple[int, int]] = {}  # cell -> (value, line)
    for line_no, line, parts in file_lines(text):
        key = parts[0]
        try:
            if key == "game":
                read_header(header, line_no, line, str)
                if header[key][0] != "simple":
                    raise ParseError(line_no, f"unsupported game {line!r}")
            elif key in ("n", "s", "init", "pigeons"):
                read_header(header, line_no, line)
            elif key == "map":
                if len(parts) != 5 or parts[3] != "->":
                    raise ParseError(line_no, f"bad map line {line!r}")
                cell = (int(parts[1]), int(parts[2]))
                if cell in cells:
                    raise ParseError(line_no, f"cell {cell} already mapped")
                cells[cell] = (int(parts[4]), line_no)
            else:
                raise ParseError(line_no, f"unknown key {key!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(line_no, f"cannot parse {line!r}") from exc
    if "game" not in header:
        raise ParseError(1, "missing 'game simple' header")
    if not {"n", "s", "init"} <= header.keys():
        raise ParseError(1, "missing n, s or init")
    (n, n_line), (s, s_line), (init, init_line) = (header[k] for k in ("n", "s", "init"))
    pigeon_count, pigeons_line = header.get("pigeons", (None, None))
    if n < 1:
        raise ParseError(n_line, f"need at least one hole, got n={n}")
    if s < 1:
        raise ParseError(s_line, f"round count must be >= 1, got s={s}")
    if pigeon_count is not None and pigeon_count < n + 1:
        raise ParseError(pigeons_line, f"pigeon override {pigeon_count} must be >= n+1")
    size = GameSize(n, pigeon_count)
    if init not in size.pigeons:
        raise ParseError(init_line, f"initial question {init} not a pigeon")
    for (p, h), (v, line_no) in cells.items():
        if p not in size.pigeons or h not in size.holes:
            raise ParseError(line_no, f"cell {(p, h)} is off the board")
        if v not in size.pigeons:
            raise ParseError(line_no, f"table value {v} not a pigeon")
    expected = len(size.pigeons) * n
    if len(cells) != expected:
        raise ParseError(1, f"expected {expected} map lines, got {len(cells)}")
    return make_strategy(n, s, init, {c: v for c, (v, _) in cells.items()}, pigeon_count)


def parse_play(text: str) -> Play:
    """Read a play file: one ``answers`` line.  A line that cannot be read,
    or any line after it, is refused naming its line."""
    play = None
    for line_no, line, parts in file_lines(text):
        if play is not None:
            raise ParseError(line_no, f"a play has one 'answers' line, got {line!r}")
        if parts[0] != "answers":
            raise ParseError(line_no, f"expected 'answers ...', got {line!r}")
        try:
            play = Play(tuple(int(p) for p in parts[1:]))
        except ValueError as exc:
            raise ParseError(line_no, f"cannot parse {line!r}") from exc
    if play is None:
        raise ParseError(1, "empty play file")
    return play
