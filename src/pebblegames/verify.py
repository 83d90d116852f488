"""Exhaustive and randomized verification campaigns.

The headline campaign sweeps every strategy table of the simplified game at
a given board size, or a seeded sample of them drawn without replacement,
and proves each one Delayer-won for every round count.  The sweep is
vectorized over strategy batches held in bit-planes: one ``uint64`` word
carries one fact for 64 tables, with bit ``i`` of word ``w`` standing for
table ``64 w + i``.  A batch's indices are split into base-(n+1) digits a
``uint32`` limb at a time, and the digits into one plane per (edge, head
pigeon) and one per initial pigeon; each candidate's reachable edge set is
one plane per (candidate, edge) slot that the candidate allows.  A hit test
is one gather, one AND and one OR-reduction over the planes.  A step is the
same, except that the table planes it reads are gathered once per set of
planes and ANDed in place into the gathered state.  Both are driven by index
tables that ``board_tables`` builds once per board and caches.  A table
leaves the batch at its first failing length, at a hit of an absorbing loop
candidate (the fast path), or at the first repeat of its state (Brent
anchors at steps 1, 2, 4, ...), which closes every longer length; there is
no explicit range of lengths.  Most tables leave at the first step, which
runs over blocks of at most 2^14 tables, so only the tables that stay are
decoded for the rest of the walk.  After that a leaving table gets its
verdict at once, but its column stays in the planes, masked off, until an
anchor where at least half of the columns have left; only there is the
batch compacted.  A hash-selected 1% of the tables is held back from the
fast path and certified by the repeat alone as a cross-check.  Exhaustive and
sampled sweeps take the same route: one worker per batch, one checkpoint
file (whose first line names the run, so that a mismatched resume is
refused), one counterexample writer and one process pool.

One engine serves both batch sweeps.  ``certify_batch`` (the headline
sweep) walks the edges compatible with each candidate; ``_loop_bound_planes``
(criterion 10's sweep: ``verify_loop_bound`` calls it per aligned block
through ``_loop_bound_block``, and the tests' ``loop_bound_batch`` on decoded
planes) walks the same planes without the candidate edge itself, and tests
hits twice per table: once on the union of the sets within the bound,
once on the union's fixpoint (the step and the hit test distribute over OR).
The headline sweep runs 2^18-table jobs, because each job pays the per-step
cost of its longest repeat tail once.  The loop bound walks a few steps per
table, so it sweeps aligned blocks of at most 2^14 tables (the block size of
a job's first step), whose temporaries stay in L2, and decodes none of
them: a block of ``(n+1)^k`` tables that starts at a multiple of its size
shares its low ``k`` digits with block 0 and has constant higher digits, so
its planes are block 0's, decoded once per sweep, with one row per nonzero
high digit moved.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from pebblegames.matching import GameSize, LogPower, Matching, Query
from pebblegames.simple_game import (
    PlayOutcome,
    SimpleStrategy,
    WinCertificate,
    all_canonical_plays,
    all_plays,
    brute_force_delayer_wins,
    delayer_wins_lengths,
    format_strategy,
    make_strategy,
    play_simplified,
    prover_small_n,
    subset_prover,
    won_lengths,
)
from pebblegames import g2 as g2mod
from pebblegames import g2prime as g2p
from pebblegames import php_tree as phpmod
from pebblegames import trees as treemod
from pebblegames.figures import FIGURE_NAMES, load_figure

# The seed of the oracle gate, and of the seeded claims run without --seed.
SEED = 20240901


@dataclass
class CampaignReport:
    claim: str
    space: int
    counterexamples: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def line(self, seconds: float) -> str:
        return (
            f"claim={self.claim} space={self.space} "
            f"counterexamples={len(self.counterexamples)} seconds={seconds:.3f}"
        )


# ---------------------------------------------------------------------------
# Strategy enumeration.


def strategy_space(n: int) -> int:
    pigeons = n + 1
    return pigeons ** (pigeons * n + 1)


def index_to_strategy(index: int, n: int, s: int = 1) -> SimpleStrategy:
    pigeons = n + 1
    init = index % pigeons
    index //= pigeons
    rows = []
    for _p in range(pigeons):
        row = []
        for _h in range(n):
            row.append(index % pigeons)
            index //= pigeons
        rows.append(tuple(row))
    return SimpleStrategy(GameSize(n), s, init, tuple(rows))


def _relabel(strat: SimpleStrategy, pp: Sequence[int], hp: Sequence[int]) -> SimpleStrategy:
    """``strat`` with pigeon ``p`` renamed ``pp[p]`` and hole ``h`` renamed
    ``hp[h]``."""
    n = strat.size.n
    rows = [[0] * n for _ in strat.table]
    for p, row in enumerate(strat.table):
        for h, q in enumerate(row):
            rows[pp[p]][hp[h]] = pp[q]
    return SimpleStrategy(strat.size, strat.s, pp[strat.init], tuple(map(tuple, rows)))


# ---------------------------------------------------------------------------
# The vectorized certificate engine.  A plane is one bit per table of a
# batch: a table plane holds a fact of each table ("edge e points at pigeon
# q"), a state plane one slot of each table's state ("candidate c has reached
# edge f").  Bit i of word w is table 64 w + i.


@dataclass
class Walk:
    """Index tables of one walk rule.  The state keeps one plane per slot, a
    (candidate c, edge f) pair that the rule allows, in candidate order with
    the same number of slots per candidate.  Table planes are indexed as in
    ``_table_planes``.  The step and hit tables are term-major: their first
    axis runs over the terms that one slot ORs together, so that each kernel
    gathers whole state rows and reduces over axis 0, a few long ORs however
    narrow the batch is."""

    slot_tail: np.ndarray  # (S,) tail pigeon of the slot's edge: its initial plane
    hit_plane: np.ndarray  # (S / E, E) table plane of "the slot's edge points at c's tail"
    step_src: np.ndarray  # (g, S) slot (c, e) of each term of slot (c, f)
    step_plane: np.ndarray  # (g, S) table plane of "e points at f's tail"

    def step(self, state: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """One walk step of every candidate's edge set: slot (c, f) is set
        when some edge e in c's set points at f's tail and f may follow e.
        ``terms`` is ``tables[self.step_plane]``, gathered once per set of
        table planes."""
        gathered = np.take(state, self.step_src, axis=0)
        gathered &= terms
        return np.bitwise_or.reduce(gathered, axis=0)

    def hits(self, state: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """(E, W) planes: candidate c's set holds an edge pointing at c's tail."""
        per_cand, num_cands = self.hit_plane.shape
        gathered = tables[self.hit_plane]
        gathered &= state.reshape(num_cands, per_cand, state.shape[1]).transpose(1, 0, 2)
        return np.bitwise_or.reduce(gathered, axis=0)


def _walk(n: int, compat: np.ndarray, allowed: np.ndarray) -> Walk:
    """The index tables of the walk in which candidate c keeps the edges f
    with ``allowed[c, f]``; edge f may follow edge e when f leaves e's head
    and ``compat[e, f]``."""
    pigeons = n + 1
    num_edges = len(compat)
    tail = np.arange(num_edges) // n
    cand, edge = np.nonzero(allowed)  # the slots, in candidate order
    slot_of = np.zeros((num_edges, num_edges), dtype=np.intp)
    slot_of[cand, edge] = np.arange(len(cand))
    # Slot (c, f) ORs the terms "slot (c, e) and e points at f's tail" over
    # the edges e that c allows and f may follow.  Every slot gets the same
    # number of terms, padded with the all-zero table plane, so that a step
    # reduces one regular array (np.bitwise_or.reduceat over ragged groups is
    # an order of magnitude slower).
    real = (allowed[cand] & compat[edge]).T  # (E, S): may edge e be a term of slot s
    width = real.sum(axis=0).max(initial=0)
    e = np.argsort(~real, axis=0, kind="stable")[:width]  # real terms first
    real = np.take_along_axis(real, e, axis=0)
    return Walk(
        slot_tail=tail[edge],
        hit_plane=(edge * pigeons + tail[cand]).reshape(num_edges, -1).T.copy(),
        step_src=np.where(real, slot_of[cand, e], 0),
        step_plane=np.where(real, e * pigeons + tail[edge], num_edges * pigeons),
    )


@dataclass
class BoardTables:
    """Strategy-independent index tables for one board size."""

    n: int
    certify: Walk  # candidate c walks the edges compatible with c
    loop: Walk  # the same without c itself, which carries the loop hole
    loop_plane: np.ndarray  # (E,) table plane of "candidate c is a loop"


@functools.cache
def board_tables(n: int) -> BoardTables:
    """The index tables of board ``n``.  They are built once per board,
    cached, and shared by every batch on that board, so their arrays are
    read-only."""
    pigeons = n + 1
    num_edges = pigeons * n
    e = np.arange(num_edges)
    compat = (e[:, None] // n == e // n) == (e[:, None] % n == e % n)
    bt = BoardTables(
        n,
        certify=_walk(n, compat, compat),
        loop=_walk(n, compat, compat & ~np.eye(num_edges, dtype=bool)),
        loop_plane=e * pigeons + e // n,
    )
    walks = (*vars(bt.certify).values(), *vars(bt.loop).values())
    for array in (bt.loop_plane, *walks):
        array.flags.writeable = False
    return bt


def decode_batch(indices: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Base-(n+1) digits of the strategy indices: init (B,) plus table heads
    (B, E).

    The digits are taken a ``uint32`` limb at a time, each limb holding as
    many digits as fit in it: one limb at n <= 3, two at n = 4.  A limb costs
    one ``uint64`` floor-divide (none for the last one); its digits then come
    from ``uint32`` floor-divides and multiply-subtracts, written in place,
    which is several times faster than ``np.divmod`` on ``uint64``."""
    base = n + 1
    digits = np.empty((base * n + 1, len(indices)), dtype=np.uint8)
    per_limb = 1
    while base ** (per_limb + 1) <= 1 << 32:
        per_limb += 1
    rest = indices
    limb, quot, prod = (np.empty(len(indices), dtype=np.uint32) for _ in range(3))
    for lo in range(0, len(digits), per_limb):
        if lo + per_limb < len(digits):
            radix = np.uint64(base**per_limb)
            rest = np.asarray(rest, dtype=np.uint64)
            high = rest // radix
            np.subtract(rest, high * radix, out=limb, casting="unsafe")
            rest = high
        else:
            np.copyto(limb, rest, casting="unsafe")
        for row in digits[lo : lo + per_limb]:
            np.floor_divide(limb, base, out=quot)
            np.multiply(quot, base, out=prod)
            np.subtract(limb, prod, out=prod)
            row[:] = prod
            limb, quot = quot, limb
    return digits[0], digits[1:].T


def _pack(bits: np.ndarray) -> np.ndarray:
    """(rows, b) booleans to (rows, ceil(b / 64)) planes; the padding is 0."""
    rows, b = bits.shape
    packed = np.zeros((rows, -(-b // 64) * 8), dtype=np.uint8)
    packed[:, : -(-b // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(np.uint64)


def _unpack(planes: np.ndarray, b: int) -> np.ndarray:
    """The first ``b`` tables of each plane, as booleans."""
    return np.unpackbits(planes.view(np.uint8), axis=-1, count=b, bitorder="little").view(bool)


def _repack(planes: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The planes of the tables set in ``keep``, one flag per packed table."""
    return _pack(np.compress(keep, _unpack(planes, len(keep)), axis=-1))


def _table_planes(indices: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The planes of a batch: ``init`` (P, W) holds "the first question is
    pigeon p"; ``tables`` (E * P + 1, W) holds "edge e points at pigeon q" at
    row ``e * P + q``, and zeros in its last row.  Padding tables are in no
    plane."""
    init, heads = decode_batch(indices, n)
    pigeons = np.arange(n + 1, dtype=np.uint8)[:, None]
    num_digits = heads.shape[1] + 1
    bits = np.zeros((num_digits * (n + 1) + 1, len(indices)), dtype=bool)
    rows = bits[:-1].reshape(num_digits, n + 1, len(indices))
    np.equal(init, pigeons, out=rows[0])
    np.equal(heads.T[:, None, :], pigeons, out=rows[1:])
    planes = _pack(bits)
    return planes[: n + 1], planes[n + 1 :]


@dataclass
class BatchResult:
    wins_all: np.ndarray  # every s is Delayer-won and the tail is certified
    fast_path: np.ndarray  # left at a hit of an absorbing loop candidate
    first_fail: np.ndarray  # failing length, 0 when none
    uncertified: np.ndarray  # never saw a state repeat (soundness guard)


# Steps after which a table whose state has not repeated is reported
# uncertified rather than iterated further.
T_LIMIT = 4200
# The sweep holds table ``i`` back from the fast path, to cross-check it by
# the repeat alone, when ``i * HOLD_BACK_MULTIPLIER % HOLD_BACK_MODULUS`` is 0:
# about one table in HOLD_BACK_MODULUS.
HOLD_BACK_MULTIPLIER = 2654435761
HOLD_BACK_MODULUS = 100
# Tables per block, at most, of the loop bound and of certify_batch's first
# step.  The temporaries of a 2^14-table block peak near 1.5 MB at n = 3, so
# they stay in a 2 MB L2; 2^18-table blocks spent more on cache misses and
# fresh pages (about 10,000 minor faults per 2^20 tables) than on the walk
# itself.
TABLE_BLOCK = 1 << 14
# Tables per job of verify_theorem_main; the checkpoint header names it.
BATCH_SIZE = 1 << 18


def certify_batch(
    indices: np.ndarray,
    bt: BoardTables,
    sample_mask: Optional[np.ndarray] = None,
) -> BatchResult:
    """Decide wins-for-all-s for a batch of strategy indices.

    Per final-edge candidate the reachable-edge set is iterated; a length
    ``s >= 2`` is winning iff some candidate's set at time ``s - 1`` contains
    an edge whose head is the candidate tail.  At every step one rule decides
    which tables leave: a table leaves at its first failing length; while
    every length so far has won, it leaves at a hit of a loop candidate
    (absorbing, so every longer length stays winning) or when its full
    per-candidate state equals the anchor state, taken at t = 1, 2, 4, ...
    (Brent), so that the orbit repeats from there.  Rows set in
    ``sample_mask`` are held back from the loop exit and certified by the
    repeat alone.

    Most tables leave at t = 1, so that step runs over blocks of
    ``TABLE_BLOCK`` tables, and only the tables that stay are decoded into
    the planes of the loop.  A leaving table's column stays in the planes
    under the ``live`` mask.  At an anchor where at least half of the
    columns have left, the planes are compacted and the packed state is the
    new anchor, so the planes are decoded at most once per anchor, each time
    with at most half of the tables of the decode before.
    """
    B = len(indices)
    walk = bt.certify
    held = np.zeros(B, dtype=bool) if sample_mask is None else np.asarray(sample_mask, dtype=bool)

    first_fail = np.zeros(B, dtype=np.int64)
    wins_all = np.zeros(B, dtype=bool)
    fast_path = np.zeros(B, dtype=bool)
    # t = 1: the state is the initial one.
    won = np.empty(B, dtype=bool)
    looped = np.empty(B, dtype=bool)
    for lo in range(0, B, TABLE_BLOCK):
        hi = min(lo + TABLE_BLOCK, B)
        init, tables = _table_planes(indices[lo:hi], bt.n)
        hits = walk.hits(init[walk.slot_tail], tables)
        won[lo:hi] = _unpack(np.bitwise_or.reduce(hits, axis=0), hi - lo)
        hits &= tables[bt.loop_plane]
        looped[lo:hi] = _unpack(np.bitwise_or.reduce(hits, axis=0), hi - lo)
    first_fail[~won] = 2
    looped &= won & ~held
    fast_path[looped] = True
    wins_all[looped] = True

    active = np.flatnonzero(won & ~looped)  # the tables in the planes
    init, tables = _table_planes(indices[active], bt.n)
    terms, loops, held_in = tables[walk.step_plane], tables[bt.loop_plane], held[active]
    rr = anchor = init[walk.slot_tail]  # one plane per state slot
    live = np.ones(len(active), dtype=bool)  # the tables in the planes that have not left
    for t in range(2, T_LIMIT + 1):
        if not live.any():
            break
        rr = walk.step(rr, terms)
        b = len(active)
        hits = walk.hits(rr, tables)  # (E, W) candidate wins at s = t + 1
        won = _unpack(np.bitwise_or.reduce(hits, axis=0), b)
        hits &= loops
        looped = _unpack(np.bitwise_or.reduce(hits, axis=0), b)
        first_fail[active[live & ~won]] = t + 1
        live &= won
        looped &= live & ~held_in
        fast_path[active[looped]] = True
        wins_all[active[looped]] = True
        live &= ~looped
        if t & (t - 1):
            # A state equal to the anchor repeats every hit seen since.
            moved = _unpack(np.bitwise_or.reduce(rr ^ anchor, axis=0), b)
            wins_all[active[live & ~moved]] = True
            live &= moved
        elif 2 * np.count_nonzero(live) <= b:
            # A Brent anchor where at least half of the columns have left:
            # they are packed out here.
            active = active[live]
            _, tables = _table_planes(indices[active], bt.n)
            terms, loops, held_in = tables[walk.step_plane], tables[bt.loop_plane], held[active]
            rr = anchor = _repack(rr, live)
            live = np.ones(len(active), dtype=bool)
        else:
            # A repack and re-decode cost 3 to 5 steps at n = 4 and 6 to 17
            # at n = 3; until half of the columns have left, the anchor
            # keeps them all.
            anchor = rr

    uncertified = np.zeros(B, dtype=bool)
    uncertified[active[live]] = True
    return BatchResult(wins_all, fast_path, first_fail, uncertified)


def _dfs_mismatch(strat: SimpleStrategy, cert: WinCertificate, s_hi: int) -> Optional[int]:
    """The first length up to ``s_hi`` at which the certificate ``cert`` of
    ``strat`` and the DFS oracle disagree, or None."""
    dfs = brute_force_delayer_wins(strat, s_hi)
    for s in range(1, s_hi + 1):
        if cert.wins(s) != (s in dfs):
            return s
    return None


def _oracle_gate(n: int) -> None:
    """Refuse to run the big sweep until the certificate matches the DFS
    oracle up to length 6 and the vectorized engine matches the certificate,
    on 150 distinct seeded tables."""
    rng = np.random.default_rng(SEED)
    space = strategy_space(n)
    idxs = rng.choice(space, min(150, space), replace=False)
    certs = []
    for idx in idxs:
        strat = index_to_strategy(int(idx), n)
        cert = delayer_wins_lengths(strat)
        s = _dfs_mismatch(strat, cert, 6)
        if s is not None:
            raise AssertionError(f"oracle gate: certificate mismatch at index {idx}, s={s}")
        certs.append(cert)
    res = certify_batch(idxs, board_tables(n), sample_mask=np.ones(len(idxs), dtype=bool))
    for row, (idx, cert) in enumerate(zip(idxs, certs)):
        if bool(res.wins_all[row]) != cert.wins_all():
            raise AssertionError(f"oracle gate: engine mismatch at index {idx}")


class CheckpointMismatch(Exception):
    """A checkpoint file written by another run, or in another format."""


def _read_checkpoint(path: Path, header: str) -> dict[tuple[int, int], tuple]:
    """The finished batches recorded in ``path``: ``(lo, hi)`` maps to the
    batch's counterexamples, fast-path count and cross-check count, from a
    line ``batch lo hi fast checked ce...``.

    The file opens with ``header``, which names the run it belongs to; any
    other first line is refused.  A last line without its newline is a write
    cut short, so it is cut from the file and its batch runs again.
    """
    text = path.read_text() if path.exists() else ""
    whole = text[: text.rfind("\n") + 1]
    lines = whole.splitlines()
    if not lines:
        path.write_text(header + "\n")
        return {}
    if lines[0] != header:
        raise CheckpointMismatch(f"{path} starts {lines[0]!r}, this run writes {header!r}")
    done = {}
    for number, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) < 5 or parts[0] != "batch" or not all(x.isdigit() for x in parts[1:]):
            raise CheckpointMismatch(f"{path} line {number} is not a batch record: {line!r}")
        lo, hi, fast, checked, *batch_ces = map(int, parts[1:])
        done[(lo, hi)] = (batch_ces, fast, checked)
    if whole != text:
        path.write_text(whole)
    return done


def _certify_job(job: tuple) -> tuple[int, int, list[int], int, int]:
    """Worker: certify the batch ``idxs``, or the index range [lo, hi) when
    ``idxs`` is None; returns the batch's counterexamples, its fast-path
    count and its cross-check count."""
    lo, hi, idxs, n = job
    if idxs is None:
        idxs = np.arange(lo, hi, dtype=np.uint64)
    # The held-back tables skip the fast path, so they cross-check it through
    # the repeat certificate (a disagreement is a counterexample).
    crosscheck = (idxs * np.uint64(HOLD_BACK_MULTIPLIER) % np.uint64(HOLD_BACK_MODULUS)) == 0
    res = certify_batch(idxs, board_tables(n), sample_mask=crosscheck)
    ces = [int(i) for i in idxs[~res.wins_all]]
    return lo, hi, ces, int(res.fast_path.sum()), int(crosscheck.sum())


def verify_theorem_main(
    n: int = 3,
    threads: int = 1,
    checkpoint: Optional[Path] = None,
    ce_dir: Optional[Path] = None,
    progress: bool = False,
    sample: Optional[int] = None,
    seed: int = SEED,
) -> CampaignReport:
    """Every strategy must be Delayer-won for all lengths.

    The sweep covers every index, or with ``sample`` that many distinct
    seeded indices; either way it runs batch by batch through the same worker,
    checkpoint and counterexample writer.  Expected outcome: zero
    counterexamples at three or more holes; at two holes Prover-winning
    tables exist and are reported.  Boards beyond three holes are too large
    to sweep and require ``sample``.
    """
    if n > 3 and sample is None:
        raise ValueError("full sweeps stop at n=3; pass sample= for larger boards")
    # The header names every input a batch's verdict depends on.
    header = (
        f"theorem-main checkpoint n={n} batch_size={BATCH_SIZE} t_limit={T_LIMIT} "
        f"hold_back={HOLD_BACK_MULTIPLIER}%{HOLD_BACK_MODULUS}"
    )
    if sample is None:
        picks = None
        total = strategy_space(n)
    else:
        if sample > strategy_space(n):
            raise ValueError(f"sample={sample} exceeds the {strategy_space(n)} tables at n={n}")
        rng = np.random.default_rng(seed)
        picks = rng.choice(strategy_space(n), size=sample, replace=False, shuffle=False)
        # Sorted in place and read as uint64 (every index is below 2^63): a
        # sorted copy and a cast copy added two sample-sized arrays, and the
        # sweep's peak RSS then hung on where the heap put them.
        picks.sort()
        picks = picks.view(np.uint64)
        total = sample
        header += f" sample={sample} seed={seed}"
    done = _read_checkpoint(Path(checkpoint), header) if checkpoint else {}
    _oracle_gate(n)

    ces: list[int] = []
    fast_count = 0
    crosschecks = 0

    def note_batch(start: int, stop: int, batch_ces: list[int], fast: int, checked: int) -> None:
        nonlocal fast_count, crosschecks
        ces.extend(batch_ces)
        fast_count += fast
        crosschecks += checked
        if (start, stop) in done:
            return
        if checkpoint:
            with open(checkpoint, "a") as fh:
                fields = [start, stop, fast, checked, *batch_ces]
                fh.write("batch " + " ".join(map(str, fields)) + "\n")
        if progress:
            pct = 100.0 * stop / total
            print(f"  [{pct:5.1f}%] indices {stop}/{total} fast={fast_count}", flush=True)

    jobs = []
    for start in range(0, total, BATCH_SIZE):
        stop = min(start + BATCH_SIZE, total)
        if (start, stop) in done:
            note_batch(start, stop, *done[(start, stop)])
        else:
            idxs = None if picks is None else picks[start:stop]
            jobs.append((start, stop, idxs, n))

    if threads <= 1:
        for job in jobs:
            note_batch(*_certify_job(job))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            for result in pool.map(_certify_job, jobs, chunksize=1):
                note_batch(*result)

    serialized = []
    for idx in sorted(ces):
        serialized.append(format_strategy(index_to_strategy(idx, n)))
        if ce_dir:
            Path(ce_dir).mkdir(parents=True, exist_ok=True)
            (Path(ce_dir) / f"strategy-{idx}.strat").write_text(serialized[-1])
    return CampaignReport(
        claim=f"theorem-main-n{n}" if picks is None else f"theorem-main-n{n}-sampled",
        space=total,
        counterexamples=serialized,
        details={"fast_path": fast_count, "sampled_crosschecks": crosschecks},
    )


def loop_bound_batch(indices: np.ndarray, bt: BoardTables) -> np.ndarray:
    """The tables of a batch that break the loop bound: some loop edge's
    tail is reachable, but not within ``2(n-2)+1`` steps of the start."""
    return _unpack(_loop_bound_planes(*_table_planes(indices, bt.n), bt), len(indices))


def _loop_bound_planes(init: np.ndarray, tables: np.ndarray, bt: BoardTables) -> np.ndarray:
    """The (W,) plane of the tables that break the loop bound, from the
    planes of ``_table_planes``.  The step and the hit test both distribute
    over OR, so the union of the sets reached in 0..K-1 steps is hit exactly
    when one of them is: a block makes one hit test within the bound and one
    at the fixpoint of the union, which decides reachability-ever."""
    walk = bt.loop
    K = 2 * (bt.n - 2) + 1
    terms = tables[walk.step_plane]
    union = init[walk.slot_tail]
    for _ in range(K - 1):
        union |= walk.step(union, terms)
    hit_by_k = walk.hits(union, tables)
    while True:
        grown = walk.step(union, terms)
        grown |= union
        if (grown == union).all():
            break
        union = grown
    # A loop whose tail is the start is reached at once and breaks no bound.
    # It needs no mask: no slot of candidate c holds an edge leaving c's own
    # tail, so such a candidate keeps an empty set and is never hit.
    violation = tables[bt.loop_plane] & walk.hits(union, tables) & ~hit_by_k
    return np.bitwise_or.reduce(violation, axis=0)


# The loop-bound sweep reports progress once per this many tables.
_PROGRESS_EVERY = 1 << 18


class _AlignedBlocks:
    """The planes of the aligned blocks of one board's index space.

    A block holds ``size`` consecutive indices, the largest power
    ``(n+1)^k`` of the base that is at most ``TABLE_BLOCK`` (capped at
    the whole space), and block ``j`` starts at ``j * size``.  Its digits
    below ``k``, the initial pigeon among them, run through block 0's
    pattern, and each higher digit ``d`` is the constant ``q_d``, digit
    ``d - k`` of ``j``.  Block 0 is decoded once; in it row ``(d, 0)`` is the
    plane of the valid tables, so block ``j``'s planes are block 0's with
    that row moved to ``(d, q_d)``.  Every block is written into one buffer,
    which the next call overwrites."""

    def __init__(self, n: int) -> None:
        self.n = n
        digits = (n + 1) * n + 1
        self.k = 1
        while self.k < digits and (n + 1) ** (self.k + 1) <= TABLE_BLOCK:
            self.k += 1
        self.size = (n + 1) ** self.k
        self.init, self._pattern = _table_planes(np.arange(self.size, dtype=np.uint64), n)
        self._tables = np.empty_like(self._pattern)

    def planes(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """``init`` and ``tables`` of block ``j``, as ``_table_planes`` gives
        them for ``np.arange(j * size, (j + 1) * size)``."""
        np.copyto(self._tables, self._pattern)
        pigeons = self.n + 1
        edge = self.k - 1  # table digit d >= 1 is edge d - 1
        while j:
            j, q = divmod(j, pigeons)
            if q:
                self._tables[edge * pigeons + q] = self._tables[edge * pigeons]
                self._tables[edge * pigeons] = 0
            edge += 1
        return self.init, self._tables


def _loop_bound_block(blocks: _AlignedBlocks, bt: BoardTables, start: int, stop: int) -> np.ndarray:
    """The indices in ``[start, stop)`` that break the loop bound, where
    ``start`` begins an aligned block and ``stop`` lies in it.  The block is
    walked whole and only its first ``stop - start`` rows are read."""
    init, tables = blocks.planes(start // blocks.size)
    return np.flatnonzero(_unpack(_loop_bound_planes(init, tables, bt), stop - start)) + start


def verify_loop_bound(
    n: int = 3,
    progress: bool = False,
    limit: Optional[int] = None,
) -> CampaignReport:
    """Shortest qualifying path to any reachable loop has length at most
    ``2(n-2)+1``, exhaustively over every strategy table.

    ``limit`` truncates the sweep to the first ``limit`` indices for unit
    tests; the campaign runs full.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit={limit} is negative")
    bt = board_tables(n)
    total = strategy_space(n) if limit is None else min(strategy_space(n), limit)
    blocks = _AlignedBlocks(n)
    bad: list[str] = []
    for start in range(0, total, blocks.size):
        stop = min(start + blocks.size, total)
        for idx in _loop_bound_block(blocks, bt, start, stop):
            bad.append(format_strategy(index_to_strategy(int(idx), n)))
        if progress and (stop // _PROGRESS_EVERY > start // _PROGRESS_EVERY or stop == total):
            print(f"  loop bound {stop}/{total}", flush=True)
    return CampaignReport(
        claim=f"loop-bound-n{n}",
        space=total,
        counterexamples=bad,
    )


# ---------------------------------------------------------------------------
# Small exhaustive campaigns.


def _lost_plays(strat: SimpleStrategy) -> tuple[int, list[tuple[int, ...]]]:
    """The number of plays of ``strat``, and the answers of each play that
    Prover does not win."""
    plays, lost = 0, []
    for play in all_plays(strat):
        plays += 1
        if not play_simplified(strat, play).prover_won:
            lost.append(play.answers)
    return plays, lost


def verify_small_n(n: int) -> CampaignReport:
    """Prover's small-board strategy wins every play, exhaustively: at
    s = 2 on one hole, at s = 3 and 6 on two."""
    bad = []
    space = 0
    for s in (2,) if n == 1 else (3, 6):
        plays, lost = _lost_plays(prover_small_n(n, s))
        space += plays
        bad.extend(f"n={n} s={s} answers={answers}" for answers in lost)
    return CampaignReport(
        claim=f"small-n-{n}",
        space=space,
        counterexamples=bad,
    )


def verify_subset_prop(n: int) -> CampaignReport:
    """The subset-labeled Prover wins all plays; lowering the round count to
    the hole count must re-open Delayer wins (negative control)."""
    if n > 4:
        raise ValueError("answer space grows as n**(n+1); keep n <= 4")
    strat = subset_prover(n)
    space, lost = _lost_plays(strat)
    bad = [f"answers={answers}" for answers in lost]
    lowered = strat.with_s(n)
    delayer_can_win = any(
        play_simplified(lowered, play).outcome is PlayOutcome.DELAYER_WINS
        for play in all_plays(lowered)
    )
    if not delayer_can_win:
        bad.append("negative control failed: no Delayer win at s=n")
    return CampaignReport(
        claim=f"subset-n{n}",
        space=space,
        counterexamples=bad,
        details={"plays": space},
    )


# A failing claim lists at most this many counterexamples.
_MAX_COUNTEREXAMPLES = 32
# A sampled campaign draws no further sample once it holds more
# counterexamples than this.
_ENOUGH_COUNTEREXAMPLES = 8
# Triples are checked this many at a time, which bounds the temporaries.
_TRIPLE_CHUNK = 1 << 16
# verify_order_axioms checks every triple of trees when there are at most
# this many, and a seeded draw of this many otherwise.
_TRIPLE_BUDGET = 1_000_000


def _note_failures(
    bad: list[str], checks: Sequence[tuple[str, np.ndarray]], labels: Optional[np.ndarray] = None
) -> None:
    """Append one message per failed check until ``bad`` holds
    ``_MAX_COUNTEREXAMPLES``.  The checks are (format, failure mask) pairs
    over one index grid.  Positions are visited in row-major order, and the
    checks in their order within a position.  A message is formatted with
    the position's indices, or with ``labels[position]`` when given."""
    if len(bad) >= _MAX_COUNTEREXAMPLES:
        return
    failed = np.logical_or.reduce([mask for _, mask in checks])
    for where in np.argwhere(failed)[: _MAX_COUNTEREXAMPLES - len(bad)]:
        at = tuple(where)
        label = at if labels is None else labels[at]
        bad.extend(fmt.format(*label) for fmt, mask in checks if mask[at])


def _triple_chunks(m: int, seed: int) -> Iterator[np.ndarray]:
    """The triples of indices below ``m`` to check, as (rows, 3) chunks: all
    of them in ``itertools.product`` order when there are at most
    ``_TRIPLE_BUDGET``, else the seeded draw ``integers(0, m,
    (_TRIPLE_BUDGET, 3))``, taken a chunk of rows at a time (which draws the
    same rows)."""
    if m**3 <= _TRIPLE_BUDGET:
        for lo in range(0, m**3, _TRIPLE_CHUNK):
            flat = np.arange(lo, min(lo + _TRIPLE_CHUNK, m**3))
            yield np.stack(np.unravel_index(flat, (m, m, m)), axis=1)
    else:
        rng = np.random.default_rng(seed)
        for lo in range(0, _TRIPLE_BUDGET, _TRIPLE_CHUNK):
            yield rng.integers(0, m, size=(min(_TRIPLE_CHUNK, _TRIPLE_BUDGET - lo), 3))


def verify_order_axioms(b: int, h: int, seed: int = SEED) -> CampaignReport:
    """Antisymmetry, transitivity and trichotomy of the tree order plus
    strict order reversal of the ordinal embedding.

    Every ordered pair of trees is compared once with ``tree_compare``; the
    axioms are then checked as array operations on the matrix of results."""
    ts = list(treemod.all_trees(b, h))
    m = len(ts)
    bad: list[str] = []
    cmp = np.empty((m, m), dtype=np.int8)
    # One call per ordered pair, never a sort: a sort would assume the
    # antisymmetry and transitivity checked here.  The name is looked up
    # through ``treemod`` once per campaign, so a substituted one is used.
    compare = treemod.tree_compare
    for row, t in enumerate(ts):
        # ``_value_`` is the member's plain attribute; the ``value``
        # property would cost more than the comparison itself.
        cmp[row] = [compare(t, u)._value_ for u in ts]
    order = treemod.Ordering
    lt, gt = cmp == order.LESS.value, cmp == order.GREATER.value
    same = np.eye(m, dtype=bool)
    _note_failures(bad, [
        ("equality failure {},{}", (cmp == order.EQUAL.value) != same),
        ("antisymmetry failure {},{}", (lt & ~gt.T) | (gt & ~lt.T)),
    ])
    for triples in _triple_chunks(m, seed):
        i, j, k = triples.T
        intransitive = lt[i, j] & lt[j, k] & ~lt[i, k]
        _note_failures(bad, [("transitivity failure {},{},{}", intransitive)], triples)
    # Dense ranks keep every comparison between embeddings, which may not fit
    # a machine integer.
    emb = [treemod.ordinal_embed(t, b + 1, h) for t in ts]
    rank_of = {v: r for r, v in enumerate(sorted(set(emb)))}
    rank = np.array([rank_of[v] for v in emb])
    _note_failures(bad, [
        ("embedding not order-reversing at {},{}", lt & ~(rank[:, None] > rank)),
        ("embedding not injective at {},{}", (rank[:, None] == rank) & ~same),
    ])
    return CampaignReport(
        claim=f"order-axioms-b{b}h{h}",
        space=m * m,
        counterexamples=bad[:_MAX_COUNTEREXAMPLES],
        details={"trees": m, "triples": min(m**3, _TRIPLE_BUDGET)},
    )


def verify_g2_properties(playouts: int = 10_000, seed: int = SEED) -> CampaignReport:
    """Monotone growth and halting of random playouts on boards 3, 4 and 5
    with C = 2, plus the exhaustive root-ramify win at n = 3.  Halting is
    checked by the step cap: a playout longer than ``g2.PLAYOUT_STEP_CAP``,
    which lies far below the bound 2^(3^(C+1)), raises and is listed."""
    bad = []
    total = 0
    max_steps = 0
    C, boards = 2, (3, 4, 5)
    per_n = max(1, playouts // len(boards))
    for n in boards:
        cfg = LogPower(n, C)
        for i in range(per_n):
            tree = g2mod.random_nc_tree(C, seed * 1000003 + i)
            oracle = treemod.TreeOracle.explicit(tree)
            total += 1
            try:
                result = g2mod.random_playout(cfg, oracle, seed + i)
            except g2mod.ContractViolation as exc:
                bad.append(f"n={n} playout {i}: {exc}")
                continue
            max_steps = max(max_steps, result.steps)
    cfg = LogPower(3, C)
    tree, strategy = g2mod.prover_root_ramify(3, cfg)
    all_win, branches, depth = g2mod.exhaust_delayer(
        cfg, treemod.TreeOracle.explicit(tree), strategy
    )
    total += branches
    if not all_win:
        bad.append("root-ramify lost some branch at n=3")
    return CampaignReport(
        claim="g2-properties",
        space=total,
        counterexamples=bad,
        details={"max_steps": max_steps, "ramify_branches": branches, "ramify_depth": depth},
    )


def _seeded_oblivious(cfg: LogPower, seed: int) -> g2mod.ObliviousStrategy:
    """A deterministic hash-driven oblivious strategy with the canonical
    remembered-integer policy (carry on option 2, neutral on option 3)."""
    size = GameSize(cfg.n)

    def query(v, m, aux):
        h = g2mod._hash_int("oq", seed, v, m.entries, aux)
        k = h % 2 + 1
        pigeons = sorted(size.pigeons)
        picks = {pigeons[(h >> (4 * i)) % len(pigeons)] for i in range(k)}
        return Query.of(picks)

    def move(v, m, aux, answer):
        h = g2mod._hash_int("om", seed, v, m.entries, aux, answer.entries)
        options = []
        if len(v) < cfg.C:
            options.append(("climb", None))
        for cut in range(len(v)):
            options.append(("jump", cut))
            options.append(("back", cut))
        kind, cut = options[h % len(options)]
        if kind == "climb":
            return g2mod.ProverMove(1, 1 + (h >> 8) % min(cfg.cap, 3), 1 + (h >> 12) % cfg.cap)
        if kind == "jump":
            return g2mod.ProverMove(2, v[:cut], aux[cut])
        return g2mod.ProverMove(3, v[:cut], 1)

    return g2mod.ObliviousStrategy(query, move)


def verify_g2prime(playouts: int = 1000, seed: int = SEED) -> CampaignReport:
    """Winner preservation through the aux-free encoding at n = 3, C = 2:
    each play is replayed by the translated strategy on the packed board,
    both on the G2 engine.  ``details`` counts the G2 plays by length and,
    per option, the moves made and the moves that land (do not hand Delayer
    the win)."""
    cfg = LogPower(3, 2)
    bad = []
    lengths: Counter[int] = Counter()
    made: Counter[int] = Counter()
    landed: Counter[int] = Counter()

    def delayer(i: int, down, aux_of) -> g2mod.DelayerCallback:
        """Delayer of play ``i`` in either game: the answer hashes the
        position's labels as read on the original board, through ``down``
        for the vertex and ``aux_of(v, label)`` for its aux word."""

        def answer(pos: g2mod.G2Position, q: Query) -> Matching:
            key = tuple(
                sorted(
                    (down(v), lab.matching.entries, aux_of(v, lab))
                    for v, lab in pos.labels.items()
                )
            )
            options = g2mod.answer_options(q, cfg)
            return options[g2mod._hash_int("dl", seed, i, key, q) % len(options)]

        return answer

    for i in range(playouts):
        tree = g2mod.random_nc_tree(cfg.C, seed * 31 + i)
        oracle = treemod.TreeOracle.explicit(tree)
        strategy = _seeded_oblivious(cfg, seed + i)
        on_g2 = delayer(i, lambda v: v, lambda v, lab: lab.aux)
        result = g2mod.g2_play(cfg, oracle, strategy, on_g2, step_cap=400)
        lengths[result.steps] += 1
        for _, _, mv, step in result.moves:
            made[mv.option] += 1
            landed[mv.option] += step.tag is not g2mod.G2Tag.DELAYER_WINS

        cfg_p, tree_p, strat_p, codec = g2p.to_g2prime(strategy, cfg, oracle)
        on_g2p = delayer(i, codec.vertex_down, lambda v, lab: codec.aux_of(v))
        prime = g2mod.g2_play(cfg_p, tree_p, strat_p, on_g2p, step_cap=400)
        if (result.winner, result.steps) != (prime.winner, prime.steps):
            bad.append(f"play {i}: {result.winner}@{result.steps} vs {prime.winner}@{prime.steps}")
    return CampaignReport(
        claim="g2prime-equivalence",
        space=playouts,
        counterexamples=bad,
        details={
            "lengths": dict(sorted(lengths.items())),
            "made": dict(sorted(made.items())),
            "landed": {o: landed[o] for o in sorted(made)},
        },
    )


def verify_figures() -> CampaignReport:
    """Every shipped figure certificate must validate over lengths up to 60."""
    bad = [name for name in FIGURE_NAMES if not load_figure(name).check(60)]
    return CampaignReport(
        claim="figures",
        space=len(FIGURE_NAMES),
        counterexamples=bad,
    )


def random_strategy(rng: np.random.Generator, n: int) -> SimpleStrategy:
    return index_to_strategy(int(rng.integers(0, strategy_space(n))), n)


def _canonical_wins(strat: SimpleStrategy) -> dict[int, bool]:
    """For each length ``s`` of the window ``n + 1 .. 3n + 3``, whether some
    canonical anti-strategy of ``strat`` that had not given up by ``s``
    wins at ``s``."""
    n = strat.size.n
    window = range(n + 1, 3 * n + 4)
    wins: set[int] = set()
    for cp in all_canonical_plays(strat.with_s(max(window))):
        wins.update(
            s
            for s in won_lengths(strat, cp.play)
            if s in window and (cp.gave_up_step is None or s < cp.gave_up_step)
        )
        if len(wins) == len(window):
            break
    return {s: s in wins for s in window}


def verify_php_trees(samples: int = 10_000, seed: int = SEED) -> CampaignReport:
    """Built trees are valid and symmetric at n = 3 and 4; at n = 3,
    completeness coincides with the absence of winning canonical
    anti-strategies at every length of the window, on 1,000 seeded tables
    and five planted ones; the exhaustive loop bound is delegated to its
    own campaign.

    Canonical answers are history-driven, so the plays at shorter lengths
    are the truncations of the full-window plays, and one walk of each
    canonical play (``won_lengths``) decides every length.  A play counts
    at ``s`` only when it had not given up by then: once the fresh holes
    run out the construction fails, and the answers after that are filler,
    not the anti-strategy's.
    """
    rng = np.random.default_rng(seed)
    bad = []
    for i in range(samples):
        if len(bad) > _ENOUGH_COUNTEREXAMPLES:
            break
        for size_n in (3, 4):
            strat = random_strategy(rng, size_n)
            tree = phpmod.build_php_tree(strat)
            if not phpmod.validate_php_tree(tree):
                bad.append(f"invalid build at sample {i} n={size_n}")
            if not phpmod.is_symmetric(tree):
                bad.append(f"asymmetric build at sample {i} n={size_n}")
    n = 3
    # Complete trees are vanishingly rare among random tables, so seed the
    # sample with constructed ones: the successor table never revisits a
    # pigeon, and completeness is invariant under relabeling.  The 4-cycle
    # table is complete too, but its plays (1, 0, 2, 0, ...) give up at
    # step 4 and then win s = 5, 7, 9 and 11: only the gave-up rule keeps
    # those lengths from counting.
    succ = make_strategy(
        n, 1, 0, {(p, h): min(p + 1, n) for p in range(n + 1) for h in range(n)}
    )
    shift = [(h + 1) % n for h in range(n)]
    cycle = make_strategy(
        n, 1, 0, {(p, h): (p + 1) % (n + 1) for p in range(n + 1) for h in range(n)}
    )
    planted = [succ, _relabel(succ, (3, 0, 2, 1), range(n)), cycle] + [
        _relabel(succ, pp, shift)
        for pp in ([1, 0] + list(range(2, n + 1)), list(range(1, n + 1)) + [0])
    ]
    for i in range(-len(planted), 1_000):
        if len(bad) > _ENOUGH_COUNTEREXAMPLES:
            break
        strat = planted[i] if i < 0 else random_strategy(rng, n)
        complete = phpmod.is_complete(phpmod.build_php_tree(strat))
        wins = _canonical_wins(strat).values()
        if complete and any(wins):
            bad.append(f"complete tree but canonical win at sample {i}")
        if not complete and not all(wins):
            bad.append(f"incomplete tree but no canonical win at sample {i}")
    return CampaignReport(
        claim="php-trees",
        space=samples * 2 + 1_000,
        counterexamples=bad,
    )


def verify_oracle_equivalence(samples: int = 10_000, seed: int = SEED) -> CampaignReport:
    """The certificate agrees with the brute-force DFS at every length up
    to 8, on ``samples`` seeded tables at n = 3 and a tenth as many at
    n = 4 (the module's primary correctness gate)."""
    rng = np.random.default_rng(seed)
    bad = []
    n4_samples = max(1, samples // 10)
    draws = ((n, i) for n, count in ((3, samples), (4, n4_samples)) for i in range(count))
    for n, i in draws:
        if len(bad) > _ENOUGH_COUNTEREXAMPLES:
            break
        strat = random_strategy(rng, n)
        s = _dfs_mismatch(strat, delayer_wins_lengths(strat), 8)
        if s is not None:
            bad.append(f"n={n} sample {i} s={s}")
    return CampaignReport(
        claim="oracle-equivalence",
        space=(samples + n4_samples) * 8,
        counterexamples=bad,
    )
