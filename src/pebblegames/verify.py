"""Exhaustive and randomized verification campaigns.

The headline campaign sweeps every strategy table of the simplified game at
a given board size, or a seeded sample of them drawn without replacement,
and proves each one Delayer-won for every round count.  The sweep is
vectorized over strategy batches held in bit-planes: one ``uint64`` word
carries one fact for 64 tables, with bit ``i`` of word ``w`` standing for
table ``64 w + i``.  A batch's indices are split into base-(n+1) digits a
``uint32`` limb at a time, and the digits into one array of planes, row
``d (n+1) + q`` holding "digit d is q" (digit 0 is the first question, digit
1 + e the head of edge e); each candidate's reachable edge set is
one plane per (candidate, edge) slot that the candidate allows.  A hit test
is one gather, one AND and one OR-reduction over the planes.  A step is the
same, except that the table planes it reads are gathered once per set of
planes and ANDed in place into the gathered state.  Both are driven by index
tables that ``board_tables`` builds once per board and caches.  A table
leaves the batch at its first failing length, at a hit of an absorbing loop
candidate (the fast path), or at the first repeat of its state (Brent
anchors at steps 1, 2, 4, ...), which closes every longer length; there is
no explicit range of lengths.  Step 1 is the first anchor and the same
rule routes it, but no table is in the planes before it, so its hit test
runs over blocks of at most 2^14 tables; most tables leave there, and only
the tables that stay are decoded for the rest of the walk.  Each table's
exit is stored once, as a route (failed, loop or repeat) and the step at
which it left; the verdicts are views of these.  After step 1 a leaving
table is routed at once, but its column stays in the planes, masked off,
until an anchor where at least half of the columns have left; only there is
the batch compacted.  Every table whose index is a multiple of the prime
101 is held back from the fast path and certified by the repeat alone as a
cross-check; no base n + 1 <= 5 divides 101, so the held tables take every
value of every digit.  Exhaustive and sampled sweeps take the same route:
one worker per batch, one counterexample writer and one process pool.

One engine serves both batch sweeps.  ``certify_batch`` (the headline
sweep) walks the edges compatible with each candidate; ``_loop_bound_planes``
(criterion 10's sweep: ``verify_loop_bound`` calls it per aligned block,
and the tests' ``loop_bound_batch`` on decoded planes) walks the same planes
without the candidate edge itself, and walks the union of the sets within
the bound on to its fixpoint.  It walks only
the candidates that are a loop in some table of the batch: each
candidate's set evolves on its own slots, and only a loop can break the
bound.  A batch whose union is already closed there has no table that
breaks the bound, and is decided without a hit test; any other batch tests
hits twice per table: once on the union within the bound, once on its
fixpoint (the step and the hit test distribute over OR).
The headline sweep runs 2^18-table jobs, because each job pays the per-step
cost of its longest repeat tail once.  The loop bound walks a few steps per
table, so it sweeps aligned blocks of at most 2^14 tables (the block size of
a job's first step), whose temporaries stay in L2, and decodes none of
them: a block of ``(n+1)^k`` tables that starts at a multiple of its size
shares its low ``k`` digits with block 0 and has constant higher digits, so
its planes are block 0's, which ``board_tables`` decodes once per board and
process, with one row per nonzero high digit moved.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from pebblegames.matching import GameSize, LogPower, Matching, Query
from pebblegames.simple_game import (
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
        ``terms`` is ``planes[self.step_plane]``, gathered once per set of
        table planes."""
        gathered = np.take(state, self.step_src, axis=0)
        gathered &= terms
        return np.bitwise_or.reduce(gathered, axis=0)

    def hits(self, state: np.ndarray, planes: np.ndarray) -> np.ndarray:
        """One plane per candidate of the walk: candidate c's set holds an
        edge pointing at c's tail."""
        per_cand, num_cands = self.hit_plane.shape
        gathered = planes[self.hit_plane]
        gathered &= state.reshape(num_cands, per_cand, state.shape[1]).transpose(1, 0, 2)
        return np.bitwise_or.reduce(gathered, axis=0)

    def restrict(self, kept: np.ndarray) -> Walk:
        """The same walk over the candidates set in ``kept`` (E,), in their
        order.  A real term of a slot reads a slot of the same candidate, so
        each candidate's set evolves on its own: the restricted walk's step
        and hits are the rows of the kept slots and candidates of the full
        walk's.  A padding term reads the all-zero table plane, so the slot
        it names does not matter; dropped slots are renumbered to slot 0."""
        cols = np.repeat(kept, self.hit_plane.shape[0])
        renumber = np.where(cols, np.cumsum(cols) - 1, 0)
        return Walk(
            slot_tail=self.slot_tail[cols],
            hit_plane=self.hit_plane[:, kept],
            step_src=renumber[self.step_src[:, cols]],
            step_plane=self.step_plane[:, cols],
        )


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
        hit_plane=((edge + 1) * pigeons + tail[cand]).reshape(num_edges, -1).T.copy(),
        step_src=np.where(real, slot_of[cand, e], 0),
        step_plane=np.where(real, (e + 1) * pigeons + tail[edge], (num_edges + 1) * pigeons),
    )


@dataclass
class BoardTables:
    """Strategy-independent tables of one board size: the index tables of
    the walks, and block 0's planes.  Aligned block ``j`` holds the
    ``(n+1)^k`` indices from ``j (n+1)^k``, the largest power of the base
    that is at most ``TABLE_BLOCK`` (capped at the whole space); its low
    ``k`` digits, ``init`` among them, run through block 0's pattern."""

    n: int
    certify: Walk  # candidate c walks the edges compatible with c
    loop: Walk  # the same without c itself, which carries the loop hole
    loop_plane: np.ndarray  # (E,) table plane of "candidate c is a loop"
    k: int
    block_planes: np.ndarray  # ((E + 1) * P + 1, W) planes of block 0


@functools.cache
def board_tables(n: int) -> BoardTables:
    """The tables of board ``n``.  They are built once per board and
    process, cached, and shared by every batch on that board, so their
    arrays are read-only."""
    pigeons = n + 1
    num_edges = pigeons * n
    e = np.arange(num_edges)
    compat = (e[:, None] // n == e // n) == (e[:, None] % n == e % n)
    k = 1
    while k < num_edges + 1 and pigeons ** (k + 1) <= TABLE_BLOCK:
        k += 1
    bt = BoardTables(
        n,
        certify=_walk(n, compat, compat),
        loop=_walk(n, compat, compat & ~np.eye(num_edges, dtype=bool)),
        loop_plane=(e + 1) * pigeons + e // n,
        k=k,
        block_planes=_table_planes(np.arange(pigeons**k, dtype=np.uint64), n),
    )
    walks = (*vars(bt.certify).values(), *vars(bt.loop).values())
    for array in (bt.loop_plane, bt.block_planes, *walks):
        array.flags.writeable = False
    return bt


def decode_batch(indices: np.ndarray, n: int) -> np.ndarray:
    """Base-(n+1) digits of the strategy indices, (E + 1, B): digit 0 is the
    first question, digit 1 + e the head of edge e (``index_to_strategy``).

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
    return digits


def _pack(bits: np.ndarray) -> np.ndarray:
    """(..., b) booleans to (..., ceil(b / 64)) planes; the padding is 0."""
    *rows, b = bits.shape
    packed = np.zeros((*rows, -(-b // 64) * 8), dtype=np.uint8)
    packed[..., : -(-b // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view(np.uint64)


def _unpack(planes: np.ndarray, b: int) -> np.ndarray:
    """The first ``b`` tables of each plane, as booleans."""
    return np.unpackbits(planes.view(np.uint8), axis=-1, count=b, bitorder="little").view(bool)


def _repack(planes: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The planes of the tables set in ``keep``, one flag per packed table."""
    return _pack(np.compress(keep, _unpack(planes, len(keep)), axis=-1))


def _table_planes(indices: np.ndarray, n: int) -> np.ndarray:
    """The planes of a batch, ((E + 1) * P + 1, W): row ``d * P + q`` holds
    "digit d of the index is q" (``decode_batch``), so rows 0 .. P - 1 hold
    the first question and row ``(e + 1) * P + q`` "edge e points at pigeon
    q"; the last row is zero.  Padding tables are in no plane."""
    digits = decode_batch(indices, n)
    bits = np.zeros((len(digits) * (n + 1) + 1, len(indices)), dtype=bool)
    rows = bits[:-1].reshape(len(digits), n + 1, len(indices))
    np.equal(digits[:, None, :], np.arange(n + 1, dtype=np.uint8)[:, None], out=rows)
    return _pack(bits)


@dataclass
class BatchResult:
    """How each table of a batch left the walk, stored once per table.

    ``route`` is ``FAILED`` when some length is Prover-won, ``LOOP`` at a hit
    of an absorbing loop candidate (the fast path), ``REPEAT`` at the first
    repeat of its state, and ``UNCERTIFIED`` (0) when it had not left after
    ``T_LIMIT`` steps.  ``closed_at`` is the step t at which the table left,
    0 for an uncertified one.  Step t tests length t + 1, so a failed table
    loses length ``closed_at + 1``: that is ``first_fail``.  The four
    properties are read-only views: each read derives a new array from the
    two fields."""

    route: np.ndarray  # (B,) int8
    closed_at: np.ndarray  # (B,) int16

    @property
    def wins_all(self) -> np.ndarray:
        """Every length is Delayer-won and the tail is certified."""
        return self.route >= LOOP

    @property
    def fast_path(self) -> np.ndarray:
        """Left at a hit of an absorbing loop candidate."""
        return self.route == LOOP

    @property
    def first_fail(self) -> np.ndarray:
        """The least Prover-won length, 0 when there is none."""
        return np.where(self.route == FAILED, self.closed_at.astype(np.int64) + 1, 0)

    @property
    def uncertified(self) -> np.ndarray:
        """Never saw a state repeat (the soundness guard)."""
        return self.route == UNCERTIFIED


# The routes of ``BatchResult``: a table still walking, then the exits in the
# order in which a step tests them.
UNCERTIFIED, FAILED, LOOP, REPEAT = range(4)


# Steps after which a table whose state has not repeated is reported
# uncertified rather than iterated further.
T_LIMIT = 4200
# The sweep holds table ``i`` back from the fast path, to cross-check it by
# the repeat alone, when ``i % HOLD_BACK_MODULUS`` is 0.  The modulus is a
# prime that no base n + 1 <= 5 divides, so the held tables of a window take
# every value of every digit that varies in it.
HOLD_BACK_MODULUS = 101
# Tables per block, at most, of the loop bound and of certify_batch's first
# step.  The temporaries of a 2^14-table block peak near 1.5 MB at n = 3, so
# they stay in a 2 MB L2; 2^18-table blocks spent more on cache misses and
# fresh pages (about 10,000 minor faults per 2^20 tables) than on the walk
# itself.
TABLE_BLOCK = 1 << 14
# Tables per job of verify_theorem_main.
BATCH_SIZE = 1 << 18


def certify_batch(
    indices: np.ndarray, bt: BoardTables, sample_mask: Optional[np.ndarray] = None
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
    repeat alone.  A leaving table's route and step are stored once, when it
    leaves (see ``BatchResult``).

    The state at t = 1 is the initial one, and no table is in the planes yet,
    so that step's hit test runs over blocks of ``TABLE_BLOCK`` tables, and
    each block routes the tables that leave there.  Most tables do, and t = 1
    is the first anchor, so no state repeats there: only the tables that stay
    are decoded into the planes of the walk.  From t = 2 on, a step's exits
    are planes too, stored by one loop over (leaving plane, route) pairs
    that unpacks only the planes some table leaves by.  A leaving table's
    column stays in the planes, masked off in ``live``.  At a later anchor
    where at least half of the columns have left, the planes are compacted
    and the packed state is the new anchor, so the planes are decoded at most
    once per anchor, each time with at most half of the tables of the decode
    before.
    """
    B, walk = len(indices), bt.certify
    held = np.zeros(B, dtype=bool) if sample_mask is None else np.asarray(sample_mask, dtype=bool)
    route, closed_at = np.zeros(B, dtype=np.int8), np.zeros(B, dtype=np.int16)
    # Step 1, whose state is the initial one, block by block.  It is the
    # first anchor, so a table leaves there by a failure or a loop hit (a
    # loop hit is a win); a held table is in no loop plane.
    for lo in range(0, B, TABLE_BLOCK):
        planes = _table_planes(indices[lo : lo + TABLE_BLOCK], bt.n)
        loops = planes[bt.loop_plane] & ~_pack(held[lo : lo + TABLE_BLOCK])
        hits = walk.hits(planes[walk.slot_tail], planes)
        out = route[lo : lo + TABLE_BLOCK]  # the block's routes
        np.copyto(out, LOOP, where=_unpack(np.bitwise_or.reduce(hits & loops, axis=0), len(out)))
        np.copyto(out, FAILED, where=~_unpack(np.bitwise_or.reduce(hits, axis=0), len(out)))
        closed_at[lo : lo + TABLE_BLOCK] = out != UNCERTIFIED  # left at t = 1

    active = np.flatnonzero(route == UNCERTIFIED)  # the table of each column of the planes
    live = _pack(np.ones(len(active), dtype=bool))  # the columns whose tables have not left
    for t in range(1, T_LIMIT + 1):
        anchored = not t & (t - 1)  # Brent: the anchors are t = 1, 2, 4, ...
        if t > 1:
            rr = walk.step(rr, terms)
            hits = walk.hits(rr, planes)  # (E, W) candidate wins at s = t + 1
            won, looped = (np.bitwise_or.reduce(h, axis=0) for h in (hits, hits & loops))
            exits = [(live & ~won, FAILED), (live & looped, LOOP)]  # a loop hit is a win
            live &= won & ~looped
            if not anchored:
                # A state equal to the anchor repeats every hit seen since.
                moved = np.bitwise_or.reduce(rr ^ anchor, axis=0)
                exits.append((live & ~moved, REPEAT))
                live &= moved
            for leaving, code in exits:
                if leaving.any():
                    left = active[_unpack(leaving, len(active))]
                    route[left], closed_at[left] = code, t
        if not live.any():
            break
        if anchored and (t == 1 or 2 * np.count_nonzero(_unpack(live, len(active))) <= len(active)):
            # A Brent anchor where at least half of the columns have left, or
            # t = 1: the tables that stay are decoded into the planes here.
            keep = _unpack(live, len(active))
            active = active[keep]
            planes = _table_planes(indices[active], bt.n)
            terms, loops = planes[walk.step_plane], planes[bt.loop_plane] & ~_pack(held[active])
            rr = anchor = planes[walk.slot_tail] if t == 1 else _repack(rr, keep)
            live = np.bitwise_or.reduce(planes[: bt.n + 1], axis=0)  # digit 0's rows
        elif anchored:
            # A repack and re-decode cost 3 to 5 steps at n = 4 and 6 to 17
            # at n = 3; until half of the columns have left, the anchor
            # keeps them all.
            anchor = rr
    return BatchResult(route, closed_at)


def _dfs_mismatch(strat: SimpleStrategy, cert: WinCertificate, s_hi: int) -> Optional[int]:
    """The first length up to ``s_hi`` at which the certificate ``cert`` of
    ``strat`` and the DFS oracle disagree, or None."""
    dfs = brute_force_delayer_wins(strat, s_hi)
    for s in range(1, s_hi + 1):
        if cert.wins(s) != (s in dfs):
            return s
    return None


def _brent_exit(cert: WinCertificate) -> tuple[int, int]:
    """The route and step at which ``certify_batch``, holding the table of
    ``cert`` back, sees it leave.  A first miss at hit ``f`` fails at step
    f + 1.  Otherwise the state first equals an anchor at a + period, where
    the anchor ``a`` is the least power of two with a - 1 >= mu (in the
    cycle) and period < a (its compared steps a + 1 .. 2a - 1 span a whole
    period)."""
    if not cert.wins_all():
        return FAILED, cert.hits.index(False) + 1
    return REPEAT, (1 << max(cert.mu, cert.period).bit_length()) + cert.period


def _oracle_gate(n: int) -> None:
    """Refuse to run the big sweep until the certificate matches the DFS
    oracle up to length 6 and the vectorized engine, with every table held
    back, matches the certificate's exit (``_brent_exit``), on 150 distinct
    seeded tables."""
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
    exits = zip(res.route.tolist(), res.closed_at.tolist())
    for idx, cert, got in zip(idxs, certs, exits):
        if got != _brent_exit(cert):
            raise AssertionError(f"oracle gate: engine mismatch at index {idx}")


def _certify_job(job: tuple) -> tuple[list[int], int, int, int]:
    """Worker: certify the batch ``idxs``, or the index range [lo, hi) when
    ``idxs`` is None; returns the batch's counterexamples, its fast-path
    count, its cross-check count and its uncertified count."""
    lo, hi, idxs, n = job
    if idxs is None:
        idxs = np.arange(lo, hi, dtype=np.uint64)
    # The held-back tables skip the fast path, so they cross-check it through
    # the repeat certificate (a disagreement is a counterexample).
    crosscheck = idxs % HOLD_BACK_MODULUS == 0
    res = certify_batch(idxs, board_tables(n), sample_mask=crosscheck)
    ces = [int(i) for i in idxs[~res.wins_all]]
    return ces, int(res.fast_path.sum()), int(crosscheck.sum()), int(res.uncertified.sum())


def verify_theorem_main(
    n: int = 3,
    threads: int = 1,
    ce_dir: Optional[Path] = None,
    sample: Optional[int] = None,
    seed: int = SEED,
) -> CampaignReport:
    """Every strategy must be Delayer-won for all lengths.

    The sweep covers every index, or with ``sample`` that many distinct
    seeded indices; either way it runs in jobs of ``BATCH_SIZE`` tables
    through the same worker, on ``threads`` processes, and one counterexample
    writer.  Expected outcome: zero counterexamples at three or more holes;
    at two holes Prover-winning tables exist and are reported.  Boards
    beyond three holes are too large to sweep and require ``sample``.  A
    table still walking after ``T_LIMIT`` steps is a counterexample too;
    ``details["uncertified"]`` counts those, so that they can be told apart
    from Prover wins.
    """
    if n > 3 and sample is None:
        raise ValueError("full sweeps stop at n=3; pass sample= for larger boards")
    if sample is None:
        picks = None
        total = strategy_space(n)
    else:
        if sample > strategy_space(n):
            raise ValueError(f"sample={sample} exceeds the {strategy_space(n)} tables at n={n}")
        rng = np.random.default_rng(seed)
        picks = rng.choice(strategy_space(n), size=sample, replace=False, shuffle=False)
        # Used as drawn, since the jobs' counts are summed and the
        # counterexamples sorted, and read as uint64 in place (every index is
        # below 2^63): a cast copy's extra array moved the sweep's peak RSS.
        picks = picks.view(np.uint64)
        total = sample
    _oracle_gate(n)

    jobs = []
    for start in range(0, total, BATCH_SIZE):
        stop = min(start + BATCH_SIZE, total)
        jobs.append((start, stop, None if picks is None else picks[start:stop], n))
    # A fork pool starts all of its workers at the first job, so it gets no
    # more workers than jobs.
    workers = min(threads, len(jobs))
    if workers <= 1:
        results = list(map(_certify_job, jobs))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_certify_job, jobs, chunksize=1))
    ces = sorted(idx for batch_ces, *_ in results for idx in batch_ces)

    serialized = [format_strategy(index_to_strategy(idx, n)) for idx in ces]
    if ce_dir:
        Path(ce_dir).mkdir(parents=True, exist_ok=True)
        for idx, text in zip(ces, serialized):
            (Path(ce_dir) / f"strategy-{idx}.strat").write_text(text)
    return CampaignReport(
        claim=f"theorem-main-n{n}" if picks is None else f"theorem-main-n{n}-sampled",
        space=total,
        counterexamples=serialized,
        details={
            "fast_path": sum(fast for _, fast, _, _ in results),
            "sampled_crosschecks": sum(checked for _, _, checked, _ in results),
            "uncertified": sum(stuck for *_, stuck in results),
        },
    )


def loop_bound_batch(indices: np.ndarray, bt: BoardTables) -> np.ndarray:
    """The tables of a batch that break the loop bound: some loop edge's
    tail is reachable, but not within ``2(n-2)+1`` steps of the start."""
    _, violators = _loop_bound_planes(_table_planes(indices, bt.n), bt)
    if violators is None:
        return np.zeros(len(indices), dtype=bool)
    return _unpack(violators, len(indices))


def _loop_bound_planes(planes: np.ndarray, bt: BoardTables) -> tuple[int, Optional[np.ndarray]]:
    """The number of candidates walked, and the (W,) plane of the tables
    that break the loop bound, from the planes of ``_table_planes``, or None
    when the batch closes.

    Only a loop can break the bound, and each candidate's set is walked on
    its own slots, so only the candidates that are a loop in some table of
    the batch are walked.  The batch closes when none is, or when the union
    of their sets reached in 0..K-1 steps is already its own fixpoint: then
    no table of the batch can break the bound.  The step and the hit test
    both distribute over OR, so the union is hit exactly when one of its
    sets is: a batch that grows makes one hit test within the bound and one
    at the fixpoint of the union, which decides reachability-ever, and a
    batch that closes would make the same hit test twice."""
    K = 2 * (bt.n - 2) + 1
    if K < 1:
        raise ValueError(f"the loop bound 2(n-2)+1 = {K} is no walk length at n={bt.n}")
    loops = planes[bt.loop_plane]
    kept = loops.any(axis=1)
    if not kept.any():
        return 0, None
    walked = int(np.count_nonzero(kept))
    walk = bt.loop.restrict(kept)
    terms = planes[walk.step_plane]
    union = planes[walk.slot_tail]
    for _ in range(K - 1):
        union |= walk.step(union, terms)
    within = union
    while True:
        grown = walk.step(union, terms)
        grown |= union
        if (grown == union).all():
            break
        union = grown
    if union is within:
        return walked, None
    # A loop whose tail is the start is reached at once and breaks no bound.
    # It needs no mask: no slot of candidate c holds an edge leaving c's own
    # tail, so such a candidate keeps an empty set and is never hit.
    violation = loops[kept] & walk.hits(union, planes) & ~walk.hits(within, planes)
    return walked, np.bitwise_or.reduce(violation, axis=0)


def _block_planes(bt: BoardTables, j: int, out: np.ndarray) -> np.ndarray:
    """The planes of aligned block ``j``, as ``_table_planes`` gives them
    for its indices, written into ``out``.  Each digit ``d`` from ``bt.k``
    on is the constant ``q_d``, digit ``d - k`` of ``j``, and in block 0 row
    ``d * P`` is the plane of the valid tables, so block ``j``'s planes are
    block 0's with that row moved to ``d * P + q_d``."""
    np.copyto(out, bt.block_planes)
    pigeons = bt.n + 1
    d = bt.k
    while j:
        j, q = divmod(j, pigeons)
        if q:
            out[d * pigeons + q] = out[d * pigeons]
            out[d * pigeons] = 0
        d += 1
    return out


def verify_loop_bound(n: int = 3, limit: Optional[int] = None) -> CampaignReport:
    """Shortest qualifying path to any reachable loop has length at most
    ``2(n-2)+1``, exhaustively over every strategy table.

    ``limit`` truncates the sweep to the first ``limit`` indices, for unit
    tests and the benchmark's ``loop-bound`` workload; the campaign runs
    full, and needs ``limit`` beyond three holes.  ``details`` counts the
    aligned blocks swept, those that closed without a hit test, and the
    candidates walked, summed over the blocks.
    """
    if n > 3 and limit is None:
        raise ValueError("full sweeps stop at n=3; pass limit= for larger boards")
    if limit is not None and limit < 0:
        raise ValueError(f"limit={limit} is negative")
    bt = board_tables(n)
    total = strategy_space(n) if limit is None else min(strategy_space(n), limit)
    size = (n + 1) ** bt.k
    out = np.empty_like(bt.block_planes)
    bad: list[str] = []
    starts = range(0, total, size)
    closed = walked = 0
    for j, start in enumerate(starts):
        block_walked, violators = _loop_bound_planes(_block_planes(bt, j, out), bt)
        walked += block_walked
        if violators is None:
            closed += 1
            continue
        # The block is walked whole, and its rows below ``total`` are read.
        found = np.flatnonzero(_unpack(violators, min(size, total - start))) + start
        bad += [format_strategy(index_to_strategy(int(idx), n)) for idx in found]
    return CampaignReport(
        claim=f"loop-bound-n{n}",
        space=total,
        counterexamples=bad,
        details={"blocks": len(starts), "closed_blocks": closed, "walked_candidates": walked},
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
    if all(play_simplified(lowered, play).prover_won for play in all_plays(lowered)):
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


def _note_failures(bad: list[str], checks: Sequence[tuple[str, np.ndarray]]) -> None:
    """Append one message per failed check until ``bad`` holds
    ``_MAX_COUNTEREXAMPLES``.  The checks are (format, failure mask) pairs
    over one index grid.  Positions are visited in row-major order, and the
    checks in their order within a position.  A message is formatted with
    the position's indices."""
    if len(bad) >= _MAX_COUNTEREXAMPLES:
        return
    failed = np.logical_or.reduce([mask for _, mask in checks])
    for where in np.argwhere(failed)[: _MAX_COUNTEREXAMPLES - len(bad)]:
        at = tuple(where)
        bad.extend(fmt.format(*at) for fmt, mask in checks if mask[at])


def verify_order_axioms(b: int, h: int) -> CampaignReport:
    """Antisymmetry, transitivity and trichotomy of the tree order plus
    strict order reversal of the ordinal embedding.

    Every ordered pair of trees is compared once with ``tree_compare``; the
    axioms are then checked as array operations on the matrix of results,
    transitivity on every triple."""
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
    # Triple (i, j, k) fails when i < j and j < k but not i < k: a set bit
    # (j, k) of the rows of the trees i is below, masked with the trees i is
    # not below.  Rows are screened packed, and listed in itertools.product
    # order only when some bit is set.
    packed = np.packbits(lt, axis=1)
    for i, row in enumerate(lt):
        if len(bad) >= _MAX_COUNTEREXAMPLES:
            break
        below = np.flatnonzero(row)
        if (packed[below] & ~packed[i]).any():
            for at, k in np.argwhere(lt[below] & ~row)[: _MAX_COUNTEREXAMPLES - len(bad)]:
                bad.append(f"transitivity failure {i},{below[at]},{k}")
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
        details={"trees": m},
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
    tree, strategy = g2mod.prover_root_ramify(cfg)
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
        result = g2mod.g2_play(cfg, oracle, strategy.on_positions(), on_g2, step_cap=400)
        lengths[result.steps] += 1
        for _, _, mv, step in result.moves:
            made[mv.option] += 1
            landed[mv.option] += step.tag is not g2mod.G2Tag.DELAYER_WINS

        cfg_p, tree_p, strat_p, codec = g2p.to_g2prime(strategy, cfg, oracle)
        on_g2p = delayer(i, codec.vertex_down, lambda v, lab: codec.aux_of(v))
        prime = g2mod.g2_play(cfg_p, tree_p, strat_p.on_positions(), on_g2p, step_cap=400)
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
