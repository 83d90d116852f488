"""Exhaustive and randomized verification campaigns.

The headline campaign sweeps every strategy table of the simplified game at
a given board size and proves each one Delayer-won for every round count:
explicitly up to ``s_max`` and beyond it by a repeated-state certificate.
The sweep is vectorized over strategy batches with per-candidate reachable
edge sets packed into integer masks; a loop fast path dispatches tables
whose certificate is forced by an absorbing loop edge, and a deterministic
sample of dispatched tables is cross-checked against the full certificate.

One engine serves both batch sweeps: ``_batch_tables`` decodes a batch into
its bit tables and ``_step`` advances every candidate's edge set by one
walk step.  ``certify_batch`` (the headline sweep) and ``verify_loop_bound``
differ only in the mask the step keeps and in how they walk.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from pebblegames.matching import GameSize, LogPower, minimal_covers
from pebblegames.simple_game import (
    Play,
    PlayOutcome,
    SimpleStrategy,
    all_canonical_plays,
    all_plays,
    brute_force_delayer_wins,
    delayer_wins_lengths,
    format_strategy,
    make_strategy,
    play_simplified,
    prover_small_n,
    subset_prover,
)
from pebblegames import g2 as g2mod
from pebblegames import g2prime as g2p
from pebblegames import php_tree as phpmod
from pebblegames import trees as treemod
from pebblegames.figures import FIGURE_NAMES, load_figure


@dataclass
class CampaignReport:
    claim: str
    space: int
    counterexamples: list[str] = field(default_factory=list)
    seconds: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def line(self, timing: bool = True) -> str:
        secs = f"{self.seconds:.3f}" if timing else "0.000"
        return (
            f"claim={self.claim} space={self.space} "
            f"counterexamples={len(self.counterexamples)} seconds={secs}"
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


def strategy_to_index(strat: SimpleStrategy) -> int:
    pigeons = strat.size.n + 1
    digits = [strat.init] + [
        strat.table[p][h] for p in range(pigeons) for h in range(strat.size.n)
    ]
    value = 0
    for d in reversed(digits):
        value = value * pigeons + d
    return value


def canonical_strategy(strat: SimpleStrategy) -> SimpleStrategy:
    """The least table in the orbit under joint pigeon/hole relabeling."""
    n = strat.size.n
    pigeons = list(range(n + 1))
    best = None
    for pp in itertools.permutations(pigeons):
        for hp in itertools.permutations(range(n)):
            rows = [[0] * n for _ in pigeons]
            for p in pigeons:
                for h in range(n):
                    rows[pp[p]][hp[h]] = pp[strat.table[p][h]]
            cand = SimpleStrategy(
                strat.size, strat.s, pp[strat.init], tuple(tuple(r) for r in rows)
            )
            key = strategy_to_index(cand)
            if best is None or key < best[0]:
                best = (key, cand)
    assert best is not None
    return best[1]


def shard_bounds(total: int, shard: int, shards: int) -> tuple[int, int]:
    if not 0 <= shard < shards:
        raise ValueError(f"shard {shard} outside 0..{shards - 1}")
    per = total // shards
    extra = total % shards
    start = shard * per + min(shard, extra)
    length = per + (1 if shard < extra else 0)
    return start, start + length


def enumerate_strategies(
    n: int,
    symmetry: bool = False,
    shard: int = 0,
    shards: int = 1,
    ceiling: int = 4,
    s: int = 1,
) -> Iterator[SimpleStrategy]:
    """Every (init, table) pair in deterministic index order.

    With symmetry reduction only orbit representatives (least index) are
    yielded.  Sharding splits the index range into contiguous blocks.
    """
    if n > ceiling:
        raise ValueError(f"n={n} above ceiling {ceiling}")
    lo, hi = shard_bounds(strategy_space(n), shard, shards)
    for index in range(lo, hi):
        strat = index_to_strategy(index, n, s)
        if symmetry and strategy_to_index(canonical_strategy(strat)) != index:
            continue
        yield strat


# ---------------------------------------------------------------------------
# The vectorized certificate engine.


def _mask_dtype(num_edges: int):
    if num_edges <= 16:
        return np.uint16
    if num_edges <= 32:
        return np.uint32
    return np.uint64


@dataclass
class BoardTables:
    """Strategy-independent bit tables for one board size."""

    n: int
    num_edges: int
    dtype: type
    compat: np.ndarray  # (E,) mask of edges compatible with e
    out_mask: np.ndarray  # (P,) mask of edges with tail p
    cand_tail: np.ndarray  # (E,) tail pigeon of candidate e
    bits: np.ndarray  # (E,) the one-bit mask of edge e


def board_tables(n: int) -> BoardTables:
    pigeons = n + 1
    num_edges = pigeons * n
    dtype = _mask_dtype(num_edges)
    compat = np.zeros(num_edges, dtype=dtype)
    for e in range(num_edges):
        p, h = divmod(e, n)
        m = 0
        for f in range(num_edges):
            q, g = divmod(f, n)
            if (p == q) == (h == g):
                m |= 1 << f
        compat[e] = m
    out_mask = np.array(
        [((1 << n) - 1) << (p * n) for p in range(pigeons)], dtype=dtype
    )
    cand_tail = np.arange(num_edges, dtype=np.int64) // n
    bits = (np.uint64(1) << np.arange(num_edges, dtype=np.uint64)).astype(dtype)
    return BoardTables(n, num_edges, dtype, compat, out_mask, cand_tail, bits)


def decode_batch(indices: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Base-(n+1) digits of the strategy indices: init plus table heads."""
    pigeons = n + 1
    num_edges = pigeons * n
    rest = indices.astype(np.uint64).copy()
    init = (rest % pigeons).astype(np.uint8)
    rest //= pigeons
    heads = np.empty((len(indices), num_edges), dtype=np.uint8)
    for e in range(num_edges):
        heads[:, e] = rest % pigeons
        rest //= pigeons
    return init, heads


def _batch_tables(indices: np.ndarray, bt: BoardTables) -> tuple[np.ndarray, ...]:
    """The per-table bit tables of a batch: ``init`` (B,) is the first
    question; ``t_base`` (B, E) holds the edges that may follow edge e (out
    of its head, compatible with e); ``targets`` (B, E) the edges whose head
    is candidate e's tail; ``is_loop`` (B, E) whether edge e is a loop."""
    n, dt = bt.n, bt.dtype
    init, heads = decode_batch(indices, n)
    head_mask = np.empty((len(indices), n + 1), dtype=dt)  # edges whose head is p
    for p in range(n + 1):
        head_mask[:, p] = ((heads == p).astype(dt) * bt.bits[None, :]).sum(
            axis=1, dtype=np.uint64
        ).astype(dt)
    t_base = bt.out_mask[heads] & bt.compat[None, :]
    is_loop = heads == np.arange(bt.num_edges, dtype=np.uint8)[None, :] // n
    return init, t_base, head_mask[:, bt.cand_tail], is_loop


def _step(rr: np.ndarray, t_base: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """One walk step of every candidate's edge set, kept to ``allowed``."""
    nxt = np.zeros_like(rr)
    for e in range(t_base.shape[1]):
        sel = (rr >> e) & 1
        np.bitwise_or(nxt, np.where(sel.astype(bool), t_base[:, e][:, None], 0), out=nxt)
    return nxt & allowed


@dataclass
class BatchResult:
    wins_all: np.ndarray  # every s is Delayer-won and the tail is certified
    fast_path: np.ndarray  # dispatched via the absorbing-loop shortcut
    first_fail: np.ndarray  # failing length, 0 when none
    uncertified: np.ndarray  # never saw a state repeat (soundness guard)


def certify_batch(
    indices: np.ndarray,
    bt: BoardTables,
    s_max: int = 64,
    fast_path: bool = True,
    sample_mask: Optional[np.ndarray] = None,
    t_limit: int = 4200,
) -> BatchResult:
    """Decide wins-for-all-s for a batch of strategy indices.

    Per final-edge candidate the reachable-edge set is iterated; a length
    ``s >= 2`` is winning iff some candidate's set at time ``s - 1`` contains
    an edge whose head is the candidate tail.  Wins are required explicitly
    for ``s <= s_max``; the tail beyond is closed either by a loop-candidate
    hit (absorbing, so all longer lengths stay winning) or by a repeat of
    the full per-candidate state vector.
    """
    n = bt.n
    B = len(indices)
    init, tb, tg, lp = _batch_tables(indices, bt)
    allowed = bt.compat[None, :]
    rr = bt.out_mask[init][:, None] & allowed  # (B, E) per-candidate state

    ok = np.ones(B, dtype=bool)  # all explicit lengths so far are wins
    first_fail = np.zeros(B, dtype=np.int64)
    certified = np.zeros(B, dtype=bool)
    dispatched = np.zeros(B, dtype=bool)
    K = 2 * (n - 2) + 1 if n >= 2 else 1
    loop_hit = np.zeros(B, dtype=bool)

    active = np.arange(B)
    t = 1
    anchor = None
    anchor_t = 0
    while len(active) and t <= t_limit:
        hits = (rr & tg) != 0  # (b, E) candidate wins at s = t + 1
        win = hits.any(axis=1)
        newly_failed = ~win & (first_fail[active] == 0)
        first_fail[active[newly_failed]] = t + 1
        ok[active[newly_failed]] = False
        if t <= K:
            loop_hit[active] |= (hits & lp).any(axis=1)
        if fast_path and t == K:
            disp = loop_hit[active] & ok[active]
            if sample_mask is not None:
                disp &= ~sample_mask[active]
            dispatched[active[disp]] = True
            certified[active[disp]] = True
            keep = ~disp
            active = active[keep]
            rr, tb, tg, lp = rr[keep], tb[keep], tg[keep], lp[keep]
            if anchor is not None:  # set already when s_max < K
                anchor = anchor[keep]
            if not len(active):
                break
        if t >= s_max:
            if anchor is None or t >= anchor_t * 2:
                anchor = rr.copy()
                anchor_t = t
            elif t > anchor_t:
                same = (rr == anchor).all(axis=1) & ok[active]
                if same.any():
                    certified[active[same]] = True
                    keep = ~same
                    active = active[keep]
                    rr, tb, tg, lp = rr[keep], tb[keep], tg[keep], lp[keep]
                    anchor = anchor[keep]
            # Failed strategies stop iterating once past the explicit range.
            dead = ~ok[active]
            if dead.any():
                keep = ~dead
                active = active[keep]
                rr, tb, tg, lp = rr[keep], tb[keep], tg[keep], lp[keep]
                if anchor is not None:
                    anchor = anchor[keep]
        if not len(active):
            break
        rr = _step(rr, tb, allowed)
        t += 1

    uncertified = np.zeros(B, dtype=bool)
    uncertified[active] = ok[active]
    wins_all = ok & certified
    return BatchResult(wins_all, dispatched, first_fail, uncertified)


def _oracle_gate(n: int, seed: int = 20240901, samples: int = 150, s_hi: int = 6) -> None:
    """Refuse to run the big sweep until the certificate matches the DFS
    oracle and the vectorized engine matches the certificate."""
    rng = np.random.default_rng(seed)
    space = strategy_space(n)
    idxs = rng.integers(0, space, size=samples, dtype=np.uint64)
    for idx in idxs:
        strat = index_to_strategy(int(idx), n)
        cert = delayer_wins_lengths(strat, s_max=16)
        for s in range(1, s_hi + 1):
            if cert.wins(s) != brute_force_delayer_wins(strat, s):
                raise AssertionError(f"oracle gate: certificate mismatch at index {idx}, s={s}")
    bt = board_tables(n)
    res = certify_batch(idxs, bt, s_max=16, fast_path=False)
    for row, idx in enumerate(idxs):
        strat = index_to_strategy(int(idx), n)
        cert = delayer_wins_lengths(strat, s_max=16)
        if bool(res.wins_all[row]) != cert.wins_all():
            raise AssertionError(f"oracle gate: engine mismatch at index {idx}")


def _theorem_span(
    args: tuple,
) -> tuple[int, int, list[int], int, int]:
    """Worker: certify one contiguous index span; returns span stats."""
    (lo, hi, n, s_max, fast_path, batch_size, sample_denom) = args
    bt = board_tables(n)
    ces: list[int] = []
    fast = 0
    checked = 0
    for start in range(lo, hi, batch_size):
        stop = min(start + batch_size, hi)
        idxs = np.arange(start, stop, dtype=np.uint64)
        sample = (idxs * np.uint64(2654435761) % np.uint64(sample_denom)) == 0
        res = certify_batch(idxs, bt, s_max=s_max, fast_path=fast_path, sample_mask=sample)
        bad = ~res.wins_all
        if bad.any():
            ces.extend(int(i) for i in idxs[bad])
        fast += int(res.fast_path.sum())
        # Cross-check: sampled strategies skip the fast path by construction
        # and must still certify via the full route (disagreement would
        # surface as a counterexample above).
        checked += int(sample.sum())
    return lo, hi, ces, fast, checked


def verify_theorem_main(
    n: int = 3,
    s_max: int = 64,
    threads: int = 1,
    fast_path: bool = True,
    batch_size: int = 1 << 18,
    checkpoint: Optional[Path] = None,
    ce_dir: Optional[Path] = None,
    progress: bool = False,
    sample: Optional[int] = None,
    seed: int = 20240901,
) -> CampaignReport:
    """Every strategy must be Delayer-won for all lengths.

    Expected outcome: zero counterexamples at three or more holes; at two
    holes Prover-winning tables exist and are reported.  Boards beyond
    three holes are too large to sweep and require ``sample``.
    """
    t0 = time.time()
    if n > 3 and sample is None:
        raise ValueError("full sweeps stop at n=3; pass sample= for larger boards")
    _oracle_gate(min(n, 3))
    if sample is not None:
        rng = np.random.default_rng(seed)
        idxs = np.sort(
            rng.integers(0, strategy_space(n), size=sample, dtype=np.uint64)
        )
        bt = board_tables(n)
        res = certify_batch(idxs, bt, s_max=s_max, fast_path=fast_path)
        bad = sorted(int(i) for i in idxs[~res.wins_all])
        serialized = [format_strategy(index_to_strategy(i, n)) for i in bad]
        return CampaignReport(
            claim=f"theorem-main-n{n}-sampled",
            space=sample,
            counterexamples=serialized,
            seconds=time.time() - t0,
            details={"fast_path": int(res.fast_path.sum())},
        )
    total = strategy_space(n)
    done: dict[tuple[int, int], list[int]] = {}
    if checkpoint and Path(checkpoint).exists():
        for line in Path(checkpoint).read_text().splitlines():
            parts = line.split()
            if len(parts) >= 3 and parts[0] == "batch":
                lo, hi = int(parts[1]), int(parts[2])
                done[(lo, hi)] = [int(x) for x in parts[3:]]

    ces: list[int] = []
    fast_count = 0
    sampled = 0
    sample_denom = 100

    def note_batch(start: int, stop: int, batch_ces: list[int], fast: int, checked: int) -> None:
        nonlocal fast_count, sampled
        ces.extend(batch_ces)
        fast_count += fast
        sampled += checked
        if checkpoint:
            with open(checkpoint, "a") as fh:
                fh.write(
                    "batch " + " ".join(str(x) for x in [start, stop, *batch_ces]) + "\n"
                )
        if progress:
            pct = 100.0 * stop / total
            print(f"  [{pct:5.1f}%] indices {stop}/{total} fast={fast_count}", flush=True)

    jobs = []
    for start in range(0, total, batch_size):
        stop = min(start + batch_size, total)
        if (start, stop) in done:
            ces.extend(done[(start, stop)])
        else:
            jobs.append((start, stop, n, s_max, fast_path, batch_size, sample_denom))

    if threads <= 1:
        for job in jobs:
            lo, hi, batch_ces, fast, checked = _theorem_span(job)
            note_batch(lo, hi, batch_ces, fast, checked)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            for lo, hi, batch_ces, fast, checked in pool.map(
                _theorem_span, jobs, chunksize=1
            ):
                note_batch(lo, hi, batch_ces, fast, checked)

    ces = sorted(set(ces))
    serialized = []
    for idx in ces:
        strat = index_to_strategy(idx, n)
        serialized.append(format_strategy(strat))
        if ce_dir:
            Path(ce_dir).mkdir(parents=True, exist_ok=True)
            (Path(ce_dir) / f"strategy-{idx}.strat").write_text(serialized[-1])
    return CampaignReport(
        claim=f"theorem-main-n{n}",
        space=total,
        counterexamples=serialized,
        seconds=time.time() - t0,
        details={"fast_path": fast_count, "sampled_crosschecks": sampled},
    )


def verify_loop_bound(
    n: int = 3,
    batch_size: int = 1 << 18,
    progress: bool = False,
    limit: Optional[int] = None,
) -> CampaignReport:
    """Shortest qualifying path to any reachable loop has length at most
    ``2(n-2)+1``, exhaustively over every strategy table.

    ``limit`` truncates the sweep for unit tests; the campaign runs full.
    """
    t0 = time.time()
    bt = board_tables(n)
    K = 2 * (n - 2) + 1
    # Walks may not reuse the loop edge itself (it carries the loop hole).
    allowed = (bt.compat & ~bt.bits)[None, :]
    total = min(strategy_space(n), limit) if limit else strategy_space(n)
    bad: list[str] = []
    for start in range(0, total, batch_size):
        stop = min(start + batch_size, total)
        idxs = np.arange(start, stop, dtype=np.uint64)
        init, t_base, targets, is_loop = _batch_tables(idxs, bt)
        # Exact-length sets up to the bound give the shortest-hit check; the
        # cumulative union (a monotone fixpoint) decides reachability-ever.
        rr = bt.out_mask[init][:, None] & allowed
        hit_by_k = np.zeros(rr.shape, dtype=bool)
        union = rr.copy()
        for _t in range(1, K + 1):
            hit_by_k |= (rr & targets) != 0
            rr = _step(rr, t_base, allowed)
            union |= rr
        while True:
            grown = union | _step(union, t_base, allowed)
            if (grown == union).all():
                break
            union = grown
        ever_hit = (union & targets) != 0
        at_init = init[:, None] == bt.cand_tail[None, :]
        violation = is_loop & ever_hit & ~hit_by_k & ~at_init
        rows = violation.any(axis=1)
        for row in np.nonzero(rows)[0]:
            bad.append(format_strategy(index_to_strategy(int(idxs[row]), n)))
        if progress:
            print(f"  loop bound {stop}/{total}", flush=True)
    return CampaignReport(
        claim=f"loop-bound-n{n}",
        space=total,
        counterexamples=bad,
        seconds=time.time() - t0,
    )


# ---------------------------------------------------------------------------
# Small exhaustive campaigns.


def verify_small_n(n: int, s_values: Sequence[int] = ()) -> CampaignReport:
    """Prover's small-board strategy wins every play, exhaustively."""
    t0 = time.time()
    if n == 1:
        s_values = s_values or (2,)
    else:
        s_values = s_values or (3, 6)
    bad = []
    space = 0
    for s in s_values:
        strat = prover_small_n(n, s)
        for play in all_plays(strat):
            space += 1
            result = play_simplified(strat, play)
            if not result.prover_won:
                bad.append(f"n={n} s={s} answers={play.answers}")
    return CampaignReport(
        claim=f"small-n-{n}",
        space=space,
        counterexamples=bad,
        seconds=time.time() - t0,
    )


def verify_subset_prop(n: int) -> CampaignReport:
    """The subset-labeled Prover wins all plays; lowering the round count to
    the hole count must re-open Delayer wins (negative control)."""
    t0 = time.time()
    if n > 4:
        raise ValueError("answer space grows as n**(n+1); keep n <= 4")
    strat = subset_prover(n)
    bad = []
    space = 0
    for play in all_plays(strat):
        space += 1
        if not play_simplified(strat, play).prover_won:
            bad.append(f"answers={play.answers}")
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
        seconds=time.time() - t0,
        details={"plays": space},
    )


def verify_order_axioms(
    b: int, h: int, triple_budget: int = 1_000_000, seed: int = 7
) -> CampaignReport:
    """Antisymmetry, transitivity and trichotomy of the tree order plus
    strict order reversal of the ordinal embedding."""
    t0 = time.time()
    ts = list(treemod.all_trees(b, h))
    m = len(ts)
    bad = []
    cmp = [[treemod.tree_compare(ts[i], ts[j]) for j in range(m)] for i in range(m)]
    L, Eq, G = treemod.Ordering.LESS, treemod.Ordering.EQUAL, treemod.Ordering.GREATER
    for i in range(m):
        for j in range(m):
            a, rev = cmp[i][j], cmp[j][i]
            if (a is Eq) != (i == j):
                bad.append(f"equality failure {i},{j}")
            if (a is L and rev is not G) or (a is G and rev is not L):
                bad.append(f"antisymmetry failure {i},{j}")
    triples = m**3
    if triples <= triple_budget:
        universe: Iterable[tuple[int, int, int]] = itertools.product(
            range(m), range(m), range(m)
        )
    else:
        rng = np.random.default_rng(seed)
        picks = rng.integers(0, m, size=(triple_budget, 3))
        universe = (tuple(row) for row in picks)
    for i, j, k in universe:
        if cmp[i][j] is L and cmp[j][k] is L and cmp[i][k] is not L:
            bad.append(f"transitivity failure {i},{j},{k}")
    emb = [treemod.ordinal_embed(t, b + 1, h) for t in ts]
    for i in range(m):
        for j in range(m):
            if cmp[i][j] is L and not emb[i] > emb[j]:
                bad.append(f"embedding not order-reversing at {i},{j}")
            if i != j and emb[i] == emb[j]:
                bad.append(f"embedding not injective at {i},{j}")
    return CampaignReport(
        claim=f"order-axioms-b{b}h{h}",
        space=m * m,
        counterexamples=bad[:32],
        seconds=time.time() - t0,
        details={"trees": m, "triples": min(triples, triple_budget)},
    )


def verify_g2_properties(
    n_values: Sequence[int] = (3, 4, 5),
    C: int = 2,
    playouts: int = 10_000,
    seed: int = 11,
    ramify_n: int = 3,
) -> CampaignReport:
    """Monotone growth and halting of random playouts, plus the exhaustive
    root-ramify win."""
    t0 = time.time()
    bad = []
    total = 0
    max_steps = 0
    per_n = max(1, playouts // len(n_values))
    for n in n_values:
        cfg = LogPower(n, C)
        branching = 3
        bound = 2 ** (branching ** (C + 1))
        for i in range(per_n):
            tree = g2mod.random_nc_tree(n, C, branching, seed * 1000003 + i)
            oracle = treemod.TreeOracle.explicit(tree)
            total += 1
            try:
                result = g2mod.random_playout(cfg, oracle, seed + i, step_cap=50_000)
            except g2mod.ContractViolation as exc:
                bad.append(f"n={n} playout {i}: {exc}")
                continue
            max_steps = max(max_steps, result.steps)
            if result.steps > bound:
                bad.append(f"n={n} playout {i} exceeded instantiated bound")
    cfg = LogPower(ramify_n, C)
    tree, strategy = g2mod.prover_root_ramify(ramify_n, cfg)
    all_win, branches, depth = g2mod.exhaust_delayer(
        cfg, treemod.TreeOracle.explicit(tree), strategy
    )
    total += branches
    if not all_win:
        bad.append(f"root-ramify lost some branch at n={ramify_n}")
    return CampaignReport(
        claim="g2-properties",
        space=total,
        counterexamples=bad,
        seconds=time.time() - t0,
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
        from pebblegames.matching import Query

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


def verify_g2prime(plays: int = 1000, seed: int = 12345, n: int = 3, C: int = 2) -> CampaignReport:
    """Winner preservation through the aux-free encoding on seeded plays."""
    t0 = time.time()
    cfg = LogPower(n, C)
    bad = []
    for i in range(plays):
        tree = g2mod.random_nc_tree(n, C, 3, seed * 31 + i)
        oracle = treemod.TreeOracle.explicit(tree)
        strategy = _seeded_oblivious(cfg, seed + i)

        def answer_for(key: tuple, q, tag: int) -> object:
            options = sorted(
                minimal_covers(q, None, GameSize(cfg.n)), key=lambda m: m.entries
            )
            return options[g2mod._hash_int("dl", seed, tag, key, q) % len(options)]

        def delayer(pos: g2mod.G2Position, q) -> object:
            key = tuple(
                sorted((v, lab.matching.entries, lab.aux) for v, lab in pos.labels.items())
            )
            return answer_for(key, q, i)

        result = g2mod.g2_play(cfg, oracle, strategy, delayer, step_cap=400)

        cfg_p, tree_p, strat_p, codec = g2p.to_g2prime(strategy, cfg, oracle)

        def delayer_p(pos: g2p.G2PrimePosition, q) -> object:
            key = tuple(
                sorted(
                    (codec.vertex_down(v), m.entries, codec.aux_of(v))
                    for v, m in pos.labels.items()
                )
            )
            return answer_for(key, q, i)

        winner_p, steps_p, _ = g2p.g2prime_play(cfg_p, tree_p, strat_p, delayer_p, step_cap=400)
        if result.winner != winner_p or result.steps != steps_p:
            bad.append(f"play {i}: {result.winner}@{result.steps} vs {winner_p}@{steps_p}")
    return CampaignReport(
        claim="g2prime-equivalence",
        space=plays,
        counterexamples=bad,
        seconds=time.time() - t0,
    )


def verify_figures(horizon: int = 60) -> CampaignReport:
    """Every shipped figure certificate must validate over the window."""
    t0 = time.time()
    bad = []
    for name in FIGURE_NAMES:
        fig = load_figure(name)
        if not fig.check(horizon):
            bad.append(name)
    return CampaignReport(
        claim="figures",
        space=len(FIGURE_NAMES),
        counterexamples=bad,
        seconds=time.time() - t0,
    )


def random_strategy(rng: np.random.Generator, n: int, s: int = 1) -> SimpleStrategy:
    return index_to_strategy(int(rng.integers(0, strategy_space(n))), n, s)


def verify_php_trees(
    build_samples: int = 10_000,
    biconditional_samples: int = 1_000,
    seed: int = 99,
    n: int = 3,
) -> CampaignReport:
    """Built trees are valid and symmetric; completeness coincides with the
    absence of winning canonical anti-strategies; the exhaustive loop bound
    is delegated to its own campaign."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    bad = []
    for i in range(build_samples):
        for size_n in (3, 4):
            strat = random_strategy(rng, size_n)
            tree = phpmod.build_php_tree(strat)
            if not phpmod.validate_php_tree(tree):
                bad.append(f"invalid build at sample {i} n={size_n}")
            if not phpmod.is_symmetric(tree):
                bad.append(f"asymmetric build at sample {i} n={size_n}")
        if len(bad) > 8:
            break
    window = range(n + 1, 3 * n + 4)
    s_top = max(window)
    # Complete trees are vanishingly rare among random tables, so seed the
    # sample with constructed ones: the successor table never revisits a
    # pigeon, and completeness is invariant under relabeling.
    succ = make_strategy(
        n, 1, 0, {(p, h): min(p + 1, n) for p in range(n + 1) for h in range(n)}
    )
    planted = [succ, canonical_strategy(succ)]
    for pp in ([1, 0] + list(range(2, n + 1)), list(range(1, n + 1)) + [0]):
        rows = [[0] * n for _ in range(n + 1)]
        for p in range(n + 1):
            for h in range(n):
                rows[pp[p]][(h + 1) % n] = pp[succ.table[p][h]]
        planted.append(
            SimpleStrategy(GameSize(n), 1, pp[0], tuple(tuple(r) for r in rows))
        )
    for i in range(-len(planted), biconditional_samples):
        strat = planted[i] if i < 0 else random_strategy(rng, n)
        tree = phpmod.build_php_tree(strat)
        complete = phpmod.is_complete(tree)
        # Canonical answers are history-driven, so the plays at shorter
        # lengths are exactly the truncations of the full-window plays.  A
        # canonical anti-strategy only counts as winning when it never has
        # to give up (the construction fails at the give-up moment).
        canonical_wins = {s: False for s in window}
        for cp in all_canonical_plays(strat.with_s(s_top)):
            for s in window:
                if canonical_wins[s]:
                    continue
                if cp.gave_up_step is not None and cp.gave_up_step <= s:
                    continue
                short = play_simplified(strat.with_s(s), Play(cp.play.answers[:s]))
                if short.outcome is PlayOutcome.DELAYER_WINS:
                    canonical_wins[s] = True
            if all(canonical_wins.values()):
                break
        if complete and any(canonical_wins.values()):
            bad.append(f"complete tree but canonical win at sample {i}")
        if not complete and not all(canonical_wins.values()):
            bad.append(f"incomplete tree but no canonical win at sample {i}")
    return CampaignReport(
        claim="php-trees",
        space=build_samples * 2 + biconditional_samples,
        counterexamples=bad,
        seconds=time.time() - t0,
    )


def verify_oracle_equivalence(
    n3_samples: int = 10_000,
    n4_samples: int = 1_000,
    s_hi: int = 8,
    seed: int = 4242,
) -> CampaignReport:
    """The certificate agrees with the brute-force DFS on every tested
    length (the module's primary correctness gate)."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    bad = []
    for n, samples in ((3, n3_samples), (4, n4_samples)):
        for i in range(samples):
            strat = random_strategy(rng, n)
            cert = delayer_wins_lengths(strat, s_max=max(s_hi, 16))
            for s in range(1, s_hi + 1):
                if cert.wins(s) != brute_force_delayer_wins(strat, s):
                    bad.append(f"n={n} sample {i} s={s}")
                    break
            if len(bad) > 8:
                break
    return CampaignReport(
        claim="oracle-equivalence",
        space=(n3_samples + n4_samples) * s_hi,
        counterexamples=bad,
        seconds=time.time() - t0,
    )
