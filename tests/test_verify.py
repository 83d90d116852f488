import functools
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pebblegames import trees as treemod
from pebblegames import verify as ver
from pebblegames.simple_game import (
    all_canonical_plays,
    brute_force_delayer_wins,
    delayer_wins_lengths,
    format_strategy,
    prover_small_n,
    won_lengths,
)
from pebblegames.trees import Ordering
from pebblegames.verify import (
    CheckpointMismatch,
    board_tables,
    certify_batch,
    decode_batch,
    index_to_strategy,
    loop_bound_batch,
    strategy_space,
    verify_g2prime,
    verify_g2_properties,
    verify_loop_bound,
    verify_order_axioms,
    verify_small_n,
    verify_subset_prop,
    verify_theorem_main,
)


def test_space_counts():
    assert strategy_space(1) == 8
    assert strategy_space(3) == 4**13 == 67_108_864


@st.composite
def _decode_batches(draw):
    """A board, a batch of its indices in an index dtype the engine receives,
    with both ends of the space and, at n = 4, indices within 2 of multiples
    of 5^13, where the uint32 limbs of ``decode_batch`` split."""
    n = draw(st.sampled_from((1, 2, 3, 4)))
    space = strategy_space(n)
    idxs = [0, space - 1, *draw(st.lists(st.integers(0, space - 1), max_size=100))]
    if n == 4:
        for m in draw(st.lists(st.integers(1, space // 5**13 - 1), min_size=1, max_size=8)):
            idxs += range(m * 5**13 - 2, m * 5**13 + 3)
    return n, idxs, draw(st.sampled_from((np.int64, np.uint64)))


@settings(max_examples=100, deadline=None)
@given(batch=_decode_batches())
def test_decode_batch_matches_index_to_strategy(batch):
    n, idxs, dtype = batch
    init, heads = decode_batch(np.array(idxs, dtype=dtype), n)
    for row, idx in enumerate(idxs):
        strat = index_to_strategy(idx, n)
        assert init[row] == strat.init
        assert heads[row].tolist() == [q for cells in strat.table for q in cells]


def test_enumerate_n1_full():
    strategies = [index_to_strategy(i, 1) for i in range(strategy_space(1))]
    assert len(strategies) == 8
    assert len(set(strategies)) == 8
    # Distinct indices decode to distinct tables over the whole n = 2 space.
    assert len({index_to_strategy(i, 2) for i in range(strategy_space(2))}) == 2187


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.sampled_from((1, 2, 3)))
def test_winning_lengths_are_invariant_under_relabeling(data, n):
    strat = index_to_strategy(data.draw(st.integers(0, strategy_space(n) - 1)), n)
    pp = data.draw(st.permutations(range(n + 1)))
    hp = data.draw(st.permutations(range(n)))
    relabeled = delayer_wins_lengths(ver._relabel(strat, pp, hp))
    # Relabeling permutes the bits of each joint state, so the orbit keeps
    # its hits and its first repeat: the whole certificate, and with it
    # every wins(s), is unchanged.
    assert relabeled == delayer_wins_lengths(strat)


def test_certify_batch_matches_certificate():
    bt = board_tables(3)
    rng = np.random.default_rng(7)
    idxs = rng.integers(0, strategy_space(3), size=800, dtype=np.uint64)
    res = certify_batch(idxs, bt)
    assert not res.uncertified.any()
    for row in range(0, 800, 7):
        strat = index_to_strategy(int(idxs[row]), 3)
        assert bool(res.wins_all[row]) == delayer_wins_lengths(strat).wins_all()


def _first_loss(cert) -> int:
    """The least losing length of a certificate, 0 when every length wins."""
    horizon = cert.preperiod + cert.period
    return next((s for s in range(1, horizon + 1) if not cert.wins(s)), 0)


@st.composite
def _index_batches(draw):
    """A board, a batch of its indices and a hold-back mask (or None)."""
    n = draw(st.sampled_from((1, 2, 3, 4)))
    # Up to 200 tables, the size drawn first so that most batches span
    # several 64-table words and end in a partial one, whose padding must not
    # reach the result.
    size = draw(st.integers(1, 200))
    idxs = draw(st.lists(st.integers(0, strategy_space(n) - 1), min_size=size, max_size=size))
    held = draw(st.none() | st.lists(st.booleans(), min_size=len(idxs), max_size=len(idxs)))
    return n, idxs, held


@settings(max_examples=60, deadline=None)
@given(batch=_index_batches())
@example(batch=(4, [5, 1105], [False, True]))
def test_certify_batch_matches_certificate_every_width(batch):
    n, idxs, held = batch
    mask = None if held is None else np.array(held)
    res = certify_batch(np.array(idxs, dtype=np.uint64), board_tables(n), sample_mask=mask)
    assert not res.uncertified.any()
    if mask is not None:
        assert not res.fast_path[mask].any()
    # A table is flagged once, when it leaves: a fast-path exit is a win and
    # no row both fails and wins.
    assert not (res.fast_path & ~res.wins_all).any()
    assert not (res.wins_all & (res.first_fail > 0)).any()
    for row, idx in enumerate(idxs):
        cert = delayer_wins_lengths(index_to_strategy(idx, n))
        assert bool(res.wins_all[row]) == cert.wins_all()
        assert int(res.first_fail[row]) == _first_loss(cert)


@pytest.mark.parametrize("n, losers", [(1, 4), (2, 108)])
@pytest.mark.parametrize("held", [False, True])
def test_certify_batch_whole_space_matches_certificate(n, losers, held):
    idxs = np.arange(strategy_space(n), dtype=np.uint64)
    res = certify_batch(idxs, board_tables(n), sample_mask=np.full(len(idxs), held))
    certs = [delayer_wins_lengths(index_to_strategy(i, n)) for i in range(len(idxs))]
    assert res.wins_all.tolist() == [c.wins_all() for c in certs]
    assert res.first_fail.tolist() == [_first_loss(c) for c in certs]
    assert int((~res.wins_all).sum()) == losers
    assert not res.uncertified.any()
    assert res.fast_path.any() != held


# Two ``live &`` guards keep a table that has left from being routed again
# while its column waits in the planes.  Dropping the one in the
# ``first_fail`` update is caught: the 108 losing tables at n = 2 fail at
# t = 2, an anchor where fewer than half of the columns have left, so they
# stay in the planes, and the mutant overwrites their failing length when
# they fail again (three tests fail).  Dropping the one in the ``looped``
# mask is an equivalent mutant: a fast-path table is already a win; a table
# that left by a repeat never hits a loop later, since the repeat means its
# cycle's hits were all seen before and none was a loop; no losing table at
# n <= 2 hits a loop after its first failure (seen by stepping both spaces
# past every table's repeat); and n >= 3 has no losing table.
@pytest.mark.parametrize("n, size, fast", [(3, 1 << 18, 246_199), (4, 1 << 17, 127_941)])
def test_certify_batch_packs_out_only_at_brent_anchors(n, size, fast, monkeypatch):
    from pebblegames import verify as ver

    stayed = {3: 29_247, 4: 8_465}[n]  # the tables that do not leave at t = 1

    idxs = np.sort(np.random.default_rng(n).choice(strategy_space(n), size, replace=False))
    idxs = idxs.astype(np.uint64)
    held = (idxs * np.uint64(2654435761) % np.uint64(100)) == 0  # as in _certify_job
    decodes, steps = [], []  # (steps taken so far, decoded indices)
    planes, step = ver._table_planes, ver.Walk.step
    monkeypatch.setattr(
        ver, "_table_planes", lambda i, n: decodes.append((len(steps), i.copy())) or planes(i, n)
    )
    monkeypatch.setattr(ver.Walk, "step", lambda *a: steps.append(1) or step(*a))
    res = certify_batch(idxs, board_tables(n), sample_mask=held)
    assert res.wins_all.all() and not res.uncertified.any()
    assert int(res.fast_path.sum()) == fast
    # The first step decodes each index once, in blocks of at most
    # TABLE_BLOCK rows.
    blocks = -(-size // ver.TABLE_BLOCK)
    assert all(taken == 0 and len(d) <= ver.TABLE_BLOCK for taken, d in decodes[:blocks])
    assert np.concatenate([d for _, d in decodes[:blocks]]).tolist() == idxs.tolist()
    # Then the loop decodes the tables that did not leave at t = 1 (by a
    # failure or the fast path; no state repeats there).
    (taken, first), *packed = decodes[blocks:]
    in_loop = np.isin(idxs, first)
    assert taken == 0 and int(in_loop.sum()) == len(first) == stayed
    assert (res.fast_path | (res.first_fail == 2))[~in_loop].all()
    # A later decode follows step t at an anchor t = 2, 4, ..., at most once
    # per anchor, and keeps at most half of the tables of the decode before.
    at = [taken + 1 for taken, _ in packed]
    assert all(t & (t - 1) == 0 for t in at) and sorted(set(at)) == at
    assert len(at) < (len(steps) + 1).bit_length() - 1  # some anchor kept its columns
    for (_, before), (_, after) in zip([(0, first), *packed], packed):
        assert 2 * len(after) <= len(before) and np.isin(after, before).all()


def _step1_loop_exit(strat) -> bool:
    """The step-1 loop lemma on plain integers: some first edge (init, h_f)
    leads to a pigeon p = F(init, h_f) with a self-loop (p, h_c), F(p, h_c)
    = p, that is compatible with the first edge: init == p exactly when
    h_f == h_c."""
    table, init = strat.table, strat.init
    return any(
        table[p][h_c] == p and (init == p) == (h_f == h_c)
        for h_f, p in enumerate(table[init])
        for h_c in range(strat.size.n)
    )


@pytest.mark.parametrize("n, holds", [(1, 4), (2, 1755), (3, 3678), (4, 3888)])
def test_first_step_loop_exits_match_the_step_1_loop_lemma(n, holds, monkeypatch):
    # With T_LIMIT = 1 the walk stops after its first step, so a fast-path
    # table is one that left at step 1: the lemma must hold for it, and
    # every table the lemma holds for must leave there unless it is held
    # back.  The whole space at n <= 2, 4,096 seeded tables at n = 3 and 4.
    space = strategy_space(n)
    if space <= 4096:
        idxs = np.arange(space, dtype=np.uint64)
    else:
        idxs = np.random.default_rng(n).choice(space, 4096, replace=False).astype(np.uint64)
    lemma = np.array([_step1_loop_exit(index_to_strategy(int(i), n)) for i in idxs])
    assert int(lemma.sum()) == holds
    held = idxs * np.uint64(ver.HOLD_BACK_MULTIPLIER) % np.uint64(ver.HOLD_BACK_MODULUS) == 0
    monkeypatch.setattr(ver, "T_LIMIT", 1)
    for mask, expected in ((None, lemma), (held, lemma & ~held)):
        got = certify_batch(idxs, board_tables(n), sample_mask=mask).fast_path
        assert not (got != expected).any(), idxs[got != expected][:10]


@functools.cache
def _certificate(idx: int, n: int):
    return delayer_wins_lengths(index_to_strategy(idx, n))


@functools.cache
def _block_edge_draw(n: int) -> np.ndarray:
    """Seeded distinct indices; each block-edge batch is a prefix of them."""
    draw = np.random.default_rng(n).choice(strategy_space(n), 3 * (1 << 14) + 65, replace=False)
    return draw.astype(np.uint64)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize(
    "blocks, extra",
    [(1, -1), (1, 0), (1, 1), (3, 65)],
    ids=["block-1", "block", "block+1", "3blocks+65"],
)
def test_certify_batch_at_block_edges(n, blocks, extra):
    # The first step runs over blocks of TABLE_BLOCK tables; a batch ending
    # just short of, at, or past a block edge must give every row the
    # certificate's verdict, the rows of its last, partial block among them.
    from pebblegames import verify as ver

    size = blocks * ver.TABLE_BLOCK + extra
    idxs = _block_edge_draw(n)[:size]
    partial = np.arange(size // ver.TABLE_BLOCK * ver.TABLE_BLOCK, size)
    rows = np.union1d(partial, np.random.default_rng(size).choice(size, 300, replace=False))
    certs = [_certificate(int(idxs[r]), n) for r in rows]
    hashed = (idxs * np.uint64(2654435761) % np.uint64(100)) == 0  # as in _certify_job
    for held in (None, hashed, np.ones(size, dtype=bool)):
        res = certify_batch(idxs, board_tables(n), sample_mask=held)
        assert not res.uncertified.any()
        if held is not None:
            assert not res.fast_path[held].any()
        assert res.wins_all[rows].tolist() == [c.wins_all() for c in certs]
        assert res.first_fail[rows].tolist() == [_first_loss(c) for c in certs]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_board_tables_are_cached_and_read_only(n):
    bt = board_tables(n)
    assert board_tables(n) is bt
    walks = [*vars(bt.certify).values(), *vars(bt.loop).values()]
    for array in (bt.loop_plane, *walks):
        assert not array.flags.writeable
        if array.size:
            first = (0,) * array.ndim
            with pytest.raises(ValueError, match="read-only"):
                array[first] = array[first]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("size", [0, 1])
def test_batches_of_zero_and_one_table(n, size):
    # A zero-table batch has planes of zero words, which the kernels must
    # step and reduce like any other width.
    idxs = np.random.default_rng(n).choice(strategy_space(n), size, replace=False).astype(np.uint64)
    bt = board_tables(n)
    certs = [delayer_wins_lengths(index_to_strategy(int(i), n)) for i in idxs]
    for held in (None, np.zeros(size, dtype=bool), np.ones(size, dtype=bool)):
        res = certify_batch(idxs, bt, sample_mask=held)
        for got in (res.wins_all, res.fast_path, res.first_fail, res.uncertified):
            assert got.shape == (size,)
        assert res.wins_all.tolist() == [c.wins_all() for c in certs]
        assert res.first_fail.tolist() == [_first_loss(c) for c in certs]
        assert not res.uncertified.any()
    got = loop_bound_batch(idxs, bt)
    assert got.tolist() == [_breaks_loop_bound(index_to_strategy(int(i), n)) for i in idxs]


def test_certify_batch_n2_finds_prover_wins():
    bt = board_tables(2)
    idxs = np.arange(strategy_space(2), dtype=np.uint64)
    res = certify_batch(idxs, bt)
    losers = int((~res.wins_all).sum())
    assert losers > 0
    paper = prover_small_n(2, 3).with_s(1)
    paper_idx = next(i for i in range(strategy_space(2)) if index_to_strategy(i, 2) == paper)
    assert not res.wins_all[paper_idx]
    # Spot-check a few flagged tables against the oracle.
    flagged = np.nonzero(~res.wins_all)[0][:10]
    for idx in flagged:
        strat = index_to_strategy(int(idx), 2)
        assert brute_force_delayer_wins(strat, 8) != frozenset(range(1, 9))


def test_fast_path_agrees_with_slow_path():
    bt = board_tables(3)
    rng = np.random.default_rng(11)
    idxs = rng.integers(0, strategy_space(3), size=3000, dtype=np.uint64)
    fast = certify_batch(idxs, bt, sample_mask=None)
    slow = certify_batch(idxs, bt, sample_mask=np.ones(len(idxs), dtype=bool))
    assert (fast.wins_all == slow.wins_all).all()
    assert (fast.first_fail == slow.first_fail).all()
    assert fast.fast_path.sum() > 0 and not slow.fast_path.any()


def test_verify_small_n_campaign():
    r1 = verify_small_n(1)
    assert r1.ok and r1.space == 1  # one hole, one play of length 2? no: 1**2
    r2 = verify_small_n(2)
    assert r2.ok
    assert r2.space == 2**3 + 2**6


def test_verify_subset_campaign():
    r3 = verify_subset_prop(3)
    assert r3.ok and r3.details["plays"] == 81
    r4 = verify_subset_prop(4)
    assert r4.ok and r4.details["plays"] == 4**5 == 1024


def test_verify_order_axioms_small(monkeypatch):
    calls = []
    compare = treemod.tree_compare
    monkeypatch.setattr(treemod, "tree_compare", lambda t, u: calls.append(1) or compare(t, u))
    rep = verify_order_axioms(2, 2)
    assert rep.ok
    assert rep.details["trees"] == 25
    assert len(calls) == 25 * 25


def _order_axiom_failures_by_loops(b, h, triple_budget=1_000_000, seed=7):
    """The checks of ``verify_order_axioms``, written as plain loops over the
    same pairs, triples and messages."""
    ts = list(treemod.all_trees(b, h))
    m = len(ts)
    cmp = [[treemod.tree_compare(t, u) for u in ts] for t in ts]
    L, Eq, G = Ordering.LESS, Ordering.EQUAL, Ordering.GREATER
    bad = []
    for i, j in itertools.product(range(m), repeat=2):
        a, rev = cmp[i][j], cmp[j][i]
        if (a is Eq) != (i == j):
            bad.append(f"equality failure {i},{j}")
        if (a is L and rev is not G) or (a is G and rev is not L):
            bad.append(f"antisymmetry failure {i},{j}")
    if m**3 <= triple_budget:
        triples = itertools.product(range(m), repeat=3)
    else:
        triples = np.random.default_rng(seed).integers(0, m, size=(triple_budget, 3)).tolist()
    for i, j, k in triples:
        if cmp[i][j] is L and cmp[j][k] is L and cmp[i][k] is not L:
            bad.append(f"transitivity failure {i},{j},{k}")
    emb = [treemod.ordinal_embed(t, b + 1, h) for t in ts]
    for i, j in itertools.product(range(m), repeat=2):
        if cmp[i][j] is L and not emb[i] > emb[j]:
            bad.append(f"embedding not order-reversing at {i},{j}")
        if i != j and emb[i] == emb[j]:
            bad.append(f"embedding not injective at {i},{j}")
    return bad[:32]


_TREE_COMPARE, _ORDINAL_EMBED = treemod.tree_compare, treemod.ordinal_embed


def _cyclic_compare(t, u):
    """Antisymmetric but intransitive: trees of different sizes compare by
    their size mod 3 around a cycle."""
    a, b = len(t) % 3, len(u) % 3
    if a == b:
        return _TREE_COMPARE(t, u)
    return Ordering.LESS if (b - a) % 3 == 1 else Ordering.GREATER


# A planted fault: (what it replaces, the replacement, the message it must raise).
_ORDER_FAULTS = {
    "equality": (
        "tree_compare",
        lambda t, u: Ordering.EQUAL if len(t) == len(u) else _TREE_COMPARE(t, u),
        "equality failure",
    ),
    "irreflexive": (
        "tree_compare",
        lambda t, u: Ordering.LESS if t == u else _TREE_COMPARE(t, u),
        "antisymmetry failure",
    ),
    "antisymmetry": (
        "tree_compare",
        lambda t, u: Ordering.EQUAL if t == u else Ordering.LESS,
        "antisymmetry failure",
    ),
    "transitivity": ("tree_compare", _cyclic_compare, "transitivity failure"),
    "order-reversing": (
        "ordinal_embed",
        lambda t, b, h: -_ORDINAL_EMBED(t, b, h),
        "embedding not order-reversing",
    ),
    "injective": (
        "ordinal_embed",
        lambda t, b, h: _ORDINAL_EMBED(t, b, h) // 3,
        "embedding not injective",
    ),
}


@pytest.mark.parametrize("triple_budget", [1_000_000, 500], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("fault", sorted(_ORDER_FAULTS))
def test_verify_order_axioms_reports_planted_faults(fault, triple_budget, monkeypatch):
    name, planted, message = _ORDER_FAULTS[fault]
    monkeypatch.setattr(treemod, name, planted)
    monkeypatch.setattr(ver, "_TRIPLE_BUDGET", triple_budget)
    rep = verify_order_axioms(2, 2, seed=3)
    assert any(c.startswith(message) for c in rep.counterexamples)
    assert rep.counterexamples == _order_axiom_failures_by_loops(2, 2, triple_budget, seed=3)
    if fault in ("antisymmetry", "transitivity"):
        # Hundreds of failures, reported only up to the cap.
        assert len(rep.counterexamples) == 32
        assert all(c.startswith(message) for c in rep.counterexamples)


@pytest.mark.parametrize("triple_budget", [1_000_000, 10_000], ids=["exhaustive", "sampled"])
def test_verify_order_axioms_reports_rare_faults_in_every_chunk(triple_budget, monkeypatch):
    # One flipped pair leaves the order antisymmetric and breaks transitivity
    # on a few triples only, spread over many 1000-triple chunks.
    from pebblegames import verify as ver

    ts = list(treemod.all_trees(2, 2))
    flipped = {(ts[3], ts[17]), (ts[17], ts[3])}
    swap = {Ordering.LESS: Ordering.GREATER, Ordering.GREATER: Ordering.LESS}

    def compare(t, u):
        got = _TREE_COMPARE(t, u)
        return swap[got] if (t, u) in flipped else got

    monkeypatch.setattr(treemod, "tree_compare", compare)
    monkeypatch.setattr(ver, "_TRIPLE_CHUNK", 1000)
    monkeypatch.setattr(ver, "_TRIPLE_BUDGET", triple_budget)
    rep = verify_order_axioms(2, 2, seed=3)
    assert rep.counterexamples == _order_axiom_failures_by_loops(2, 2, triple_budget, seed=3)
    assert sum(c.startswith("transitivity failure") for c in rep.counterexamples) > 16


def test_verify_g2_properties_small():
    rep = verify_g2_properties(playouts=300, seed=5)
    assert rep.ok
    assert rep.details["ramify_branches"] > 0


def test_verify_g2prime_small():
    assert verify_g2prime(playouts=40, seed=2).ok


def test_verify_loop_bound_slice():
    # The full exhaustive run is the acceptance campaign; a slice here,
    # cross-checked against the per-strategy search.
    from pebblegames.php_tree import shortest_loop_witness

    report = verify_loop_bound(3, limit=60_000)
    assert report.claim == "loop-bound-n3"
    assert report.ok
    rng = np.random.default_rng(13)
    bound = 2 * (3 - 2) + 1
    for idx in rng.integers(0, 60_000, size=60):
        strat = index_to_strategy(int(idx), 3)
        for p in range(4):
            for h in range(3):
                if strat.table[p][h] == p:
                    w = shortest_loop_witness(strat, p, h)
                    if w is not None:
                        assert w <= bound


def test_verify_loop_bound_hands_each_index_to_one_block(monkeypatch):
    from pebblegames import verify as ver

    limit = 3 * ver.TABLE_BLOCK + 1000
    blocks = []
    block = ver._loop_bound_block

    def record(aligned, bt, start, stop):
        blocks.append(np.arange(start, stop))
        return block(aligned, bt, start, stop)

    monkeypatch.setattr(ver, "_loop_bound_block", record)
    report = verify_loop_bound(3, limit=limit)
    assert len(blocks) == 4
    assert np.concatenate(blocks).tolist() == list(range(limit))
    idxs = np.arange(limit, dtype=np.uint64)
    whole = idxs[loop_bound_batch(idxs, board_tables(3))]
    assert report.space == limit
    assert report.counterexamples == [format_strategy(index_to_strategy(int(i), 3)) for i in whole]


def test_verify_loop_bound_limit_zero_and_negative():
    report = verify_loop_bound(3, limit=0)
    assert report.space == 0 and report.ok
    with pytest.raises(ValueError):
        verify_loop_bound(3, limit=-1)


def test_verify_loop_bound_progress_every_2_18_tables(capsys):
    limit = (1 << 18) + 5000
    verify_loop_bound(3, progress=True, limit=limit)
    assert capsys.readouterr().out.splitlines() == [
        f"  loop bound {1 << 18}/{limit}",
        f"  loop bound {limit}/{limit}",
    ]


def test_verify_loop_bound_progress_when_a_block_crosses_2_18_tables(capsys):
    # At n = 4 a block holds 5^6 tables, so no block ends on a multiple of
    # 2^18; the line comes at the end of the block that crosses it.
    limit = (1 << 18) + 5000
    verify_loop_bound(4, progress=True, limit=limit)
    crossing = -(-(1 << 18) // 5**6) * 5**6
    assert capsys.readouterr().out.splitlines() == [
        f"  loop bound {crossing}/{limit}",
        f"  loop bound {limit}/{limit}",
    ]


@st.composite
def _aligned_blocks(draw):
    """A board and block numbers of its aligned blocks, always with the first
    and the last block of the space."""
    from pebblegames import verify as ver

    n = draw(st.sampled_from((1, 2, 3, 4)))
    last = strategy_space(n) // ver._AlignedBlocks(n).size - 1
    return n, [0, last, *draw(st.lists(st.integers(0, last), max_size=3))]


@settings(max_examples=30, deadline=None)
@given(case=_aligned_blocks())
def test_aligned_block_planes_match_decoded_planes(case):
    from pebblegames import verify as ver

    n, js = case
    blocks = ver._AlignedBlocks(n)
    for j in js:
        init, tables = blocks.planes(j)
        idxs = np.arange(j * blocks.size, (j + 1) * blocks.size, dtype=np.uint64)
        want_init, want_tables = ver._table_planes(idxs, n)
        assert np.array_equal(init, want_init)
        assert np.array_equal(tables, want_tables)


def test_loop_bound_blocks_find_the_n4_violators():
    # A negative control through the block route: the aligned n = 4 blocks
    # that hold the violators of the scalar-witness test below.
    from pebblegames import verify as ver

    n = 4
    bt = board_tables(n)
    idxs = np.random.default_rng(5).choice(strategy_space(n), 4096, replace=False)
    blocks = ver._AlignedBlocks(n)
    counts = []
    for v in idxs[loop_bound_batch(idxs.astype(np.uint64), bt)]:
        start = int(v) // blocks.size * blocks.size
        got = ver._loop_bound_block(blocks, bt, start, start + blocks.size)
        block = np.arange(start, start + blocks.size, dtype=np.uint64)
        assert got.tolist() == block[loop_bound_batch(block, bt)].tolist()
        # A partial block reads the first rows of the whole block's walk.
        part = ver._loop_bound_block(blocks, bt, start, start + 7000)
        assert part.tolist() == [i for i in got.tolist() if i < start + 7000]
        counts.append(len(got))
    assert counts == [40, 185, 125, 75, 125]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), loop=st.booleans(), width=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_walk_step_and_hits_distribute_over_or(n, loop, width, seed):
    # The loop bound tests one union of sets where it could test each set:
    # both kernels must map a union to the union of the images, on any planes.
    bt = board_tables(n)
    walk = bt.loop if loop else bt.certify
    rng = np.random.default_rng(seed)
    planes = lambda rows: rng.integers(0, 2**64, (rows, width), dtype=np.uint64, endpoint=False)
    tables = planes(len(bt.loop_plane) * (n + 1) + 1)
    tables[-1] = 0
    a, b = planes(len(walk.slot_tail)), planes(len(walk.slot_tail))
    terms = tables[walk.step_plane]
    assert np.array_equal(walk.step(a | b, terms), walk.step(a, terms) | walk.step(b, terms))
    assert np.array_equal(walk.hits(a | b, tables), walk.hits(a, tables) | walk.hits(b, tables))
    assert not walk.step(a & 0, terms).any() and not walk.hits(a & 0, tables).any()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_loop_walk_keeps_no_edge_of_the_candidates_tail(n):
    # So a candidate whose tail is the start has an empty set in the loop
    # walk and is never hit: the loop bound needs no mask of such candidates.
    bt = board_tables(n)
    E = len(bt.loop_plane)
    cand_tail = np.arange(E) // n
    assert (bt.loop.slot_tail.reshape(E, len(bt.loop.slot_tail) // E) != cand_tail[:, None]).all()


@pytest.mark.parametrize("n, blocks", [(3, 1), (3, 5), (4, 1), (4, 3)])
def test_loop_bound_tests_hits_twice_per_block(n, blocks, monkeypatch):
    # One hit test of the union within K = 2(n-2)+1 steps, one at the fixpoint.
    calls = []
    hits = ver.Walk.hits
    monkeypatch.setattr(ver.Walk, "hits", lambda walk, *a: calls.append(1) or hits(walk, *a))
    size = ver._AlignedBlocks(n).size
    verify_loop_bound(n, limit=blocks * size)
    assert len(calls) == 2 * blocks


def _breaks_loop_bound(strat) -> bool:
    """The scalar verdict: some loop's tail is reachable from the start, but
    by no qualifying walk of at most 2(n-2)+1 steps."""
    from pebblegames.php_tree import shortest_loop_witness

    n = strat.size.n
    return any(
        (w := shortest_loop_witness(strat, p, h)) is not None and w > 2 * (n - 2) + 1
        for p in range(n + 1)
        for h in range(n)
        if strat.table[p][h] == p
    )


@pytest.mark.parametrize(
    "n, idxs, violators",
    [
        (2, np.arange(strategy_space(2)), 0),
        (4, np.random.default_rng(5).choice(strategy_space(4), 4096, replace=False), 5),
    ],
    ids=["n2-whole-space", "n4-sample"],
)
def test_loop_bound_batch_matches_scalar_witness(n, idxs, violators):
    # At n=4 the bound 2(n-2)+1 = 5 is broken by some tables, so this is also
    # a negative control: the batch engine must find exactly those.
    got = loop_bound_batch(idxs.astype(np.uint64), board_tables(n))
    expected = [_breaks_loop_bound(index_to_strategy(int(i), n)) for i in idxs]
    assert got.tolist() == expected
    assert sum(expected) == violators


@pytest.mark.parametrize("n", [1, 2])
def test_oracle_gate_checks_distinct_tables_once(n, monkeypatch):
    from pebblegames import verify as ver

    batches, certs = [], []
    certify, certificate = ver.certify_batch, ver.delayer_wins_lengths
    monkeypatch.setattr(
        ver, "certify_batch", lambda idxs, *a, **k: batches.append(list(idxs)) or certify(idxs, *a, **k)
    )
    monkeypatch.setattr(
        ver, "delayer_wins_lengths", lambda s, *a, **k: certs.append(s) or certificate(s, *a, **k)
    )
    ver._oracle_gate(n)
    [checked] = batches
    assert len(set(checked)) == len(checked) == min(150, strategy_space(n))
    assert len(certs) == len(checked)


def test_report_line_format():
    rep = verify_small_n(1)
    line = rep.line(0.0)
    assert line.startswith("claim=small-n-1 space=")
    assert line.endswith("seconds=0.000")
    assert rep.line(2.5).endswith("seconds=2.500")


def test_oracle_gate_runs():
    from pebblegames.verify import _oracle_gate

    _oracle_gate(3)


def test_oracle_gate_refuses_a_certificate_that_disagrees_with_the_dfs(monkeypatch):
    certificate = ver.delayer_wins_lengths

    class Flipped(ver.WinCertificate):
        def wins(self, s):
            return super().wins(s) != (s == 3)

    def flipped(strat, *a, **k):
        cert = certificate(strat, *a, **k)
        return Flipped(cert.s_max, cert.hits, cert.mu)

    monkeypatch.setattr(ver, "delayer_wins_lengths", flipped)
    with pytest.raises(AssertionError, match=r"certificate mismatch at index \d+, s=3$"):
        ver._oracle_gate(3)
    rep = ver.verify_oracle_equivalence(samples=20, seed=4242)
    # Nine counterexamples end the campaign: the n = 4 draws are not made.
    assert rep.counterexamples == [f"n=3 sample {i} s=3" for i in range(9)]


def test_php_trees_stops_at_nine_counterexamples(monkeypatch):
    complete = ver.phpmod.is_complete
    monkeypatch.setattr(ver.phpmod, "is_complete", lambda tree: not complete(tree))
    # Every table now contradicts the biconditional; the campaign stops
    # drawing at the same bound as its build loop.
    rep = ver.verify_php_trees(samples=2, seed=99)
    assert len(rep.counterexamples) == 9
    assert all(" tree but " in ce for ce in rep.counterexamples)


def test_php_biconditional_on_the_whole_n2_space():
    # A complete php-tree means no canonical win at any window length; an
    # incomplete one, a canonical win at every window length.
    complete = 0
    for idx in range(strategy_space(2)):
        strat = index_to_strategy(idx, 2)
        wins = ver._canonical_wins(strat)
        assert list(wins) == list(range(3, 10))
        if ver.phpmod.is_complete(ver.phpmod.build_php_tree(strat)):
            complete += 1
            assert not any(wins.values())
        else:
            assert all(wins.values())
    assert complete == 108


def test_php_trees_4_cycle_wins_only_after_giving_up():
    # F(p, h) = p + 1 mod 4: the php-tree is complete, yet two canonical
    # plays that give up at step 4 (their fourth answer is filler) go on to
    # win s = 5, 7, 9 and 11.  Only the gave-up rule keeps them out.
    cycle = index_to_strategy(1_043_028, 3)
    assert cycle.init == 0
    assert cycle.table == tuple(((p + 1) % 4,) * 3 for p in range(4))
    assert ver.phpmod.is_complete(ver.phpmod.build_php_tree(cycle))
    late = {}
    for cp in all_canonical_plays(cycle.with_s(12)):
        assert cp.gave_up_step == 4
        won = won_lengths(cycle, cp.play) - {1, 2, 3}
        if won:
            late[cp.play.answers[:4]] = won
    assert late == {(1, 0, 2, 0): {5, 7, 9, 11}, (2, 0, 1, 0): {5, 7, 9, 11}}
    assert not any(ver._canonical_wins(cycle).values())


def test_oracle_gate_refuses_an_engine_that_reports_every_table_won(monkeypatch):
    certify = ver.certify_batch

    def all_won(idxs, *a, **k):
        res = certify(idxs, *a, **k)
        res.wins_all[:] = True
        return res

    monkeypatch.setattr(ver, "certify_batch", all_won)
    # Only a board with Prover-won tables can show this fault: at n >= 3
    # every table is Delayer-won, so the gate compares "won" with "won".
    with pytest.raises(AssertionError, match="engine mismatch at index"):
        ver._oracle_gate(2)


def test_campaign_parameters_are_pinned():
    # Each parameter is an input some caller varies; a value that every caller
    # passes is a constant of the campaign.  A new parameter changes this pin.
    pinned = {
        "verify_theorem_main": [
            "n", "threads", "checkpoint", "ce_dir", "progress", "sample", "seed",
        ],
        "verify_loop_bound": ["n", "progress", "limit"],
        "verify_small_n": ["n"],
        "verify_subset_prop": ["n"],
        "verify_order_axioms": ["b", "h", "seed"],
        "verify_g2_properties": ["playouts", "seed"],
        "verify_g2prime": ["playouts", "seed"],
        "verify_figures": [],
        "verify_php_trees": ["samples", "seed"],
        "verify_oracle_equivalence": ["samples", "seed"],
        "_oracle_gate": ["n"],
        "random_strategy": ["rng", "n"],
    }
    names = [name for name in dir(ver) if name.startswith("verify_")]
    names += ["_oracle_gate", "random_strategy"]
    got = {name: list(inspect.signature(getattr(ver, name)).parameters) for name in names}
    assert got == pinned


def test_theorem_main_checkpoint_resume(tmp_path, monkeypatch):
    monkeypatch.setattr(ver, "BATCH_SIZE", 4)
    ck = tmp_path / "progress.txt"
    first = verify_theorem_main(n=1, checkpoint=ck)
    lines = ck.read_text().splitlines()
    assert lines[0] == "theorem-main checkpoint n=1 batch_size=4 t_limit=4200 hold_back=2654435761%100"
    assert len(lines) == 3 and all(l.startswith("batch ") for l in lines[1:])
    # Resuming replays only the recorded batches and reproduces the report.
    second = verify_theorem_main(n=1, checkpoint=ck)
    assert first.counterexamples == second.counterexamples
    assert len(ck.read_text().splitlines()) == len(lines)


def test_theorem_main_sampled_n4():
    rep = verify_theorem_main(n=4, sample=3000, seed=8)
    assert rep.ok and rep.space == 3000
    with pytest.raises(ValueError):
        verify_theorem_main(n=4)


def test_theorem_main_samples_without_replacement():
    rep = verify_theorem_main(n=2, sample=600)
    assert rep.counterexamples and len(set(rep.counterexamples)) == len(rep.counterexamples)
    # A sample of the whole space is the whole space, in another claim.
    whole = verify_theorem_main(n=1, sample=strategy_space(1))
    assert whole.counterexamples == verify_theorem_main(n=1).counterexamples
    with pytest.raises(ValueError, match="exceeds"):
        verify_theorem_main(n=1, sample=strategy_space(1) + 1)


@pytest.fixture
def batches_of_128(monkeypatch):
    monkeypatch.setattr(ver, "BATCH_SIZE", 128)


def _sampled(tmp_path, n=4, **change):
    """A small sampled sweep, in several batches (under ``batches_of_128``),
    checkpointed to one file."""
    run = dict(n=n, sample=600, seed=8, checkpoint=tmp_path / "ck.txt")
    return verify_theorem_main(**{**run, **change})


@pytest.mark.usefixtures("batches_of_128")
@pytest.mark.parametrize("n", [2, 4])
def test_theorem_main_sampled_checkpoint_resume(tmp_path, n):
    first = _sampled(tmp_path, n)
    lines = (tmp_path / "ck.txt").read_text().splitlines()
    assert lines[0] == (
        f"theorem-main checkpoint n={n} batch_size=128 t_limit=4200 hold_back=2654435761%100 "
        "sample=600 seed=8"
    )
    bounds = [line.split()[1:3] for line in lines[1:]]
    assert bounds == [[str(lo), str(min(lo + 128, 600))] for lo in range(0, 600, 128)]
    assert first.claim == f"theorem-main-n{n}-sampled" and first.space == 600
    assert first.ok == (n > 2)
    # Resuming replays only the recorded batches and reproduces the report.
    second = _sampled(tmp_path, n)
    assert (tmp_path / "ck.txt").read_text().splitlines() == lines
    assert (second.claim, second.space, second.counterexamples, second.details) == (
        first.claim, first.space, first.counterexamples, first.details
    )


def test_theorem_main_sampled_crosschecks():
    rep = verify_theorem_main(n=4, sample=3000, seed=8)
    idxs = np.random.default_rng(8).choice(strategy_space(4), 3000, replace=False, shuffle=False)
    idxs = idxs.astype(np.uint64)
    held_back = int(((idxs * np.uint64(2654435761)) % np.uint64(100) == 0).sum())
    assert rep.details["sampled_crosschecks"] == held_back > 0
    assert 0 < rep.details["fast_path"] <= 3000 - held_back


# A full sweep's header has no sample and seed, so it refuses a sampled file.
@pytest.mark.usefixtures("batches_of_128")
@pytest.mark.parametrize(
    "change", [{"seed": 9}, {"n": 3}, {"n": 3, "sample": None}, {"sample": 599}]
)
def test_checkpoint_refuses_another_run(tmp_path, change):
    _sampled(tmp_path)
    before = (tmp_path / "ck.txt").read_text()
    with pytest.raises(CheckpointMismatch):
        _sampled(tmp_path, **change)
    assert (tmp_path / "ck.txt").read_text() == before


@pytest.mark.usefixtures("batches_of_128")
@pytest.mark.parametrize(
    "constant, value",
    [
        ("T_LIMIT", 4000),
        ("HOLD_BACK_MODULUS", 50),
        ("HOLD_BACK_MULTIPLIER", 40503),
        ("BATCH_SIZE", 256),
    ],
)
def test_checkpoint_refuses_another_verdict_rule(tmp_path, monkeypatch, constant, value):
    # A batch's verdict depends on the step limit and on which tables are
    # held back from the fast path, and its record on the batch bounds, so a
    # resume under another rule is refused.
    _sampled(tmp_path)
    before = (tmp_path / "ck.txt").read_text()
    monkeypatch.setattr(ver, constant, value)
    with pytest.raises(CheckpointMismatch):
        _sampled(tmp_path)
    assert (tmp_path / "ck.txt").read_text() == before


def test_checkpoint_refuses_headerless_file(tmp_path):
    ck = tmp_path / "ck.txt"
    ck.write_text("batch 0 8\n")  # a batch record with no header line
    with pytest.raises(CheckpointMismatch):
        verify_theorem_main(n=1, checkpoint=ck)
    assert ck.read_text() == "batch 0 8\n"


@pytest.mark.usefixtures("batches_of_128")
def test_checkpoint_reruns_a_batch_cut_short(tmp_path, monkeypatch):
    first = _sampled(tmp_path, 2)
    ck = tmp_path / "ck.txt"
    whole = ck.read_text()
    # A crash in the middle of writing the last batch record.
    ck.write_text(whole[:-3])
    from pebblegames import verify as ver

    ran = []
    certify_job = ver._certify_job
    monkeypatch.setattr(ver, "_certify_job", lambda job: ran.append(job[:2]) or certify_job(job))
    second = _sampled(tmp_path, 2)
    assert ran == [(512, 600)]
    assert second.counterexamples == first.counterexamples
    assert ck.read_text() == whole
