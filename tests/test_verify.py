import functools
import inspect
import itertools
from typing import Optional

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


def _held(idxs: np.ndarray, mod=ver) -> np.ndarray:
    """The rows of ``idxs`` that the sweep holds back from the fast path, as
    ``mod`` states the rule: the multiples of its ``HOLD_BACK_MODULUS``."""
    return idxs % mod.HOLD_BACK_MODULUS == 0


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
    digits = decode_batch(np.array(idxs, dtype=dtype), n)
    assert digits.shape == ((n + 1) * n + 1, len(idxs))
    for row, idx in enumerate(idxs):
        assert digits[:, row].tolist() == _digits(index_to_strategy(idx, n))


def _digits(strat) -> list[int]:
    """The index digits of ``strat``: the first question, then the head of
    each edge, pigeon-major."""
    return [strat.init, *(q for cells in strat.table for q in cells)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("size", [0, 1, 63, 64, 65])
def test_plane_row_d_p_plus_q_holds_digit_d_is_q(n, size):
    # One formula addresses every plane of a batch; the padding bits of the
    # last word and the last row, the padding term of a step, are zero.
    idxs = np.random.default_rng(size).integers(0, strategy_space(n), size, dtype=np.uint64)
    planes = ver._table_planes(idxs, n)
    num_digits, words = (n + 1) * n + 1, -(-size // 64)
    assert planes.shape == (num_digits * (n + 1) + 1, words)
    bits = np.unpackbits(planes.view(np.uint8), axis=-1, bitorder="little").view(bool)
    want = np.zeros(bits.shape, dtype=bool)
    for row, idx in enumerate(idxs):
        for d, q in enumerate(_digits(index_to_strategy(int(idx), n))):
            want[d * (n + 1) + q, row] = True
    assert np.array_equal(bits, want)


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
# while its column waits in the planes.  Dropping the one in the failing
# exit is caught: the 108 losing tables at n = 2 fail at t = 2, an anchor
# where fewer than half of the columns have left, so they stay in the
# planes, and the mutant overwrites their exit step when they fail again.
# Dropping the one in the ``looped`` mask keeps every route: a loop hit is
# absorbing, so a fast-path table hits again and is routed to the fast path
# again; a table that left by a repeat never hits a loop later, since the
# repeat means its cycle's hits were all seen before and none was a loop; no
# losing table at n <= 2 hits a loop after its first failure (seen by
# stepping both spaces past every table's repeat); and n >= 3 has no losing
# table.  But the second loop exit moves ``closed_at``, which the pinned
# trace of the first n = 3 window sees (the ``looped-ignores-live`` mutant).
@pytest.mark.parametrize("n, size", [(3, 1 << 18), (4, 1 << 17)])
def test_certify_batch_packs_out_only_at_brent_anchors(n, size, monkeypatch):
    from pebblegames import verify as ver

    fast = {3: 246_195, 4: 127_964}[n]
    stayed = {3: 29_275, 4: 8_432}[n]  # the tables that do not leave at t = 1

    idxs = np.sort(np.random.default_rng(n).choice(strategy_space(n), size, replace=False))
    idxs = idxs.astype(np.uint64)
    held = _held(idxs)
    bt = board_tables(n)  # built first: a fresh build decodes block 0
    decodes, steps = [], []  # (steps taken so far, decoded indices)
    planes, step = ver._table_planes, ver.Walk.step
    monkeypatch.setattr(
        ver, "_table_planes", lambda i, n: decodes.append((len(steps), i.copy())) or planes(i, n)
    )
    monkeypatch.setattr(ver.Walk, "step", lambda *a: steps.append(1) or step(*a))
    res = certify_batch(idxs, bt, sample_mask=held)
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
    held = _held(idxs)
    monkeypatch.setattr(ver, "T_LIMIT", 1)
    for mask, expected in ((None, lemma), (held, lemma & ~held)):
        got = certify_batch(idxs, board_tables(n), sample_mask=mask).fast_path
        assert not (got != expected).any(), idxs[got != expected][:10]


@pytest.mark.parametrize("n, holds, lost", [(1, 4, 4), (2, 1755, 108)])
def test_the_step_1_loop_lemma_implies_the_certificate_win(n, holds, lost):
    # The lemma is an argument that Delayer wins every length, so the scalar
    # certificate must find every table it holds on won; none of the
    # Prover-won tables of the whole space is among them.
    strats = [index_to_strategy(i, n) for i in range(strategy_space(n))]
    lemma = [_step1_loop_exit(strat) for strat in strats]
    won = [delayer_wins_lengths(strat).wins_all() for strat in strats]
    assert sum(lemma) == holds and won.count(False) == lost
    assert not any(held and not win for held, win in zip(lemma, won))


def _step1_loop_lemma_count(n: int) -> int:
    """The number of tables the step-1 loop lemma holds on, summed over
    ``init`` and ``init``'s row ``r``.  When ``init`` occurs in ``r`` the
    lemma holds on every completion.  Otherwise it fails exactly when the
    row of every pigeon ``p`` in ``r`` fails: ``p`` has no self-loop, n^n
    rows, when it occurs twice or more in ``r``; when it occurs once, its
    self-loops all sit at the one hole that leads to ``p``, (n+1) n^(n-1)
    rows.  The rows of the pigeons not in ``r`` are free."""
    row = (n + 1) ** n  # the fillings of one row
    total = 0
    for init in range(n + 1):
        for r in itertools.product(range(n + 1), repeat=n):
            if init not in r:
                fails = row ** (n - len(set(r)))
                for p in set(r):
                    fails *= n**n if r.count(p) > 1 else (n + 1) * n ** (n - 1)
                total -= fails
            total += row**n
    return total


@pytest.mark.parametrize(
    "n, holds", [(1, 4), (2, 1755), (3, 60_183_040), (4, 450_244_387_003_125)]
)
def test_the_step_1_loop_lemma_count_has_a_closed_form(n, holds):
    assert _step1_loop_lemma_count(n) == holds
    if n <= 2:
        space = range(strategy_space(n))
        assert sum(_step1_loop_exit(index_to_strategy(i, n)) for i in space) == holds


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
    for held in (None, _held(idxs), np.ones(size, dtype=bool)):
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
    for array in (bt.loop_plane, bt.block_planes, *walks):
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
    if n == 1:  # the loop bound 2(n-2)+1 is -1 there
        with pytest.raises(ValueError, match="no walk length at n=1"):
            loop_bound_batch(idxs, bt)
        return
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


def test_batch_result_stores_each_exit_once_and_derives_the_views():
    idxs = np.arange(strategy_space(2), dtype=np.uint64)
    res = certify_batch(idxs, board_tables(2))
    assert list(vars(res)) == ["route", "closed_at"]
    assert (res.route.dtype, res.closed_at.dtype) == (np.int8, np.int16)
    assert set(res.route.tolist()) == {ver.FAILED, ver.LOOP, ver.REPEAT}
    assert ((res.closed_at > 0) == (res.route != ver.UNCERTIFIED)).all()
    assert (res.wins_all == (res.route >= ver.LOOP)).all()
    assert (res.fast_path == (res.route == ver.LOOP)).all()
    assert (res.first_fail == np.where(res.route == ver.FAILED, res.closed_at + 1, 0)).all()
    assert res.first_fail.dtype == np.int64
    assert (res.uncertified == (res.route == ver.UNCERTIFIED)).all()
    # A view has no setter, and each read derives it anew from the route.
    for view in ("wins_all", "fast_path", "first_fail", "uncertified"):
        with pytest.raises(AttributeError):
            setattr(res, view, None)
    res.route[:] = ver.REPEAT
    assert res.wins_all.all() and not res.fast_path.any() and not res.first_fail.any()


def _brent_exit(cert) -> tuple[int, int]:
    """The route and step at which the walk, with every row held back, sees
    the table of ``cert`` leave.  Hit ``f`` of the certificate is the walk's
    step f + 1, so a first miss at ``f`` fails there.  Otherwise the state
    first equals an anchor at a + period: the anchors are t = 1, 2, 4, ...,
    and anchor ``a`` is compared at the steps a + 1 .. 2a - 1, so ``a`` is
    the first anchor in the cycle (a - 1 >= mu) whose steps span a whole
    period (period < a)."""
    if not cert.wins_all():
        return ver.FAILED, cert.hits.index(False) + 1
    a = 1
    while a - 1 < cert.mu or cert.period >= a:
        a *= 2
    return ver.REPEAT, a + cert.period


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_at_follows_the_certificate_under_the_brent_rule(n):
    # The whole space at n <= 2, 1,000 seeded tables at n = 3 and 4.
    space = strategy_space(n)
    if space <= 4096:
        idxs = np.arange(space, dtype=np.uint64)
    else:
        idxs = np.random.default_rng(13).choice(space, 1000, replace=False).astype(np.uint64)
    res = certify_batch(idxs, board_tables(n), sample_mask=np.ones(len(idxs), dtype=bool))
    want = [_brent_exit(_certificate(int(i), n)) for i in idxs]
    assert list(zip(res.route.tolist(), res.closed_at.tolist())) == want
    # The oracle gate's own copy of the rule agrees.
    assert [ver._brent_exit(_certificate(int(i), n)) for i in idxs] == want
    # A table that fails at step t loses length t + 1.
    assert res.first_fail.tolist() == [t + 1 if r == ver.FAILED else 0 for r, t in want]
    if n == 2:
        assert [r for r, _ in want].count(ver.FAILED) == 108


def _trace(res) -> dict[tuple[int, int], int]:
    """The number of tables of a batch per (route, closed_at)."""
    counts = np.bincount(res.route.astype(np.intp) * (ver.T_LIMIT + 1) + res.closed_at)
    return {divmod(int(key), ver.T_LIMIT + 1): int(counts[key]) for key in np.flatnonzero(counts)}


# The (route, closed_at) histogram of the exhaustive n = 3 window [0, 2^18),
# the sweep's first job, with the sweep's hold-back.
WINDOW_0_TRACE = {
    (ver.LOOP, 1): 193_291,
    (ver.LOOP, 2): 24_540,
    (ver.LOOP, 3): 2_303,
    **{
        (ver.REPEAT, t): count
        for t, count in {
            3: 45, 5: 25, 6: 7_906, 7: 140, 9: 2, 10: 1_240, 11: 440, 12: 1_893,
            14: 19_977, 18: 509, 19: 408, 20: 266, 22: 3_875, 28: 3_594, 33: 2, 34: 25,
            35: 211, 36: 47, 38: 607, 44: 798,
        }.items()
    },
}


def _window_0_trace(mod) -> dict[tuple[int, int], int]:
    """The trace of the sweep's first n = 3 job, as ``mod`` walks it."""
    idxs = np.arange(1 << 18, dtype=np.uint64)
    return _trace(mod.certify_batch(idxs, mod.board_tables(3), sample_mask=_held(idxs, mod)))


def test_the_trace_of_the_first_n3_window_is_pinned():
    # A regression pin of every table's exit, not an independent witness:
    # every verdict here is "won", but when and how each table leaves is not
    # constant, so an engine change that moves one exit fails this test.
    assert _window_0_trace(ver) == WINDOW_0_TRACE
    loops = sum(c for (r, _), c in WINDOW_0_TRACE.items() if r == ver.LOOP)
    repeats = sum(c for (r, _), c in WINDOW_0_TRACE.items() if r == ver.REPEAT)
    assert (loops, repeats, max(t for _, t in WINDOW_0_TRACE)) == (220_134, 42_010, 44)
    assert loops + repeats == 1 << 18


def test_theorem_main_counts_uncertified_tables_apart(monkeypatch):
    # With the walk cut after 8 steps, the tables whose state first repeats
    # later are uncertified: counterexamples, but not Prover wins, and
    # details says how many there are.  The gate is skipped, since it would
    # refuse the cut engine.
    monkeypatch.setattr(ver, "T_LIMIT", 8)
    monkeypatch.setattr(ver, "_oracle_gate", lambda n: None)
    rep = verify_theorem_main(n=3, sample=3000, seed=8)
    idxs = np.random.default_rng(8).choice(strategy_space(3), 3000, replace=False, shuffle=False)
    idxs = idxs.astype(np.uint64)
    res = certify_batch(idxs, board_tables(3), sample_mask=_held(idxs))
    stuck = int(res.uncertified.sum())
    assert rep.details["uncertified"] == stuck == len(rep.counterexamples) > 0
    assert not (res.route == ver.FAILED).any()


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


def _order_axiom_failures_by_loops(b, h):
    """The checks of ``verify_order_axioms``, written as plain loops over
    every pair and triple, with the same messages."""
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
    for i, j, k in itertools.product(range(m), repeat=3):
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


@pytest.mark.parametrize("fault", sorted(_ORDER_FAULTS), ids=lambda fault: f"{fault}-exhaustive")
def test_verify_order_axioms_reports_planted_faults(fault, monkeypatch):
    name, planted, message = _ORDER_FAULTS[fault]
    monkeypatch.setattr(treemod, name, planted)
    rep = verify_order_axioms(2, 2)
    assert any(c.startswith(message) for c in rep.counterexamples)
    assert rep.counterexamples == _order_axiom_failures_by_loops(2, 2)
    if fault in ("antisymmetry", "transitivity"):
        # Hundreds of failures, reported only up to the cap.
        assert len(rep.counterexamples) == 32
        assert all(c.startswith(message) for c in rep.counterexamples)


_SWAP = {Ordering.LESS: Ordering.GREATER, Ordering.GREATER: Ordering.LESS}


def _flipped_compare(a, b):
    """``tree_compare`` with the comparison of the trees ``a`` and ``b``
    reversed both ways, which keeps it antisymmetric."""
    ends = ((a.vertices, b.vertices), (b.vertices, a.vertices))

    def compare(t, u):
        got = _TREE_COMPARE(t, u)
        return _SWAP[got] if (t.vertices, u.vertices) in ends else got

    return compare


def test_verify_order_axioms_reports_rare_faults(monkeypatch):
    # One flipped pair leaves the order antisymmetric and breaks transitivity
    # on a few triples only.
    ts = list(treemod.all_trees(2, 2))
    monkeypatch.setattr(treemod, "tree_compare", _flipped_compare(ts[3], ts[17]))
    rep = verify_order_axioms(2, 2)
    assert rep.counterexamples == _order_axiom_failures_by_loops(2, 2)
    assert sum(c.startswith("transitivity failure") for c in rep.counterexamples) > 16


def test_verify_order_axioms_checks_every_triple_at_b3(monkeypatch):
    # Trees 100 and 102 sit two apart in the order at b = 3, h = 2, so
    # flipping them breaks transitivity on the three triples they make with
    # tree 101 alone: 3 of the 729^3 triples.
    ts = list(treemod.all_trees(3, 2))
    monkeypatch.setattr(treemod, "tree_compare", _flipped_compare(ts[100], ts[102]))
    assert verify_order_axioms(3, 2).counterexamples == [
        "transitivity failure 100,101,102",
        "transitivity failure 101,102,100",
        "transitivity failure 102,100,101",
        "embedding not order-reversing at 102,100",
    ]


@st.composite
def _flipped_orders(draw):
    """A linear order of the 25 trees at b = 2, h = 2, given as each tree's
    place, with a few comparisons reversed: each one way or both ways."""
    place = draw(st.permutations(range(25)))
    pair = st.tuples(st.integers(0, 24), st.integers(0, 24), st.booleans())
    flips = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=4))
    return place, flips


@settings(max_examples=60, deadline=None)
@given(relation=_flipped_orders())
def test_verify_order_axioms_matches_the_loops_on_any_relation(relation):
    place, flips = relation
    ts = list(treemod.all_trees(2, 2))
    index = {t: i for i, t in enumerate(ts)}
    flipped = {(i, j) for i, j, _ in flips} | {(j, i) for i, j, both in flips if both}

    def compare(t, u):
        i, j = index[t], index[u]
        if i == j:
            return Ordering.EQUAL
        less = (place[i] < place[j]) != ((i, j) in flipped)
        return Ordering.LESS if less else Ordering.GREATER

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(treemod, "tree_compare", compare)
        assert verify_order_axioms(2, 2).counterexamples == _order_axiom_failures_by_loops(2, 2)


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
    limit = 3 * ver.TABLE_BLOCK + 1000
    report = verify_loop_bound(3, limit=limit)
    idxs = np.arange(limit, dtype=np.uint64)
    whole = idxs[loop_bound_batch(idxs, board_tables(3))]
    assert report.space == limit
    assert report.counterexamples == [format_strategy(index_to_strategy(int(i), 3)) for i in whole]
    # With an engine that flags every table of a block, each index up to the
    # limit is reported once and in order: the last, partial block reads
    # the first rows of its walk.
    blocks = []
    block_planes = ver._block_planes
    monkeypatch.setattr(
        ver, "_block_planes", lambda bt, j, out: blocks.append(j) or block_planes(bt, j, out)
    )
    every_table = lambda planes, bt: (1, np.full(planes.shape[1], ~np.uint64(0)))
    monkeypatch.setattr(ver, "_loop_bound_planes", every_table)
    monkeypatch.setattr(ver, "index_to_strategy", lambda idx, n: idx)
    monkeypatch.setattr(ver, "format_strategy", lambda idx: idx)
    report = verify_loop_bound(3, limit=limit)
    assert blocks == [0, 1, 2, 3]
    assert report.counterexamples == list(range(limit))


def test_verify_loop_bound_limit_zero_and_negative():
    report = verify_loop_bound(3, limit=0)
    assert report.space == 0 and report.ok
    with pytest.raises(ValueError):
        verify_loop_bound(3, limit=-1)


def test_verify_loop_bound_refuses_a_full_sweep_past_n3():
    # At n = 4 a full sweep would walk 5^21 tables, about 3 * 10^10 blocks.
    with pytest.raises(ValueError, match="limit="):
        verify_loop_bound(4)
    assert verify_loop_bound(4, limit=1000).space == 1000


def test_the_loop_bound_refuses_boards_below_two_holes():
    # At n = 1 the bound 2(n-2)+1 is -1, which no walk can meet, and the
    # scalar verdict flags 4 of the 8 tables; both routes refuse rather than
    # walk as if the bound were 1 and report none.
    assert sum(_breaks_loop_bound(index_to_strategy(i, 1)) for i in range(8)) == 4
    with pytest.raises(ValueError, match="no walk length at n=1"):
        verify_loop_bound(1)
    with pytest.raises(ValueError, match="no walk length at n=1"):
        loop_bound_batch(np.arange(8, dtype=np.uint64), board_tables(1))


@st.composite
def _aligned_blocks(draw):
    """A board and block numbers of its aligned blocks, always with the first
    and the last block of the space."""
    from pebblegames import verify as ver

    n = draw(st.sampled_from((1, 2, 3, 4)))
    last = strategy_space(n) // (n + 1) ** board_tables(n).k - 1
    return n, [0, last, *draw(st.lists(st.integers(0, last), max_size=3))]


@settings(max_examples=30, deadline=None)
@given(case=_aligned_blocks())
def test_aligned_block_planes_match_decoded_planes(case):
    from pebblegames import verify as ver

    n, js = case
    bt = board_tables(n)
    size = (n + 1) ** bt.k
    out = np.empty_like(bt.block_planes)
    for j in js:
        # Every block reuses the buffer that the block before it filled.
        assert ver._block_planes(bt, j, out) is out
        idxs = np.arange(j * size, (j + 1) * size, dtype=np.uint64)
        assert np.array_equal(out, ver._table_planes(idxs, n))


def _count_hit_tests(monkeypatch) -> list:
    """A list that grows by one at each ``Walk.hits`` call."""
    calls = []
    hits = ver.Walk.hits
    monkeypatch.setattr(ver.Walk, "hits", lambda walk, *a: calls.append(1) or hits(walk, *a))
    return calls


def _block_violators(mod, n: int, j: int) -> tuple[int, Optional[np.ndarray]]:
    """The number of candidates walked, and the indices of aligned block
    ``j`` of board ``n`` that break the loop bound, as ``verify_loop_bound``
    walks the block, or None when the block closes."""
    bt = mod.board_tables(n)
    planes = mod._block_planes(bt, j, np.empty_like(bt.block_planes))
    walked, violators = mod._loop_bound_planes(planes, bt)
    if violators is None:
        return walked, None
    size = (n + 1) ** bt.k
    return walked, np.flatnonzero(mod._unpack(violators, size)) + j * size


def test_loop_bound_blocks_find_the_n4_violators(monkeypatch):
    # A negative control through the block route: the aligned n = 4 blocks
    # that hold the violators of the scalar-witness test below.  Each grows
    # after K - 1 steps, so each makes both hit tests.  Each walks only its
    # loop candidates, fewer than the 20, so the scalar witness checks the
    # pruned walk: every violator breaks the bound, and no table of a seeded
    # sample of the rest does.
    n = 4
    bt = board_tables(n)
    idxs = np.random.default_rng(5).choice(strategy_space(n), 4096, replace=False)
    size = (n + 1) ** bt.k
    calls = _count_hit_tests(monkeypatch)
    rng = np.random.default_rng(32)
    counts = []
    for v in idxs[loop_bound_batch(idxs.astype(np.uint64), bt)]:
        j = int(v) // size
        calls.clear()
        walked, got = _block_violators(ver, n, j)
        assert len(calls) == 2
        assert walked < len(bt.loop_plane)
        block = np.arange(j * size, (j + 1) * size, dtype=np.uint64)
        assert got.tolist() == block[loop_bound_batch(block, bt)].tolist()
        rest = np.setdiff1d(block, got)
        for i in (*got, *rng.choice(rest, 200, replace=False)):
            assert _breaks_loop_bound(index_to_strategy(int(i), n)) == (i in got)
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
    tables = planes((len(bt.loop_plane) + 1) * (n + 1) + 1)
    tables[-1] = 0
    a, b = planes(len(walk.slot_tail)), planes(len(walk.slot_tail))
    terms = tables[walk.step_plane]
    assert np.array_equal(walk.step(a | b, terms), walk.step(a, terms) | walk.step(b, terms))
    assert np.array_equal(walk.hits(a | b, tables), walk.hits(a, tables) | walk.hits(b, tables))
    assert not walk.step(a & 0, terms).any() and not walk.hits(a & 0, tables).any()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    loop=st.booleans(),
    width=st.integers(0, 3),
    kept=st.sampled_from(("none", "all", "random")),
    seed=st.integers(0, 2**32 - 1),
)
def test_walk_restrict_keeps_the_rows_of_its_candidates(n, loop, width, kept, seed):
    # The loop bound walks only a block's loop candidates: each candidate's
    # set must evolve on its own slots, on any planes and any candidates.
    bt = board_tables(n)
    walk = bt.loop if loop else bt.certify
    rng = np.random.default_rng(seed)
    E = len(bt.loop_plane)
    kept = {"none": np.zeros(E, bool), "all": np.ones(E, bool), "random": rng.random(E) < 0.5}[kept]
    planes = lambda rows: rng.integers(0, 2**64, (rows, width), dtype=np.uint64, endpoint=False)
    tables = planes((E + 1) * (n + 1) + 1)
    tables[-1] = 0
    cols = np.repeat(kept, len(walk.slot_tail) // E)
    assert np.array_equal(walk.restrict(kept).slot_tail, walk.slot_tail[cols])
    assert _restricted_kernel_that_differs(walk, kept, tables, planes(len(walk.slot_tail))) is None


def _restricted_kernel_that_differs(walk, kept, tables, state) -> Optional[str]:
    """The kernel of ``walk.restrict(kept)``, "step" or "hit test", whose
    output on these planes is not the full walk's rows of the kept slots or
    candidates, or None."""
    cols = np.repeat(kept, len(walk.slot_tail) // len(kept))
    part = walk.restrict(kept)
    step = part.step(state[cols], tables[part.step_plane])
    if not np.array_equal(step, walk.step(state, tables[walk.step_plane])[cols]):
        return "step"
    if not np.array_equal(part.hits(state[cols], tables), walk.hits(state, tables)[kept]):
        return "hit test"
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_loop_walk_keeps_no_edge_of_the_candidates_tail(n):
    # So a candidate whose tail is the start has an empty set in the loop
    # walk and is never hit: the loop bound needs no mask of such candidates.
    bt = board_tables(n)
    E = len(bt.loop_plane)
    cand_tail = np.arange(E) // n
    assert (bt.loop.slot_tail.reshape(E, len(bt.loop.slot_tail) // E) != cand_tail[:, None]).all()


@pytest.mark.parametrize("n, blocks", [(3, 1), (3, 5), (4, 1), (4, 3)])
def test_loop_bound_decides_closed_blocks_without_a_hit_test(n, blocks, monkeypatch):
    # Each of these blocks' unions stops growing within K - 1 steps, so its
    # two hit tests would agree and none is made.
    # A block walks the candidates whose digits vary in it, and each other
    # one whose constant head is its tail.
    walked = {(3, 1): 6, (3, 5): 31, (4, 1): 5, (4, 3): 16}[n, blocks]
    calls = _count_hit_tests(monkeypatch)
    report = verify_loop_bound(n, limit=blocks * (n + 1) ** board_tables(n).k)
    assert len(calls) == 0
    assert report.details == {"blocks": blocks, "closed_blocks": blocks, "walked_candidates": walked}


def test_loop_bound_hit_tests_a_batch_that_grows_twice(monkeypatch):
    # One hit test of the union within K = 2(n-2)+1 steps, one at the fixpoint.
    idxs = np.random.default_rng(5).choice(strategy_space(4), 4096, replace=False)
    calls = _count_hit_tests(monkeypatch)
    assert loop_bound_batch(idxs.astype(np.uint64), board_tables(4)).sum() == 5
    assert len(calls) == 2


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
        res.route[:] = ver.REPEAT
        return res

    monkeypatch.setattr(ver, "certify_batch", all_won)
    # Only a board with Prover-won tables can show this fault: at n >= 3
    # every table is Delayer-won, so the gate compares the same exits.
    with pytest.raises(AssertionError, match="engine mismatch at index"):
        ver._oracle_gate(2)


@pytest.mark.parametrize("n", [3, 4])
def test_oracle_gate_refuses_an_exit_one_step_late(n, monkeypatch):
    # Every verdict stays "won" at n >= 3; the gate sees the exit step move.
    certify = ver.certify_batch

    def late(idxs, *a, **k):
        res = certify(idxs, *a, **k)
        res.closed_at[-1] += 1
        return res

    monkeypatch.setattr(ver, "certify_batch", late)
    with pytest.raises(AssertionError, match="engine mismatch at index"):
        ver._oracle_gate(n)


def test_campaign_parameters_are_pinned():
    # Each parameter is an input some caller varies; a value that every caller
    # passes is a constant of the campaign.  A new parameter changes this pin.
    pinned = {
        "verify_theorem_main": ["n", "threads", "ce_dir", "sample", "seed"],
        "verify_loop_bound": ["n", "limit"],
        "verify_small_n": ["n"],
        "verify_subset_prop": ["n"],
        "verify_order_axioms": ["b", "h"],
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


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n", [2, 4])
def test_theorem_main_sampled_in_batches(request, n, threads):
    # A sampled sweep cut into 5 jobs, in process or on a pool, sums to the
    # report of the one job that BATCH_SIZE makes of it.
    ces, fast, checked = {2: (37, 467, 6), 4: (0, 584, 7)}[n]
    run = dict(n=n, sample=600, seed=8)
    one = verify_theorem_main(**run)
    request.getfixturevalue("batches_of_128")
    cut = verify_theorem_main(**run, threads=threads)
    assert (cut.claim, cut.space, cut.counterexamples, cut.details) == (
        one.claim, one.space, one.counterexamples, one.details
    )
    assert (cut.claim, cut.space) == (f"theorem-main-n{n}-sampled", 600)
    assert len(cut.counterexamples) == ces
    assert cut.details == {"fast_path": fast, "sampled_crosschecks": checked, "uncertified": 0}


@pytest.fixture
def pools(monkeypatch) -> list[int]:
    """The ``max_workers`` of each process pool that the sweep makes.  The
    pools map their jobs in process, so no worker is forked."""
    import concurrent.futures

    made = []

    class SerialPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return made


@pytest.mark.parametrize("threads", [2, 5, 64])
def test_the_sweep_forks_no_more_workers_than_jobs(request, threads, pools):
    # A fork pool starts every worker at its first job: the whole n = 2 space,
    # one job, runs in process, and a sweep cut into 5 jobs gets at most 5.
    whole = verify_theorem_main(n=2, threads=threads)
    assert pools == [] and len(whole.counterexamples) == 108
    request.getfixturevalue("batches_of_128")
    cut = verify_theorem_main(n=2, sample=600, seed=8, threads=threads)
    assert pools == [min(threads, 5)]
    assert cut.details == {"fast_path": 467, "sampled_crosschecks": 6, "uncertified": 0}


def test_theorem_main_sampled_crosschecks():
    rep = verify_theorem_main(n=4, sample=3000, seed=8)
    idxs = np.random.default_rng(8).choice(strategy_space(4), 3000, replace=False, shuffle=False)
    idxs = idxs.astype(np.uint64)
    held_back = int(_held(idxs).sum())
    assert rep.details["sampled_crosschecks"] == held_back > 0
    assert 0 < rep.details["fast_path"] <= 3000 - held_back


def _held_digit_counts(mod, job: tuple) -> np.ndarray:
    """(digits, n + 1): how often each digit, the first question first, takes
    each value over the tables that ``mod._certify_job`` holds back in
    ``job``, read from the sample mask it hands to ``certify_batch``."""
    masks = []
    certify = mod.certify_batch

    def record(idxs, bt, sample_mask=None):
        masks.append(sample_mask)
        return certify(idxs, bt, sample_mask=sample_mask)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mod, "certify_batch", record)
        mod._certify_job(job)
    lo, hi, idxs, n = job
    if idxs is None:
        idxs = np.arange(lo, hi, dtype=np.uint64)
    [mask] = masks
    return np.array([np.bincount(digit, minlength=n + 1) for digit in decode_batch(idxs[mask], n)])


def _uneven_held_digit(counts: np.ndarray) -> Optional[str]:
    """The first digit of ``counts`` whose values are held back unevenly:
    a value missed, or counts more than 1% of the digit's total apart."""
    for d, row in enumerate(counts):
        if row.max() - row.min() > row.sum() // 100:
            return f"digit {d} held {' / '.join(map(str, row))} times"
    return None


def test_the_hold_back_reaches_every_digit_value():
    # The sweep's first n = 3 job, [0, 4^9): the held tables ask each pigeon
    # first equally often, and each of the 8 table digits that vary in the
    # window takes every value, within 2 of 649.  The higher digits are 0.
    counts = _held_digit_counts(ver, (0, 1 << 18, None, 3))
    assert counts[0].tolist() == [649] * 4
    assert _uneven_held_digit(counts[:9]) is None
    assert (counts[9:, 1:] == 0).all()
    # A seeded n = 4 job: every digit of the held tables takes every value.
    picks = np.random.default_rng(4).choice(strategy_space(4), 1 << 17, replace=False)
    picks = picks.astype(np.uint64)
    counts = _held_digit_counts(ver, (0, 1 << 17, picks, 4))
    assert counts.sum(axis=1).tolist() == [int(_held(picks).sum())] * 21
    assert (counts > 0).all()
