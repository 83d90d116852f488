import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pebblegames.simple_game import (
    brute_force_delayer_wins,
    delayer_wins_lengths,
    make_strategy,
    prover_small_n,
)
from pebblegames.verify import (
    board_tables,
    canonical_strategy,
    certify_batch,
    enumerate_strategies,
    index_to_strategy,
    shard_bounds,
    strategy_space,
    strategy_to_index,
    verify_g2prime,
    verify_g2_properties,
    verify_loop_bound,
    verify_order_axioms,
    verify_small_n,
    verify_subset_prop,
)


def test_space_counts():
    assert strategy_space(1) == 8
    assert strategy_space(3) == 4**13 == 67_108_864


def test_index_round_trip():
    for n in (1, 2, 3):
        space = strategy_space(n)
        rng = np.random.default_rng(n)
        for idx in rng.integers(0, space, size=50):
            strat = index_to_strategy(int(idx), n)
            assert strategy_to_index(strat) == int(idx)


def test_enumerate_n1_full():
    strategies = list(enumerate_strategies(1))
    assert len(strategies) == 8
    assert len({strategy_to_index(s) for s in strategies}) == 8


def test_enumerate_ceiling():
    with pytest.raises(ValueError):
        next(enumerate_strategies(5))


def test_shards_partition():
    total = strategy_space(1)
    seen = []
    for k in range(3):
        lo, hi = shard_bounds(total, k, 3)
        seen.extend(range(lo, hi))
    assert seen == list(range(total))
    # And through the enumerator:
    parts = [list(enumerate_strategies(1, shard=k, shards=3)) for k in range(3)]
    flat = [strategy_to_index(s) for part in parts for s in part]
    assert flat == list(range(total))


def test_symmetry_reduction_n1():
    reps = list(enumerate_strategies(1, symmetry=True))
    # Orbits cover the full space exactly once each.
    full = {strategy_to_index(s) for s in enumerate_strategies(1)}
    covered = set()
    for rep in reps:
        orbit = set()
        import itertools

        for pp in itertools.permutations(range(2)):
            for hp in itertools.permutations(range(1)):
                rows = [[0]] * 2
                rows = [[pp[rep.table[p][0]]] for p in range(2)]
                remapped = [rows[0], rows[1]]
                relabeled = [None, None]
                for p in range(2):
                    relabeled[pp[p]] = tuple(rows[p])
                orbit.add(
                    strategy_to_index(
                        make_strategy(1, 1, pp[rep.init], relabeled)
                    )
                )
        covered |= orbit
    assert covered == full


def test_canonical_is_idempotent_and_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        strat = index_to_strategy(int(rng.integers(0, strategy_space(2))), 2)
        canon = canonical_strategy(strat)
        assert canonical_strategy(canon) == canon
        # Winning lengths are invariant under relabeling.
        assert delayer_wins_lengths(strat, 24).explicit == delayer_wins_lengths(
            canon, 24
        ).explicit


def test_certify_batch_matches_certificate():
    bt = board_tables(3)
    rng = np.random.default_rng(7)
    idxs = rng.integers(0, strategy_space(3), size=800, dtype=np.uint64)
    res = certify_batch(idxs, bt, s_max=16, fast_path=True)
    assert not res.uncertified.any()
    for row in range(0, 800, 7):
        strat = index_to_strategy(int(idxs[row]), 3)
        assert bool(res.wins_all[row]) == delayer_wins_lengths(strat).wins_all()


def _first_loss(cert) -> int:
    """The least losing length of a certificate, 0 when every length wins."""
    horizon = cert.s_max + cert.preperiod + cert.period
    return next((s for s in range(1, horizon + 1) if not cert.wins(s)), 0)


@st.composite
def _index_batches(draw):
    n = draw(st.sampled_from((1, 2, 3, 4)))
    idxs = draw(st.lists(st.integers(0, strategy_space(n) - 1), min_size=1, max_size=8))
    return n, idxs


@settings(max_examples=60, deadline=None)
@given(batch=_index_batches(), fast_path=st.booleans(), s_max=st.integers(1, 24))
@example(batch=(4, [5, 1105]), fast_path=True, s_max=1)  # repeat anchor set before dispatch
def test_certify_batch_matches_certificate_every_width(batch, fast_path, s_max):
    # n=1..3 run on uint16 masks and n=4 on uint32 ones.
    n, idxs = batch
    res = certify_batch(
        np.array(idxs, dtype=np.uint64), board_tables(n), s_max=s_max, fast_path=fast_path
    )
    assert not res.uncertified.any()
    for row, idx in enumerate(idxs):
        cert = delayer_wins_lengths(index_to_strategy(idx, n), s_max=s_max)
        assert bool(res.wins_all[row]) == cert.wins_all()
        assert int(res.first_fail[row]) == _first_loss(cert)


def test_certify_batch_n2_finds_prover_wins():
    bt = board_tables(2)
    idxs = np.arange(strategy_space(2), dtype=np.uint64)
    res = certify_batch(idxs, bt, s_max=32, fast_path=True)
    losers = int((~res.wins_all).sum())
    assert losers > 0
    paper = prover_small_n(2, 3)
    paper_idx = strategy_to_index(paper)
    assert not res.wins_all[paper_idx]
    # Spot-check a few flagged tables against the oracle.
    flagged = np.nonzero(~res.wins_all)[0][:10]
    for idx in flagged:
        strat = index_to_strategy(int(idx), 2)
        assert not all(brute_force_delayer_wins(strat, s) for s in range(1, 9))


def test_fast_path_agrees_with_slow_path():
    bt = board_tables(3)
    rng = np.random.default_rng(11)
    idxs = rng.integers(0, strategy_space(3), size=3000, dtype=np.uint64)
    fast = certify_batch(idxs, bt, s_max=64, fast_path=True)
    slow = certify_batch(idxs, bt, s_max=64, fast_path=False)
    assert (fast.wins_all == slow.wins_all).all()
    assert fast.fast_path.sum() > 0


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


def test_verify_order_axioms_small():
    rep = verify_order_axioms(2, 2)
    assert rep.ok
    assert rep.details["trees"] == 25


def test_verify_g2_properties_small():
    rep = verify_g2_properties(playouts=300, seed=5)
    assert rep.ok
    assert rep.details["ramify_branches"] > 0


def test_verify_g2prime_small():
    assert verify_g2prime(plays=40, seed=2).ok


def test_verify_loop_bound_slice():
    # The full exhaustive run is the acceptance campaign; a slice here,
    # cross-checked against the per-strategy search.
    from pebblegames.php_tree import shortest_loop_witness

    report = verify_loop_bound(3, batch_size=1 << 14, limit=60_000)
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


def test_report_line_format():
    rep = verify_small_n(1)
    line = rep.line(timing=False)
    assert line.startswith("claim=small-n-1 space=")
    assert line.endswith("seconds=0.000")


def test_oracle_gate_runs():
    from pebblegames.verify import _oracle_gate

    _oracle_gate(3, samples=30, s_hi=5)


def test_theorem_main_checkpoint_resume(tmp_path):
    from pebblegames.verify import verify_theorem_main

    ck = tmp_path / "progress.txt"
    first = verify_theorem_main(n=1, s_max=16, checkpoint=ck, batch_size=4)
    lines = ck.read_text().splitlines()
    assert lines and all(l.startswith("batch ") for l in lines)
    # Resuming replays only the recorded batches and reproduces the report.
    second = verify_theorem_main(n=1, s_max=16, checkpoint=ck, batch_size=4)
    assert first.counterexamples == second.counterexamples
    assert len(ck.read_text().splitlines()) == len(lines)


def test_symmetry_reduction_counts_n2():
    # Orbit sizes of the representatives add back up to the full space.
    import itertools as it

    reps = list(enumerate_strategies(2, symmetry=True))
    total = 0
    for rep in reps:
        orbit = set()
        for pp in it.permutations(range(3)):
            for hp in it.permutations(range(2)):
                rows = [[0, 0], [0, 0], [0, 0]]
                for p in range(3):
                    for h in range(2):
                        rows[pp[p]][hp[h]] = pp[rep.table[p][h]]
                orbit.add(
                    strategy_to_index(
                        make_strategy(2, 1, pp[rep.init], [tuple(r) for r in rows])
                    )
                )
        total += len(orbit)
    assert total == strategy_space(2)


def test_theorem_main_sampled_n4():
    from pebblegames.verify import verify_theorem_main

    rep = verify_theorem_main(n=4, sample=3000, seed=8)
    assert rep.ok and rep.space == 3000
    with pytest.raises(ValueError):
        verify_theorem_main(n=4)


def test_canonical_orbit_membership_n3_sample():
    # Sampled validation of the relabeling canonicalization at n=3: the
    # representative is never above its source and the source is in the
    # representative's orbit.
    import itertools as it

    rng = np.random.default_rng(19)
    for _ in range(25):
        idx = int(rng.integers(0, strategy_space(3)))
        strat = index_to_strategy(idx, 3)
        canon = canonical_strategy(strat)
        assert strategy_to_index(canon) <= idx
        orbit = set()
        for pp in it.permutations(range(4)):
            for hp in it.permutations(range(3)):
                rows = [[0] * 3 for _ in range(4)]
                for p in range(4):
                    for h in range(3):
                        rows[pp[p]][hp[h]] = pp[canon.table[p][h]]
                orbit.add(
                    strategy_to_index(
                        make_strategy(3, 1, pp[canon.init], [tuple(r) for r in rows])
                    )
                )
        assert idx in orbit
