import itertools
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pebblegames.figures import FIGURE_NAMES, example_strategy, load_figure, parse_cover
from pebblegames import figures, simple_game
from pebblegames.matching import GameSize, Record, records_conflict
from pebblegames.simple_game import (
    ParseError,
    PathSpec,
    Play,
    PlayOutcome,
    SearchBudgetExceeded,
    WinCertificate,
    adjacency_lines,
    all_canonical_plays,
    all_plays,
    brute_force_delayer_wins,
    check_cover_by_two,
    compatibility_masks,
    delayer_wins_lengths,
    find_loops,
    format_strategy,
    make_strategy,
    parse_play,
    parse_strategy,
    path_consistency,
    play_simplified,
    prover_small_n,
    subset_prover,
    won_lengths,
)
from pebblegames.verify import board_tables, index_to_strategy, strategy_space


def paper_n2():
    return prover_small_n(2, 3)


def test_play_examples():
    strat = paper_n2()
    r = play_simplified(strat, Play((0, 1, 0)))
    assert r.outcome is PlayOutcome.PROVER_WINS_FINAL
    assert r.records == (Record(0, 0), Record(1, 1), Record(2, 0))

    r2 = play_simplified(strat, Play((0, 0, 1)))
    assert r2.outcome is PlayOutcome.PROVER_WINS_MIDGAME
    assert r2.step == 2

    fig1 = example_strategy().with_s(3)
    r3 = play_simplified(fig1, Play((2, 1, 0)))
    assert r3.outcome is PlayOutcome.DELAYER_WINS
    assert r3.records == (Record(0, 2), Record(3, 1), Record(2, 0))


def test_play_incomplete_and_too_long():
    strat = paper_n2()
    assert play_simplified(strat, Play((0,))).outcome is PlayOutcome.INCOMPLETE
    with pytest.raises(ValueError):
        play_simplified(strat, Play((0, 0, 0, 0)))


def _won_by_prefix(strat, answers):
    """The lengths won by ``play_simplified``, one call per prefix."""
    return frozenset(
        s
        for s in range(1, len(answers) + 1)
        if play_simplified(strat.with_s(s), Play(answers[:s])).outcome
        is PlayOutcome.DELAYER_WINS
    )


def test_won_lengths_is_play_simplified_at_every_prefix_n2():
    # Every 23rd table of the n = 2 space, times every length-6 play.
    for idx in range(0, strategy_space(2), 23):
        strat = index_to_strategy(idx, 2)
        for answers in itertools.product(strat.size.holes, repeat=6):
            assert won_lengths(strat, Play(answers)) == _won_by_prefix(strat, answers)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.sampled_from([3, 4]), cut=st.booleans())
def test_won_lengths_is_play_simplified_at_every_prefix(data, n, cut):
    strat = index_to_strategy(data.draw(st.integers(0, strategy_space(n) - 1)), n)
    holes = st.integers(0, n - 1)
    answers = data.draw(st.lists(holes, min_size=1, max_size=3 * n + 3))
    head = len(answers)
    if cut:
        # Contradict the last record: the walk stops at step head + 1 at
        # the latest, whatever follows.
        question = strat.init
        for h in answers[:-1]:
            question = strat.table[question][h]
        last = Record(question, answers[-1])
        same_pigeon = strat.next_question(last) == last.pigeon
        answers += [(last.hole + 1) % n if same_pigeon else last.hole]
        answers += data.draw(st.lists(holes, max_size=4))
    won = won_lengths(strat, Play(tuple(answers)))
    assert won == _won_by_prefix(strat, tuple(answers))
    if cut:
        assert max(won, default=0) <= head


def test_won_lengths_refuses_an_answer_that_is_not_a_hole():
    for answers in ((2,), (0, 2), (-1,)):
        with pytest.raises(ValueError, match="not a hole"):
            won_lengths(paper_n2(), Play(answers))


def test_build_graph_counts():
    fig1 = example_strategy()
    assert len(fig1.edges()) == 12
    # An edge of the strategy graph is a record, not a tuple like one.
    assert all(type(e) is Record for e in fig1.edges())
    assert fig1.init == 0
    assert adjacency_lines(fig1) == [
        "*0: 0->1 1->1 2->3",
        " 1: 0->2 1->2 2->3",
        " 2: 0->2 1->2 2->3",
        " 3: 0->1 1->2 2->3",
    ]
    all_loops = make_strategy(3, 1, 0, {(p, h): p for p in range(4) for h in range(3)})
    assert len(find_loops(all_loops)) == 12


def test_edges_compatible():
    # Two edges are compatible when their records do not conflict; the
    # board's compatibility masks hold the same fact.
    size = GameSize(2)
    masks = compatibility_masks(size)
    index = {(p, h): len(size.holes) * p + h for p in size.pigeons for h in size.holes}
    for (a, b), compatible in [
        (((2, 0), (2, 1)), False),
        (((0, 0), (1, 0)), False),
        (((0, 0), (1, 1)), True),
    ]:
        assert (not records_conflict(Record(*a), Record(*b))) == compatible
        assert bool(masks[index[a]] >> index[b] & 1) == compatible


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compatibility_masks_match_the_engine_and_are_built_once(n):
    masks = compatibility_masks(GameSize(n))
    assert isinstance(masks, tuple)
    # The batch engine derives the same board fact from its own formula: the
    # certificate walk's slots of candidate c hold the edges compatible with c.
    walked = board_tables(n).certify.hit_plane.T // (n + 1)  # (E, slots per candidate)
    assert len(masks) == len(walked)
    for mask, edges in zip(masks, walked):
        assert [f for f in range(len(masks)) if mask >> f & 1] == edges.tolist()
    compatibility_masks.cache_clear()
    rng = np.random.default_rng(n)
    for idx in rng.choice(strategy_space(n), min(100, strategy_space(n)), replace=False):
        delayer_wins_lengths(index_to_strategy(int(idx), n))
    assert compatibility_masks.cache_info().misses == 1


def test_dfs_oracle_does_not_read_the_certificate_masks(monkeypatch):
    strats = [index_to_strategy(i, 3) for i in (0, 12345, 4**13 - 1)]
    expected = [brute_force_delayer_wins(t, 6) for t in strats]
    assert expected[0] == frozenset(range(1, 7))

    def refuse(size):
        raise AssertionError("the DFS oracle read the certificate's masks")

    monkeypatch.setattr(simple_game, "compatibility_masks", refuse)
    with pytest.raises(AssertionError):
        delayer_wins_lengths(strats[0])
    assert [brute_force_delayer_wins(t, 6) for t in strats] == expected


def test_find_loops_fig1():
    fig1 = example_strategy()
    assert find_loops(fig1) == frozenset(
        {Record(2, 0), Record(2, 1), Record(3, 2)}
    )
    assert all(type(e) is Record for e in find_loops(fig1))
    no_loops = make_strategy(
        3, 1, 0, {(p, h): (p + 1) % 4 for p in range(4) for h in range(3)}
    )
    assert find_loops(no_loops) == frozenset()


def test_path_consistency_fig2_chain():
    # The globally consistent chain: node k steps down via hole k-1.
    n = 5
    table = {}
    for p in range(n + 1):
        for h in range(n):
            table[(p, h)] = p - 1 if (p >= 1 and h == p - 1) else p
    strat = make_strategy(n, n, n, table)
    chain = [Record(k, k - 1) for k in range(n, 0, -1)]
    flags = path_consistency(strat, chain)
    assert flags.is_path and flags.locally_consistent
    assert flags.globally_consistent and flags.last_edge_globally_consistent


def test_path_consistency_fig1_paths():
    fig1 = example_strategy()
    good = [Record(0, 2), Record(3, 1), Record(2, 0)]
    flags = path_consistency(fig1, good)
    assert flags.is_path and flags.locally_consistent and flags.globally_consistent

    bad = [Record(0, 0), Record(1, 1), Record(2, 0)]
    flags2 = path_consistency(fig1, bad)
    assert flags2.is_path and flags2.locally_consistent
    assert not flags2.last_edge_globally_consistent


def test_canonical_antistrategy_examples():
    # The canonical anti-strategy is the first canonical play: fresh holes
    # are tried in ascending order.
    fig1 = example_strategy()
    for s in range(1, 4):
        cp = next(all_canonical_plays(fig1.with_s(s)))
        assert play_simplified(fig1.with_s(s), cp.play).outcome is PlayOutcome.DELAYER_WINS
    cp3 = next(all_canonical_plays(fig1.with_s(3)))
    assert cp3.play.answers == (0, 1, 2)

    # A table revisiting a pigeon early keeps winning for every length.
    looper = make_strategy(3, 1, 0, {(p, h): 0 for p in range(4) for h in range(3)})
    for s in (1, 5, 9, 23):
        cp = next(all_canonical_plays(looper.with_s(s)))
        assert play_simplified(looper.with_s(s), cp.play).outcome is PlayOutcome.DELAYER_WINS
        assert cp.gave_up_step is None


def test_canonical_all_policies_enumeration():
    fig1 = example_strategy().with_s(3)
    plays = list(all_canonical_plays(fig1))
    # Three fresh choices at the root times the forced continuations.
    assert len(plays) >= 3
    assert any(cp.play.answers == (0, 1, 2) for cp in plays)
    for cp in plays:
        assert play_simplified(fig1, cp.play).outcome is PlayOutcome.DELAYER_WINS


def test_brute_force_examples():
    # Pinned from the per-length oracle this one-search form replaced.
    assert brute_force_delayer_wins(paper_n2(), 6) == frozenset({1, 2})
    assert brute_force_delayer_wins(example_strategy(), 8) == frozenset(range(1, 9))


def _enumerated_wins(strat, s_max):
    """The lengths Delayer wins, read off every answer sequence: a sequence
    wins when its walk is locally consistent and its last edge is
    compatible with every earlier edge."""
    won = set()
    for s in range(1, s_max + 1):
        for answers in itertools.product(strat.size.holes, repeat=s):
            walk, question = [], strat.init
            for h in answers:
                walk.append(Record(question, h))
                question = strat.table[question][h]
            local = all(not records_conflict(a, b) for a, b in zip(walk, walk[1:]))
            if local and all(not records_conflict(e, walk[-1]) for e in walk[:-1]):
                won.add(s)
                break
    return frozenset(won)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), s_max=st.integers(1, 6))
def test_one_search_oracle_is_the_literal_enumeration(data, n, s_max):
    strat = index_to_strategy(data.draw(st.integers(0, strategy_space(n) - 1)), n)
    assert brute_force_delayer_wins(strat, s_max) == _enumerated_wins(strat, s_max)


def test_one_search_oracle_matches_the_certificate_on_all_of_n2():
    for idx in range(strategy_space(2)):
        strat = index_to_strategy(idx, 2)
        cert = delayer_wins_lengths(strat, s_max=16)
        assert brute_force_delayer_wins(strat, 8) == frozenset(
            s for s in range(1, 9) if cert.wins(s)
        )


def test_oracle_budget_and_length_bounds(monkeypatch):
    n2 = paper_n2()
    monkeypatch.setattr(simple_game, "DFS_BUDGET", 63)
    with pytest.raises(SearchBudgetExceeded):
        brute_force_delayer_wins(n2, 6)
    monkeypatch.setattr(simple_game, "DFS_BUDGET", 64)
    assert brute_force_delayer_wins(n2, 6) == frozenset({1, 2})
    for s_max in (0, -1):
        with pytest.raises(ValueError, match="lengths start at 1"):
            brute_force_delayer_wins(n2, s_max)


def test_certificate_examples():
    fig1 = example_strategy()
    cert = delayer_wins_lengths(fig1)
    assert cert.wins_all()

    n2 = paper_n2()
    cert2 = delayer_wins_lengths(n2)
    assert cert2.wins(1) and cert2.wins(2)
    assert not any(cert2.wins(s) for s in range(3, 80))


def test_certificate_vs_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(120):
        strat = index_to_strategy(int(rng.integers(0, strategy_space(3))), 3)
        cert = delayer_wins_lengths(strat, s_max=12)
        dfs = brute_force_delayer_wins(strat, 6)
        for s in range(1, 7):
            assert cert.wins(s) == (s in dfs)


def _candidate_orbits(strat):
    """Each candidate's orbit found on its own, as the certificate once did:
    (preperiod, period, hit flags) per final-edge candidate, with
    ``hits[t]`` the win at ``s = t + 2``."""
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
    orbits = []
    for c in range(num_edges):
        allowed = compat[c]
        target = in_mask[c // n]
        r = out_mask[strat.init] & allowed
        seen = {}
        hits = []
        while r not in seen:
            seen[r] = len(hits)
            hits.append(bool(r & target))
            nxt = 0
            m = r
            while m:
                e = (m & -m).bit_length() - 1
                nxt |= trans[e]
                m &= m - 1
            r = nxt & allowed
        orbits.append((seen[r], len(hits) - seen[r], hits))
    return orbits


def _per_candidate_certificate(strat, s_max=64):
    """The certificate built from separate candidate orbits: the reference
    the joint orbit of ``delayer_wins_lengths`` must reproduce.  The joint
    orbit starts to cycle at the largest candidate ``mu`` and its period is
    the lcm of the candidate periods, so it has ``mu + lcm`` hits."""
    orbits = _candidate_orbits(strat)
    mu = max(m for m, _, _ in orbits)
    period = math.lcm(*(lam for _, lam, _ in orbits))
    hits = tuple(
        any(h[t if t < len(h) else m + (t - m) % lam] for m, lam, h in orbits)
        for t in range(mu + period)
    )
    return WinCertificate(s_max, hits, mu)


def _certificate_cases():
    """(board, index): every table at n = 1, 2; at n = 3, 4 the oracle
    gate's 150 tables and 2,000 more seeded ones."""
    for n in (1, 2):
        for idx in range(strategy_space(n)):
            yield n, idx
    for n in (3, 4):
        gate = np.random.default_rng(20240901).choice(strategy_space(n), 150, replace=False)
        for idx in gate:
            yield n, int(idx)
        for idx in np.random.default_rng(n).choice(strategy_space(n), 2000, replace=False):
            yield n, int(idx)


def test_joint_orbit_certificate_matches_per_candidate_orbits():
    for n, idx in _certificate_cases():
        strat = index_to_strategy(idx, n)
        assert delayer_wins_lengths(strat) == _per_candidate_certificate(strat), (n, idx)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_joint_orbit_certificate_on_subset_boards(n):
    # 2^n pigeons, so the candidate count E = 2^n * n is not (n + 1) * n.
    strat = subset_prover(n)
    for s_max in (1, 16, 64):
        assert delayer_wins_lengths(strat, s_max) == _per_candidate_certificate(strat, s_max)


@pytest.mark.parametrize("n, idx, periods", [(3, 32541258, {2, 3}), (4, 23276192149384, {2, 3, 4})])
def test_joint_orbit_period_is_the_lcm_of_candidate_periods(n, idx, periods):
    strat = index_to_strategy(idx, n)
    orbits = _candidate_orbits(strat)
    assert {lam for _, lam, _ in orbits} - {1} == periods
    cert = delayer_wins_lengths(strat)
    assert cert.period == math.lcm(*periods)
    assert cert.preperiod == max(mu for mu, _, _ in orbits) + 1
    assert cert == _per_candidate_certificate(strat)


def test_play_outcome_matches_path_classification():
    # Delayer wins a full-length play iff the induced edge path is locally
    # consistent with a globally consistent last edge.
    rng = np.random.default_rng(6)
    for _ in range(40):
        strat = index_to_strategy(int(rng.integers(0, strategy_space(3))), 3, s=4)
        for play in all_plays(strat):
            result = play_simplified(strat, play)
            edges = []
            q = strat.init
            for h in play.answers:
                edges.append(Record(q, h))
                q = strat.table[q][h]
            flags = path_consistency(strat, edges)
            delayer_won = flags.locally_consistent and flags.last_edge_globally_consistent
            assert (result.outcome is PlayOutcome.DELAYER_WINS) == delayer_won


def test_prover_small_n():
    with pytest.raises(ValueError):
        prover_small_n(3, 4)
    with pytest.raises(ValueError):
        prover_small_n(2, 2)
    for n, s in ((1, 2), (2, 3), (2, 5)):
        strat = prover_small_n(n, s)
        assert all(play_simplified(strat, p).prover_won for p in all_plays(strat))


def test_subset_prover():
    strat = subset_prover(3)
    assert strat.size.pigeon_count == 8
    assert strat.s == 4
    plays = list(all_plays(strat))
    assert len(plays) == 3**4
    assert all(play_simplified(strat, p).prover_won for p in plays)
    # Fresh answers strictly grow the queried subset.
    for mask in range(8):
        for h in range(3):
            nxt = strat.table[mask][h]
            if (mask >> h) & 1:
                assert nxt == mask
            else:
                assert bin(nxt).count("1") == bin(mask).count("1") + 1


def test_subset_prover_n1():
    strat = subset_prover(1)
    assert all(play_simplified(strat, p).prover_won for p in all_plays(strat))


def test_check_cover_by_two_fig4():
    fig4 = load_figure("fig4")
    assert fig4.paths[0].prefix == (Record(3, 2), Record(2, 1), Record(1, 2))
    assert fig4.paths[0].cycle == (Record(0, 0),)
    assert fig4.paths[0].red == frozenset({Record(1, 2)})
    assert all(type(e) is Record for e in fig4.paths[0].prefix + fig4.paths[0].cycle)
    assert check_cover_by_two(fig4.paths, 4, 60)


def test_fig5_parity():
    fig5 = load_figure("fig5")
    a, b = fig5.paths
    from pebblegames.simple_game import _last_globally_consistent

    for s in range(4, 30):
        wa = _last_globally_consistent(a.unroll(s))
        wb = _last_globally_consistent(b.unroll(s))
        assert wa != wb  # exactly one row covers each length
        # One row wins exactly the even values of s - n - 1 (n = 3); in the
        # shipped encoding that is the figure's second row.
        assert wb == ((s - 4) % 2 == 0)


def test_all_figures_validate():
    for name in FIGURE_NAMES:
        assert load_figure(name).check(60), name


def test_cover_negative_control():
    fig4 = load_figure("fig4")
    a = fig4.paths[0]
    # Marking the covering loop edge red must fail the certificate.
    poisoned = PathSpec(a.prefix, a.cycle, a.red | {Record(0, 0)})
    assert not check_cover_by_two([poisoned], 4, 20)


def test_cover_red_must_match_recomputation():
    # Un-marking a red edge that occurs as a last edge in the window is
    # rejected: color coding is machine-checked, not trusted.  (Fig 4's
    # prefix red edge sits below the threshold, so the control uses fig 5.)
    fig5 = load_figure("fig5")
    a, b = fig5.paths
    whitewashed = PathSpec(a.prefix, a.cycle, frozenset())
    assert not check_cover_by_two([whitewashed, b], 4, 20)


def test_path_spec_validation():
    with pytest.raises(ValueError):
        PathSpec((), ())
    with pytest.raises(ValueError):
        # Edge (0,0) cannot have two different successors.
        PathSpec((Record(0, 0), Record(1, 1), Record(0, 0)), (Record(2, 2),))
    with pytest.raises(ValueError):
        PathSpec((Record(0, 0),), (), frozenset({Record(1, 1)}))
    finite = PathSpec((Record(0, 0),), ())
    with pytest.raises(ValueError):
        finite.unroll(2)


def test_parse_cover_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cover("cover x\nn 3\nthreshold 4\npath\nwhat 1 2\n")


_STRATEGY_HEAD = "game simple\nn 1\ns 2\ninit 0\n"
_MAPS = "map 0 0 -> 1\nmap 1 0 -> 0\n"
_COVER_HEAD = "cover x\nn 3\nthreshold 4\npath\n"


@pytest.mark.parametrize(
    "parse, text, line_no, message",
    [
        (parse_strategy, _STRATEGY_HEAD + "map 0 0 -> 9\nmap 1 0 -> 0\n", 5, "not a pigeon"),
        (parse_strategy, _STRATEGY_HEAD.replace("init 0", "init 7") + _MAPS, 4, "not a pigeon"),
        (parse_strategy, _STRATEGY_HEAD.replace("n 1", "n 0"), 2, "at least one hole"),
        (parse_strategy, _STRATEGY_HEAD.replace("s 2", "s 0"), 3, "round count"),
        (parse_strategy, _STRATEGY_HEAD + "pigeons 1\n", 5, "pigeon override"),
        (parse_play, "# answers\nanswers 0 x\n", 2, "cannot parse"),
        (parse_cover, "cover\nn 3\nthreshold 4\npath\nedge 0 0\n", 1, "cannot parse"),
        (parse_cover, "cover x\nn three\nthreshold 4\npath\nedge 0 0\n", 2, "cannot parse"),
        (parse_cover, _COVER_HEAD + "edge 0 q\n", 5, "cannot parse"),
        (parse_cover, _COVER_HEAD + "edge 0 0\nedge 1 1\nedge 0 0\ncycle\nedge 2 2\n", 9, "two succ"),
        # A header key takes exactly one value and appears once.
        (parse_strategy, _STRATEGY_HEAD.replace("n 1", "n 1 9") + _MAPS, 2, "cannot parse 'n 1 9'"),
        (parse_strategy, _STRATEGY_HEAD.replace("s 2", "s 2 junk") + _MAPS, 3, "cannot parse 's 2 junk'"),
        (parse_strategy, _STRATEGY_HEAD.replace("init 0", "init") + _MAPS, 4, "cannot parse 'init'"),
        (parse_strategy, _STRATEGY_HEAD.replace("simple", "simple x") + _MAPS, 1, "cannot parse"),
        (parse_strategy, _STRATEGY_HEAD + "s 5\n" + _MAPS, 5, "'s' already given on line 3"),
        (parse_strategy, _STRATEGY_HEAD + "s 2\n" + _MAPS, 5, "'s' already given on line 3"),
        (parse_strategy, _STRATEGY_HEAD + "game simple\n" + _MAPS, 5, "'game' already given on line 1"),
        (parse_cover, _COVER_HEAD.replace("cover x", "cover x y") + "edge 0 0\n", 1, "cannot parse 'cover x y'"),
        (parse_cover, _COVER_HEAD.replace("n 3", "n 3 4") + "edge 0 0\n", 2, "cannot parse 'n 3 4'"),
        (parse_cover, _COVER_HEAD.replace("threshold 4", "threshold 4 4") + "edge 0 0\n", 3, "cannot parse"),
        (parse_cover, _COVER_HEAD + "n 4\nedge 0 0\n", 5, "'n' already given on line 2"),
        (parse_cover, _COVER_HEAD + "cover y\nedge 0 0\n", 5, "'cover' already given on line 1"),
        (parse_cover, _COVER_HEAD + "threshold 9\nedge 0 0\n", 5, "'threshold' already given"),
        # A play is one answers line.
        (parse_play, "answers 0 1\nanswers 2 2\n", 2, "one 'answers' line"),
        (parse_play, "answers 0 1\n# note\ngarbage here\n", 3, "one 'answers' line"),
        # Every edge and cycle marker belongs to a path, with one cycle each.
        (parse_cover, _COVER_HEAD.replace("path\n", "edge 3 0\ncycle\nedge 0 1\npath\nedge 3 1\n"), 4, "'edge'"),
        (parse_cover, _COVER_HEAD.replace("path\n", "red-edge 3 0\npath\nedge 3 1\n"), 4, "'red-edge'"),
        (parse_cover, _COVER_HEAD.replace("path\n", "cycle\npath\nedge 3 1\n"), 4, "'cycle'"),
        (parse_cover, _COVER_HEAD + "edge 3 0\ncycle\nedge 0 1\ncycle\nedge 3 1\n", 8, "second 'cycle'"),
    ],
    ids=[
        "map-value", "init", "n", "s", "pigeons", "answer", "cover", "cover-n", "edge", "path",
        "n-extra", "s-extra", "init-bare", "game-extra", "s-twice", "s-same-twice", "game-twice",
        "cover-extra", "cover-n-extra", "threshold-extra", "cover-n-twice", "cover-twice",
        "threshold-twice", "answers-twice", "answers-then-garbage", "edge-before-path",
        "red-edge-before-path", "cycle-before-path", "cycle-twice",
    ],
)
def test_parsers_name_the_line_they_refuse(parse, text, line_no, message):
    with pytest.raises(ParseError, match=message) as refused:
        parse(text)
    assert refused.value.line_no == line_no
    assert str(refused.value).startswith(f"line {line_no}: ")


@pytest.mark.parametrize("edge", ["4 0", "0 3", "-1 0"])
def test_cover_edges_stay_on_the_header_board(edge):
    with pytest.raises(ParseError, match="off the 3-hole board") as refused:
        parse_cover(_COVER_HEAD + f"edge 3 2\nedge {edge}\n")
    assert refused.value.line_no == 6


def test_load_figure_refuses_a_file_of_another_cover(tmp_path, monkeypatch):
    planted = tmp_path / "data" / "figures" / "fig4.cover"
    planted.parent.mkdir(parents=True)
    fig5 = resources.files("pebblegames").joinpath("data/figures/fig5.cover")
    planted.write_text(fig5.read_text())
    monkeypatch.setattr(figures.resources, "files", lambda package: tmp_path)
    with pytest.raises(ValueError, match="fig4.cover holds cover 'fig5'"):
        load_figure("fig4")


def test_strategy_file_round_trip():
    fig1 = example_strategy()
    assert parse_strategy(format_strategy(fig1)) == fig1
    sub = subset_prover(2)
    assert parse_strategy(format_strategy(sub)) == sub


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), s=st.integers(1, 8))
def test_strategy_file_round_trip_property(data, n, s):
    idx = data.draw(st.integers(0, strategy_space(n) - 1))
    strat = index_to_strategy(idx, n, s)
    assert parse_strategy(format_strategy(strat)) == strat


def test_strategy_file_rejects_unknown_keys():
    text = format_strategy(example_strategy()) + "zzz 1\n"
    with pytest.raises(ValueError, match="unknown key"):
        parse_strategy(text)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), duplicate=st.booleans())
def test_strategy_file_refuses_a_repeated_or_off_board_cell(data, n, duplicate):
    strat = index_to_strategy(data.draw(st.integers(0, strategy_space(n) - 1)), n)
    lines = format_strategy(strat).splitlines()
    i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("map ")]))
    if duplicate:
        lines.insert(data.draw(st.integers(i + 1, len(lines))), lines[i])
    else:
        _, p, h, _, v = lines[i].split()
        far = data.draw(st.integers(0, 9))
        p, h = data.draw(st.sampled_from([(n + 1 + far, h), (-1 - far, h), (p, n + far)]))
        lines[i] = f"map {p} {h} -> {v}"
    with pytest.raises(ParseError, match="already mapped" if duplicate else "off the board"):
        parse_strategy("\n".join(lines) + "\n")


def test_play_file():
    assert parse_play("answers 0 1 2\n").answers == (0, 1, 2)
    with pytest.raises(ValueError):
        parse_play("holes 0 1\n")


def test_canonical_wins_for_small_s_random():
    # Any table is Delayer-won by the canonical anti-strategy when the
    # round count stays within the hole count.
    rng = np.random.default_rng(41)
    for _ in range(200):
        strat = index_to_strategy(int(rng.integers(0, strategy_space(3))), 3)
        for s in range(1, 4):
            cp = next(all_canonical_plays(strat.with_s(s)))
            assert play_simplified(strat.with_s(s), cp.play).outcome is PlayOutcome.DELAYER_WINS
            assert cp.gave_up_step is None


def test_no_canonical_play_wins_at_its_gave_up_step():
    # At the give-up step the question is new and every hole is taken by
    # another pigeon, so the filler record always conflicts: counting the
    # gave-up step itself or not gives the same canonical wins.
    rng = np.random.default_rng(47)
    tables = [index_to_strategy(idx, 2) for idx in range(strategy_space(2))]
    tables += [index_to_strategy(int(rng.integers(0, strategy_space(3))), 3) for _ in range(300)]
    gave_up = 0
    for strat in tables:
        for cp in all_canonical_plays(strat.with_s(3 * strat.size.n + 3)):
            if cp.gave_up_step is not None:
                gave_up += 1
                assert cp.gave_up_step not in won_lengths(strat, cp.play)
    assert gave_up > 500
