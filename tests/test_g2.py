import inspect

import pytest
from hypothesis import given, settings, strategies as st

from pebblegames import g2 as g2mod
from pebblegames import g2prime as g2p
from pebblegames.g2 import (
    ContractViolation,
    G2Position,
    G2Tag,
    MalformedMove,
    PositionLabel,
    PositionStrategy,
    ProverMove,
    answer_options,
    exhaust_delayer,
    format_transcript,
    g2_apply,
    g2_play,
    initial_position,
    prover_root_ramify,
    random_nc_tree,
    random_playout,
    root_ramify_tree,
)
from pebblegames.g2prime import (
    PrimeCodec,
    required_prime_degree,
    to_g2prime,
)
from pebblegames.matching import (
    GameSize,
    LogPower,
    Matching,
    Query,
    Record,
    all_matchings,
    minimal_covers,
)
from pebblegames.trees import FiniteTree, Ordering, TreeOracle, is_nc_tree
from pebblegames.verify import _seeded_oblivious, verify_g2_properties, verify_g2prime

CFG = LogPower(3, 2)
RAMIFY = TreeOracle.explicit(root_ramify_tree(3))


def M(*pairs):
    return Matching(tuple(Record(p, h) for p, h in pairs))


def label(m, aux):
    return PositionLabel(m, aux)


def test_option1_extends():
    res = g2_apply(initial_position(), M((1, 0)), ProverMove(1, 1, 1), CFG, RAMIFY)
    assert res.tag is G2Tag.ONGOING
    assert res.position.dom == ((), (1,))
    assert res.position.labels[(1,)] == label(M((1, 0)), (1,))


def test_option1_off_tree_loses():
    pos = g2_apply(initial_position(), M((1, 0)), ProverMove(1, 1, 1), CFG, RAMIFY).position
    deep = g2_apply(pos, M(), ProverMove(1, 1, 1), CFG, RAMIFY).position
    res = g2_apply(deep, M(), ProverMove(1, 1, 1), CFG, RAMIFY)
    assert res.tag is G2Tag.DELAYER_WINS


def test_option1_contradiction_wins():
    pos = g2_apply(initial_position(), M((1, 0)), ProverMove(1, 1, 1), CFG, RAMIFY).position
    res = g2_apply(pos, M((2, 0)), ProverMove(1, 1, 1), CFG, RAMIFY)
    assert res.tag is G2Tag.PROVER_WINS


def test_option2_missing_sibling_loses():
    chain = TreeOracle.explicit(FiniteTree(((), (1,), (1, 1))))
    pos = g2_apply(initial_position(), M((1, 0)), ProverMove(1, 1, 1), CFG, chain).position
    res = g2_apply(pos, M(), ProverMove(2, (), 1), CFG, chain)
    assert res.tag is G2Tag.DELAYER_WINS


def test_option2_carries_lower_label():
    pos = g2_apply(initial_position(), M((1, 0)), ProverMove(1, 1, 1), CFG, RAMIFY).position
    res = g2_apply(pos, M((2, 1)), ProverMove(2, (), 7), CFG, RAMIFY)
    assert res.tag is G2Tag.ONGOING
    # The new sibling carries the root's matching (empty) plus the answer.
    assert res.position.labels[(2,)] == label(M((2, 1)), (7,))
    assert (1,) in res.position.labels  # the passed sibling is kept


def test_option3_spec_trace():
    pos = G2Position(
        {
            (): label(M(), ()),
            (1,): label(M((0, 0)), (1,)),
            (2,): label(M((0, 0)), (1,)),
        }
    )
    res = g2_apply(pos, M((0, 1)), ProverMove(3, (), 1), CFG, RAMIFY)
    assert res.tag is G2Tag.PROVER_WINS
    assert res.position is None  # the play ends; nothing is erased


def test_option3_regrows_right_branch():
    pos = G2Position(
        {
            (): label(M(), ()),
            (1,): label(M((0, 0)), (1,)),
            (2,): label(M((1, 1)), (2,)),
        }
    )
    res = g2_apply(pos, M((2, 2)), ProverMove(3, (), 9), CFG, RAMIFY)
    assert res.tag is G2Tag.ONGOING
    assert res.position.dom == ((), (1,), (1, 1))
    assert res.position.labels[(1, 1)] == label(M((0, 0), (2, 2)), (1, 9))
    assert set(pos.dom) - set(res.position.dom) == {(2,)}  # the erased subtree


def test_option3_missing_left_sibling_loses():
    pos = g2_apply(initial_position(), M((1, 0)), ProverMove(1, 1, 1), CFG, RAMIFY).position
    res = g2_apply(pos, M(), ProverMove(3, (), 1), CFG, RAMIFY)
    assert res.tag is G2Tag.DELAYER_WINS


def test_option3_leaf_landing_loses():
    pos = G2Position(
        {
            (): label(M(), ()),
            (1,): label(M(), (1,)),
            (1, 1): label(M(), (1, 1)),
            (2,): label(M(), (2,)),
        }
    )
    res = g2_apply(pos, M(), ProverMove(3, (), 1), CFG, RAMIFY)
    assert res.tag is G2Tag.DELAYER_WINS


def test_apply_refuses_a_transition_that_does_not_grow(monkeypatch):
    # Termination rests on every ongoing position growing in the tree order;
    # g2_apply itself refuses a transition that does not.
    monkeypatch.setattr(g2mod, "tree_compare", lambda a, b: Ordering.GREATER)
    with pytest.raises(ContractViolation, match="failed to grow"):
        g2_apply(initial_position(), M((1, 0)), ProverMove(1, 1, 1), CFG, RAMIFY)
    # Moves that end the play produce no position to compare.
    pos = G2Position({(): label(M(), ()), (1,): label(M((1, 0)), (1,))})
    assert g2_apply(pos, M((2, 0)), ProverMove(1, 1, 1), CFG, RAMIFY).tag is G2Tag.PROVER_WINS


def test_move_validation():
    with pytest.raises(MalformedMove):
        g2_apply(initial_position(), M(), ProverMove(4, 1, 1), CFG, RAMIFY)
    with pytest.raises(MalformedMove):
        g2_apply(initial_position(), M(), ProverMove(1, 0, 1), CFG, RAMIFY)
    with pytest.raises(MalformedMove):
        g2_apply(initial_position(), M(), ProverMove(1, 1, 0), CFG, RAMIFY)
    pos = g2_apply(initial_position(), M(), ProverMove(1, 1, 1), CFG, RAMIFY).position
    with pytest.raises(MalformedMove):
        g2_apply(pos, M(), ProverMove(2, (1,), 1), CFG, RAMIFY)  # not a proper prefix
    # B and a child index lie in [1, 2**width].
    cfg = LogPower(3, 3)
    assert cfg.width == 8
    g2mod._validate_move(ProverMove(1, 256, 256), (), cfg)
    for v in (0, 257):
        with pytest.raises(MalformedMove, match=r"outside \[1, 2\*\*8\]"):
            g2mod._validate_move(ProverMove(1, 1, v), (), cfg)
        with pytest.raises(MalformedMove, match="needs a child index"):
            g2mod._validate_move(ProverMove(1, v, 1), (), cfg)


def test_position_invariants():
    with pytest.raises(ValueError):
        G2Position({(1,): label(M(), (1,))})  # not downward closed
    with pytest.raises(ValueError):
        G2Position({(): label(M(), (1,))})  # aux length mismatch
    with pytest.raises(ValueError):
        G2Position(
            {
                (): label(M((0, 0)), ()),
                (1,): label(M((1, 1)), (1,)),  # drops the root's record
            }
        )


def _all_pairs_valid(labels):
    """The label conditions checked between every vertex and each of its
    proper descendants, not between parents and children only."""
    if any(len(lab.aux) != len(v) for v, lab in labels.items()):
        return False
    for v, up in labels.items():
        for w, down in labels.items():
            if v != w and w[: len(v)] == v:
                if not set(up.matching.entries) <= set(down.matching.entries):
                    return False
                if down.aux[: len(up.aux)] != up.aux:
                    return False
    return True


_BOARD_MATCHINGS = list(all_matchings(GameSize(3)))


@st.composite
def _labelings(draw):
    """A tree of depth up to 4 whose labels grow down each root path, then
    up to two labels at depth 2 or more replaced: by a grown label of
    another parent, or by an arbitrary matching and aux."""
    records = st.builds(Record, st.integers(0, 3), st.integers(0, 2))

    def grown(up):
        entries = up.matching.entries + tuple(draw(st.lists(records, max_size=2)))
        try:
            matching = Matching(entries)
        except ValueError:
            matching = up.matching
        return PositionLabel(matching, up.aux + (draw(st.integers(1, 3)),))

    labels = {(): PositionLabel(Matching(), ())}
    stack = [()]
    while stack:
        v = stack.pop()
        for i in range(1, (draw(st.integers(0, 2)) if len(v) < 4 else 0) + 1):
            labels[v + (i,)] = grown(labels[v])
            stack.append(v + (i,))
    deep = sorted(v for v in labels if len(v) >= 2)
    for v in draw(st.lists(st.sampled_from(deep), max_size=2)) if deep else ():
        if draw(st.booleans()):
            labels[v] = grown(labels[draw(st.sampled_from(sorted(labels)))])
        else:
            matching = draw(st.sampled_from(_BOARD_MATCHINGS))
            aux = tuple(draw(st.lists(st.integers(1, 3), min_size=len(v), max_size=len(v))))
            labels[v] = PositionLabel(matching, aux)
    return labels


@settings(max_examples=300, deadline=None)
@given(labels=_labelings())
def test_parent_checks_accept_what_the_all_pairs_check_accepts(labels):
    try:
        G2Position(labels)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _all_pairs_valid(labels)


def test_root_ramify_tree_shape():
    tree = root_ramify_tree(3)
    assert tree.vertices == ((), (1,), (1, 1), (2,), (2, 1), (3,), (3, 1), (4,), (4, 1))
    assert is_nc_tree(tree, CFG)


def test_root_ramify_rejects_bad_parameters():
    with pytest.raises(ValueError):
        prover_root_ramify(LogPower(1, 2))
    with pytest.raises(ValueError):
        prover_root_ramify(LogPower(3, 1))  # height-2 board needs C >= 2
    with pytest.raises(ValueError, match="n = 2 and 3 only"):
        prover_root_ramify(LogPower(4, 2))  # it loses some branch there


def _ramify_delayer_tree(n, C):
    cfg = LogPower(n, C)
    tree, strategy = prover_root_ramify(cfg)
    return exhaust_delayer(cfg, TreeOracle.explicit(tree), strategy)


def test_root_ramify_beats_exhaustive_delayer():
    # (Prover wins every branch, terminal branches, deepest step); the
    # board's height is 2, so a larger C changes no play.
    for C in (2, 3):
        assert _ramify_delayer_tree(3, C) == (True, 39, 3)


def test_root_ramify_n2():
    for C in (2, 3):
        assert _ramify_delayer_tree(2, C) == (True, 4, 2)


def test_play_monotonicity_fuzz():
    for n in (3, 4):
        cfg = LogPower(n, 2)
        for i in range(150):
            tree = random_nc_tree(2, 1000 * n + i)
            res = random_playout(cfg, TreeOracle.explicit(tree), i)
            assert res.winner in ("prover", "delayer")
            assert res.steps <= 2 ** (3 ** 3)


def test_playout_step_cap_lies_below_the_instantiated_bound():
    # verify_g2_properties checks halting by the cap alone, so the cap must
    # lie below the bound 2 ** (3 ** (C + 1)) on a play at branching 3, C = 2.
    assert g2mod.PLAYOUT_STEP_CAP < 2 ** (3 ** 3)


def test_g2_properties_lists_playouts_past_the_step_cap(monkeypatch):
    monkeypatch.setattr(g2mod, "PLAYOUT_STEP_CAP", 1)
    report = verify_g2_properties(playouts=60, seed=11)
    assert report.counterexamples
    assert all(ce.endswith("play exceeded step cap 1") for ce in report.counterexamples)


@pytest.mark.parametrize("seed", range(6))
def test_candidate_moves_are_the_non_losing_moves_of_g2_apply(seed):
    # Along a playout, the candidates are exactly the shape-legal B = 1
    # moves on which g2_apply does not lose, in option order, each paired
    # with the label the move extends.
    tree = TreeOracle.explicit(random_nc_tree(2, seed))
    play = random_playout(CFG, tree, seed)
    positions = [initial_position()] + [
        result.position for _, _, _, result in play.moves if result.tag is G2Tag.ONGOING
    ]
    for pos in positions:
        c = pos.frontier
        shaped = [ProverMove(1, 1, 1)]
        for cut in range(len(c)):
            shaped += [ProverMove(2, c[:cut], 1), ProverMove(3, c[:cut], 1)]
        expected = []
        for mv in shaped:
            res = g2_apply(pos, M(), mv, CFG, tree)
            if res.tag is not G2Tag.DELAYER_WINS:
                expected.append((mv, res.position.labels[res.position.frontier].matching))
        assert g2mod._candidate_moves(pos, tree) == expected


def test_game_layer_parameters_are_pinned():
    # Each parameter is an input some caller varies; a value that every caller
    # passes is a constant.  A new parameter changes this pin.
    pinned = {
        g2mod._candidate_moves: ["pos", "tree"],
        g2mod.answer_options: ["q", "cfg"],
        minimal_covers: ["q", "size"],
        g2mod.exhaust_delayer: ["cfg", "tree", "prover"],
        g2mod.prover_root_ramify: ["cfg"],
        g2mod.random_playout: ["cfg", "tree", "seed"],
        g2p.to_g2prime: ["strategy", "cfg", "tree"],
        g2p.required_prime_degree: ["cfg"],
        TreeOracle: ["member", "max_height"],
    }
    got = {fn: list(inspect.signature(fn).parameters) for fn in pinned}
    assert got == pinned


def test_play_rejects_bad_answers():
    def bad_delayer(pos, q):
        return M((0, 0), (1, 1))  # never a minimal cover of a singleton

    tree, strategy = prover_root_ramify(CFG)
    with pytest.raises(MalformedMove):
        g2_play(CFG, TreeOracle.explicit(tree), strategy, bad_delayer, 100)


def test_both_drivers_refuse_a_query_wider_than_the_width():
    # Four pigeons and a hole are five items at width 4: the query has no
    # cover, but it is malformed before it is unanswerable.
    wide = PositionStrategy(
        lambda pos: Query.of([0, 1, 2, 3], [0]), lambda pos, answer: ProverMove(1, 1, 1)
    )
    assert CFG.width == 4
    with pytest.raises(MalformedMove, match="exceeds width 4"):
        exhaust_delayer(CFG, RAMIFY, wide)
    with pytest.raises(MalformedMove, match="exceeds width 4"):
        g2_play(CFG, RAMIFY, wide, lambda pos, q: M(), 100)


def test_transcript_format():
    tree, strategy = prover_root_ramify(CFG)

    def delayer(pos, q):
        return answer_options(q, CFG)[0]

    result = g2_play(CFG, TreeOracle.explicit(tree), strategy, delayer, 100)
    text = format_transcript(CFG, result)
    assert text.startswith("game g2\nn 3\nC 2\n")
    assert "move: o=" in text
    assert result.winner == "prover"


# ---------------------------------------------------------------------------
# The aux-free translation.


def test_codec_injective_and_inverse():
    codec = PrimeCodec(16)
    seen = {}
    for k in range(1, 17):
        for a in range(1, 17):
            j = codec.encode(k, a)
            assert j not in seen
            seen[j] = (k, a)
            assert codec.decode(j) == (k, a)
    assert codec.decode(codec.encode(5, 7)) == (5, 7)


def test_codec_vertex_decode():
    codec = PrimeCodec(16)
    v = (codec.encode(1, 3), codec.encode(2, 9))
    assert codec.vertex_down(v) == (1, 2)
    assert codec.aux_of(v) == (3, 9)


def test_required_prime_degree(monkeypatch):
    assert required_prime_degree(LogPower(3, 2)) == 4  # 16*17+16=288 <= 2^16
    monkeypatch.setattr(g2p, "MAX_PRIME_DEGREE", 3)
    with pytest.raises(ValueError):
        required_prime_degree(LogPower(3, 2))


def test_g2prime_winner_preservation_sample():
    report = verify_g2prime(playouts=60, seed=21)
    assert report.ok, report.counterexamples


def test_g2prime_reports_what_its_plays_reach():
    # At the claim's default seed most G2 plays end by step 2, and few
    # backtracks (option 3) land on the board.
    details = verify_g2prime(playouts=250).details
    assert details["lengths"] == {1: 133, 2: 96, 3: 18, 4: 3}
    assert details["made"] == {1: 293, 2: 46, 3: 52}
    assert details["landed"] == {1: 137, 2: 18, 3: 4}


@pytest.mark.parametrize(
    "method, fault",
    [
        ("aux_of", lambda real: lambda self, v: (1,) * len(v)),
        ("encode", lambda real: lambda self, k, a: real(self, k, 1)),
        ("vertex_down", lambda real: lambda self, v: real(self, v)[:-1]),
    ],
    ids=["aux-of-neutral", "encode-drops-aux", "vertex-down-drops-level"],
)
def test_g2prime_equivalence_sees_a_faulty_codec(monkeypatch, method, fault):
    # The G2' side replays the same strategy through the codec, so a codec
    # that loses information must make some play differ from its G2 twin.
    monkeypatch.setattr(PrimeCodec, method, fault(getattr(PrimeCodec, method)))
    assert verify_g2prime(playouts=40, seed=2).counterexamples


@pytest.mark.parametrize(
    "campaign",
    [
        lambda: verify_g2_properties(playouts=60, seed=11),
        lambda: verify_g2prime(playouts=20, seed=12345),
    ],
    ids=["g2-properties", "g2prime"],
)
def test_plays_do_not_depend_on_the_cover_cache(campaign):
    def outcome():
        report = campaign()
        return report.space, report.counterexamples, report.details

    answer_options.cache_clear()
    cold = outcome()
    assert answer_options.cache_info().misses > 0
    assert outcome() == cold
    assert answer_options.cache_info().hits > 0


def test_g2prime_tree_membership():
    cfg = LogPower(3, 2)
    tree = TreeOracle.explicit(root_ramify_tree(3))
    strategy = _seeded_oblivious(cfg, 1)
    cfg_p, tree_p, _, codec = to_g2prime(strategy, cfg, tree)
    assert (codec.encode(1, 1),) in tree_p
    assert (codec.encode(4, 16),) in tree_p
    assert (codec.encode(5, 1),) not in tree_p  # no fifth child below the root
    # Backtrack landings use raw index 1, which is on the translated board.
    assert (codec.encode(1, 1), 1) in tree_p
