import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pebblegames.figures import example_strategy
from pebblegames.matching import GameSize, Record
from pebblegames.php_tree import (
    PhpTree,
    build_php_tree,
    find_loose_pairs,
    is_complete,
    is_symmetric,
    shortest_loop_witness,
    validate_php_tree,
)
from pebblegames.simple_game import (
    brute_force_delayer_wins,
    delayer_wins_lengths,
    make_strategy,
)
from pebblegames.verify import index_to_strategy, strategy_space


def php1_tree() -> PhpTree:
    # The on-paper example: root 0 with branches 0 -> 1 -> {3 -> 2, 2} and
    # 2 -> 3 -> 1 -> 2; not complete, not symmetric.
    return PhpTree(
        3,
        {
            (): 0,
            (0,): 1,
            (2,): 3,
            (0, 1): 3,
            (0, 2): 2,
            (0, 1, 2): 2,
            (2, 0): 1,
            (2, 0, 1): 2,
        },
    )


def test_php1_is_valid_not_complete_not_symmetric():
    t = php1_tree()
    assert validate_php_tree(t)
    assert not is_complete(t)
    assert not is_symmetric(t)  # label 1 via edge 1 gives 3, but via (2,0) gives ...
    assert t.depth == 3


def test_single_root_tree():
    t = PhpTree(3, {(): 2})
    assert validate_php_tree(t)
    assert not is_complete(t)
    assert is_symmetric(t)
    assert len(find_loose_pairs(t, GameSize(3))) == 12


def test_validation_rejects_label_reuse():
    bad_edge = PhpTree(3, {(): 0, (1,): 1, (1, 1): 2})
    assert not validate_php_tree(bad_edge)  # hole 1 repeated on the path
    bad_node = PhpTree(3, {(): 0, (1,): 0})
    assert not validate_php_tree(bad_node)  # pigeon 0 repeated
    # Branching at level k is capped at n - k.  In the hole-path encoding a
    # wider node must reuse a hole on some root path, so the violation
    # surfaces through the edge-label condition.
    wide = PhpTree(2, {(): 0, (0,): 1, (0, 1): 2, (1,): 2})
    assert validate_php_tree(wide)
    too_wide = PhpTree(2, {(): 0, (0,): 1, (0, 1): 2, (0, 0): 2})
    assert not validate_php_tree(too_wide)


def test_validation_rejects_a_missing_ancestor():
    # (0, 1, 2) comes first, its parent is present and its grandparent (0,)
    # is not: reading the labels along its root path before every parent
    # is known present raises KeyError.
    orphan = PhpTree(3, {(): 0, (0, 1, 2): 2, (0, 1): 1})
    assert not validate_php_tree(orphan)
    # Only (0, 1, 2) hangs below a node: label 1 with hole 2 is realized.
    assert find_loose_pairs(orphan, GameSize(3)) == frozenset(
        Record(p, h) for p in range(4) for h in range(3)
    ) - {Record(1, 2)}


def _per_node_validate(tree):
    """``validate_php_tree`` with each node's children found by a scan of
    the whole tree."""
    n = tree.n
    for path, label in tree.nodes.items():
        if not 0 <= label <= n or any(not 0 <= h < n for h in path):
            return False
        if len(set(path)) != len(path):
            return False
        if path and path[:-1] not in tree.nodes:
            return False
        labels = [tree.nodes[path[:k]] for k in range(len(path) + 1)]
        if len(set(labels)) != len(labels):
            return False
        if len(tree.children(path)) > n - len(path):
            return False
    return True


def _assert_checks_agree_with_per_node_children(tree):
    size = GameSize(tree.n)
    assert validate_php_tree(tree) == _per_node_validate(tree)
    assert is_complete(tree) == (
        tree.depth == tree.n
        and all(len(tree.children(path)) == tree.n - len(path) for path in tree.nodes)
    )
    realized = {(tree.nodes[path], h) for path in tree.nodes for h in tree.children(path)}
    assert find_loose_pairs(tree, size) == frozenset(
        Record(p, h) for p in size.pigeons for h in size.holes if (p, h) not in realized
    )


def _full_tree(n):
    """The complete php-tree: every root path of distinct holes, the node at
    depth k labeled k."""
    return PhpTree(n, {
        path: len(path)
        for k in range(n + 1)
        for path in itertools.permutations(range(n), k)
    })


@st.composite
def _php_trees(draw):
    """A tree built from a drawn table at n = 3, 4, or the complete tree,
    left as it is, given a node with n - k + 1 children, or given a node
    whose label repeats one on its root path."""
    n = draw(st.sampled_from((3, 4)))
    if draw(st.booleans()):
        tree = build_php_tree(index_to_strategy(draw(st.integers(0, strategy_space(n) - 1)), n))
    else:
        tree = _full_tree(n)
    nodes = dict(tree.nodes)
    change = draw(st.sampled_from(("none", "extra child", "repeated label")))
    inner = [path for path in sorted(nodes) if path]
    if change == "none" or not inner:
        return tree
    path = draw(st.sampled_from(inner))
    if change == "extra child":
        # Every fresh hole plus one hole already on the path.
        label = st.integers(0, n)
        for h in [h for h in range(n) if h not in path] + [draw(st.sampled_from(path))]:
            nodes.setdefault(path + (h,), draw(label))
    else:
        nodes[path] = nodes[path[: draw(st.integers(0, len(path) - 1))]]
    return PhpTree(n, nodes)


@settings(max_examples=200, deadline=None)
@given(tree=_php_trees())
def test_php_tree_checks_agree_with_per_node_children(tree):
    _assert_checks_agree_with_per_node_children(tree)


@pytest.mark.parametrize("tree", [
    php1_tree(),
    _full_tree(2),
    _full_tree(3),
    PhpTree(3, {(): 0, (0,): 4}),  # a label outside the board
    PhpTree(3, {(): 0, (1,): -1}),
    PhpTree(3, {(): 0, (1,): 2, (1, 3): 1}),  # a hole outside the board
    PhpTree(3, {(): 0, (-1,): 2}),
])
def test_php_tree_checks_agree_with_per_node_children_by_hand(tree):
    _assert_checks_agree_with_per_node_children(tree)


def test_build_all_loops_is_single_root():
    strat = make_strategy(3, 4, 0, {(p, h): p for p in range(4) for h in range(3)})
    t = build_php_tree(strat)
    assert len(t) == 1


def test_build_chain_table():
    # Realize the length-n chain: F(k, k-1) = k - 1, everything else loops.
    n = 4
    table = {}
    for p in range(n + 1):
        for h in range(n):
            table[(p, h)] = p - 1 if (p >= 1 and h == p - 1) else p
    strat = make_strategy(n, n, n, table)
    t = build_php_tree(strat)
    assert t.depth == n
    path = max(sorted(t.nodes), key=len)
    assert [t.nodes[path[:k]] for k in range(n + 1)] == [n, n - 1, n - 2, n - 3, 0]


def test_build_fig1():
    t = build_php_tree(example_strategy())
    assert validate_php_tree(t)
    assert is_symmetric(t)
    assert not is_complete(t)
    assert find_loose_pairs(t, GameSize(3)) == frozenset(
        {Record(2, 0), Record(2, 1), Record(3, 2)}
    )
    # NamedTuples compare as tuples, so the set comparison alone would pass
    # a pair type of its own.
    assert all(type(e) is Record for e in find_loose_pairs(t, GameSize(3)))


def test_php1_loose_pair():
    assert Record(0, 1) in find_loose_pairs(php1_tree(), GameSize(3))


def test_build_always_valid_and_symmetric_random():
    rng = np.random.default_rng(17)
    for _ in range(400):
        for n in (3, 4):
            strat = index_to_strategy(int(rng.integers(0, strategy_space(n))), n)
            t = build_php_tree(strat)
            assert validate_php_tree(t)
            assert is_symmetric(t)


def test_complete_build():
    # The successor table F(p, h) = min(p + 1, n) never revisits a pigeon, so
    # every fresh hole opens a child: the tree is complete, with
    # sum_k n!/(n-k)! nodes.  The cycling table F(p, h) = (p + 1 + h) mod
    # (n + 1) sends some fresh hole back to a pigeon on the path.
    for n, nodes in ((2, 5), (3, 16), (4, 65)):
        pairs = [(p, h) for p in range(n + 1) for h in range(n)]
        t = build_php_tree(make_strategy(n, n, 0, {(p, h): min(p + 1, n) for p, h in pairs}))
        assert is_complete(t) and validate_php_tree(t) and is_symmetric(t)
        assert t.depth == n and len(t) == nodes
        cycling = make_strategy(n, n, 0, {(p, h): (p + 1 + h) % (n + 1) for p, h in pairs})
        assert not is_complete(build_php_tree(cycling))


def test_loop_pipeline_certificate():
    # A reachable loop forces Delayer wins for every length past the
    # entry point; the certificate must report the full tail winning.
    fig1 = example_strategy()
    witness = shortest_loop_witness(fig1, 2, 0)
    assert witness == 2
    cert = delayer_wins_lengths(fig1)
    for s in range(witness + 1, 80):
        assert cert.wins(s)


def test_shortest_loop_witness_bound_random_n4():
    # The qualifying-path bound: reachable loops are reachable within
    # 2(n-2)+1 steps (checked exhaustively at n=3 by the campaign).
    rng = np.random.default_rng(31)
    bound = 2 * (4 - 2) + 1
    for _ in range(1000):
        strat = index_to_strategy(int(rng.integers(0, strategy_space(4))), 4)
        for p in range(5):
            for h in range(4):
                if strat.table[p][h] != p:
                    continue
                w = shortest_loop_witness(strat, p, h)
                if w is not None:
                    assert w <= bound


def test_loop_witness_agrees_with_bruteforce_tail():
    # If a loop is reachable at distance w, every length above w wins.
    rng = np.random.default_rng(37)
    for _ in range(200):
        strat = index_to_strategy(int(rng.integers(0, strategy_space(3))), 3)
        for p in range(4):
            for h in range(3):
                if strat.table[p][h] != p:
                    continue
                w = shortest_loop_witness(strat, p, h)
                if w is None or w > 4:
                    continue
                assert set(range(w + 1, w + 5)) <= brute_force_delayer_wins(strat, w + 4)
