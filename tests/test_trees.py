import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pebblegames.matching import LogPower
from pebblegames.trees import (
    FiniteTree,
    Ordering,
    all_trees,
    component,
    is_nc_tree,
    lex_compare,
    ordinal_embed,
    parse_tree,
    format_tree,
    tree_compare,
    universe,
)


def lex_less_by_definition(v, w, h=6):
    # Direct transcription: some shared prefix, then a smaller component,
    # with components past the end reading as -1.
    for k in range(0, h + 1):
        if v[:k] == w[:k] and component(v, k + 1) < component(w, k + 1):
            return True
    return False


def test_lex_examples():
    assert lex_compare((), (1,)) is Ordering.LESS
    assert lex_compare((1, 2), (1, 3)) is Ordering.LESS
    assert lex_compare((2,), (1, 5)) is Ordering.GREATER


def test_lex_matches_direct_definition_exhaustive():
    verts = universe(3, 3)
    assert len(verts) == 1 + 3 + 9 + 27
    for v in verts:
        for w in verts:
            got = lex_compare(v, w)
            assert (got is Ordering.LESS) == lex_less_by_definition(v, w)
            assert (got is Ordering.GREATER) == lex_less_by_definition(w, v)
            assert (got is Ordering.EQUAL) == (v == w)


def tree_less_by_definition(t: FiniteTree, u: FiniteTree) -> bool:
    # Witness search straight from the definition of the order.
    for w in u:
        below_t = {v for v in t if lex_compare(v, w) is Ordering.LESS}
        below_u = {v for v in u if lex_compare(v, w) is Ordering.LESS}
        if below_t == below_u and w not in t:
            return True
    return False


def test_tree_compare_examples():
    t_root = FiniteTree(((),))
    t_one = FiniteTree(((), (1,)))
    t_two = FiniteTree(((), (2,)))
    assert tree_compare(t_root, t_one) is Ordering.LESS
    # The larger child index gives the smaller tree.
    assert tree_compare(t_two, t_one) is Ordering.LESS
    assert tree_compare(t_one, t_one) is Ordering.EQUAL


def test_tree_compare_matches_definition():
    ts = list(all_trees(2, 2))
    assert len(ts) == 25
    for t in ts:
        for u in ts:
            got = tree_compare(t, u)
            assert (got is Ordering.LESS) == tree_less_by_definition(t, u)
            assert (got is Ordering.GREATER) == tree_less_by_definition(u, t)


def _scan_compare(t: FiniteTree, u: FiniteTree) -> Ordering:
    # Reference: a synchronized scan for the first mismatch of the sorted
    # vertex lists.  The smaller vertex is the witness for the tree that
    # owns it; if one list is a prefix of the other, the next vertex of the
    # longer tree witnesses that the shorter tree is below it.
    a, b = t.vertices, u.vertices
    for x, y in zip(a, b):
        if x != y:
            return Ordering.GREATER if x < y else Ordering.LESS
    if len(a) == len(b):
        return Ordering.EQUAL
    return Ordering.LESS if len(a) < len(b) else Ordering.GREATER


@pytest.mark.parametrize("b, h", [(2, 2), (4, 1)])
def test_tree_compare_matches_scan_exhaustive(b, h):
    ts = list(all_trees(b, h))
    for t in ts:
        for u in ts:
            assert tree_compare(t, u) is _scan_compare(t, u), (t, u)


def _closure(vertices) -> FiniteTree:
    return FiniteTree(tuple({v[:k] for v in vertices for k in range(len(v) + 1)} | {()}))


# Child indices up to 512 (the backtracking game's caps reach 2^9), small
# ones often so that two trees share vertices; height at most 4.
_index = st.one_of(st.integers(1, 3), st.integers(1, 512))
_deep_vertices = st.lists(st.lists(_index, min_size=1, max_size=4).map(tuple), max_size=8)


@settings(max_examples=200, deadline=None)
@given(shared=_deep_vertices, only_t=_deep_vertices, only_u=_deep_vertices)
def test_tree_compare_matches_definition_and_scan_property(shared, only_t, only_u):
    t, u = _closure(shared + only_t), _closure(shared + only_u)
    got = tree_compare(t, u)
    assert (got is Ordering.LESS) == tree_less_by_definition(t, u)
    assert (got is Ordering.GREATER) == tree_less_by_definition(u, t)
    assert got is _scan_compare(t, u)
    assert (got is Ordering.EQUAL) == (set(t) == set(u))


def test_tree_order_axioms_small():
    ts = list(all_trees(2, 2))
    cmp = {(i, j): tree_compare(ts[i], ts[j]) for i in range(len(ts)) for j in range(len(ts))}
    for i in range(len(ts)):
        for j in range(len(ts)):
            a, rev = cmp[(i, j)], cmp[(j, i)]
            assert (a is Ordering.EQUAL) == (i == j)
            if a is Ordering.LESS:
                assert rev is Ordering.GREATER
    for i, j, k in itertools.product(range(len(ts)), repeat=3):
        if cmp[(i, j)] is Ordering.LESS and cmp[(j, k)] is Ordering.LESS:
            assert cmp[(i, k)] is Ordering.LESS


def test_prefix_closure_enforced():
    with pytest.raises(ValueError):
        FiniteTree(((), (1, 1)))
    with pytest.raises(ValueError):
        FiniteTree(())


def test_ordinal_embed_order_reversing_exhaustive():
    for b_low, h in ((2, 2), (3, 2)):
        ts = list(all_trees(b_low, h))
        b = b_low + 1  # branching strictly below b
        values = [ordinal_embed(t, b, h) for t in ts]
        for i in range(len(ts)):
            for j in range(len(ts)):
                c = tree_compare(ts[i], ts[j])
                if c is Ordering.LESS:
                    assert values[i] > values[j]
                if i != j:
                    assert values[i] != values[j]


def test_ordinal_embed_equal_on_equal():
    t = FiniteTree(((), (1,), (2,)))
    assert ordinal_embed(t, 4, 2) == ordinal_embed(FiniteTree(((), (2,), (1,))), 4, 2)


def test_ordinal_embed_respects_bounds():
    with pytest.raises(ValueError):
        ordinal_embed(FiniteTree(((), (1,), (1, 1))), 2, 1)
    with pytest.raises(ValueError):
        ordinal_embed(FiniteTree(((), (3,))), 3, 2)


def test_ordinal_embed_within_remark_bound():
    b, h = 3, 2
    for t in all_trees(b - 1, h):
        assert ordinal_embed(t, b, h) < b ** (b ** (h + 1))


def test_is_nc_tree():
    cfg = LogPower(3, 2)
    assert is_nc_tree(FiniteTree(((),)), cfg)
    assert not is_nc_tree(FiniteTree(((), (2,))), cfg)  # left-sibling gap
    assert not is_nc_tree(FiniteTree(((), (1,), (1, 1))), LogPower(3, 1))


def test_tree_text_round_trip():
    t = FiniteTree(((), (1,), (1, 2), (1, 1), (2,)))
    assert parse_tree(format_tree(t).splitlines()) == t
    with pytest.raises(ValueError):
        parse_tree(["1.x"])


# Any vertex set, closed under prefixes, is a tree.
_vertex_sets = st.lists(st.lists(st.integers(1, 12), max_size=4).map(tuple), max_size=12)


@settings(max_examples=100, deadline=None)
@given(vertices=_vertex_sets)
def test_tree_text_round_trip_property(vertices):
    t = _closure(vertices)
    assert parse_tree(format_tree(t).splitlines()) == t


def test_ordinal_embed_child_index_example():
    # The tree keeping the larger child index is the smaller tree, so its
    # embedding is the larger number.
    t2 = FiniteTree(((), (2,)))
    t1 = FiniteTree(((), (1,)))
    assert tree_compare(t2, t1) is Ordering.LESS
    assert ordinal_embed(t2, 3, 2) > ordinal_embed(t1, 3, 2)
