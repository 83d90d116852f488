import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pebblegames.matching import (
    GameSize,
    Matching,
    Query,
    Record,
    all_matchings,
    covers,
    matchings_consistent,
    minimal_covers,
    records_conflict,
)


def M(*pairs):
    return Matching(tuple(Record(p, h) for p, h in pairs))


def test_records_conflict_examples():
    assert records_conflict(Record(0, 0), Record(1, 0))
    assert records_conflict(Record(0, 0), Record(0, 1))
    assert not records_conflict(Record(0, 0), Record(1, 1))


@st.composite
def _two_cells(draw):
    """Two (pigeon, hole) cells of one board, the 2**n-pigeon board included."""
    n = draw(st.integers(1, 4))
    size = GameSize(n, draw(st.sampled_from((None, 2**n))))
    pigeon, hole = st.sampled_from(size.pigeons), st.sampled_from(size.holes)
    return draw(pigeon), draw(hole), draw(pigeon), draw(hole)


@settings(max_examples=300, deadline=None)
@given(cells=_two_cells())
def test_records_conflict_is_the_matching_definition(cells):
    # Two edges of the strategy graph are compatible when their records do
    # not conflict: they form a partial one-to-one mapping.
    p, h, q, k = cells
    assert (not records_conflict(Record(p, h), Record(q, k))) == ((p == q) == (h == k))


def test_records_conflict_symmetric_irreflexive():
    size = GameSize(3)
    recs = [Record(p, h) for p in size.pigeons for h in size.holes]
    for a in recs:
        assert not records_conflict(a, a)
        for b in recs:
            assert records_conflict(a, b) == records_conflict(b, a)


def test_matching_rejects_conflicts():
    with pytest.raises(ValueError):
        M((0, 0), (0, 1))
    with pytest.raises(ValueError):
        M((0, 0), (1, 0))


def test_matching_canonical_order_and_equality():
    a = Matching((Record(2, 1), Record(0, 0)))
    b = Matching((Record(0, 0), Record(2, 1)))
    assert a == b
    assert a.entries == (Record(0, 0), Record(2, 1))
    assert hash(a) == hash(b)


def test_matchings_consistent_examples():
    assert matchings_consistent(M(), M((2, 1)))
    assert matchings_consistent(M((0, 0)), M((0, 0)))
    assert not matchings_consistent(M((0, 0), (1, 1)), M((2, 1)))


def test_matchings_consistent_brute_force_small():
    # Union validity equals pairwise non-conflict, for all pairs of
    # matchings of size <= 3 on the three-hole board.
    size = GameSize(3)
    pool = list(all_matchings(size, max_size=3))
    for a in pool:
        for b in pool:
            union_ok = True
            try:
                a.union(b)
            except ValueError:
                union_ok = False
            pairwise = all(
                not records_conflict(x, y) for x in a for y in b
            )
            assert matchings_consistent(a, b) == union_ok == pairwise


def test_minimal_covers_examples():
    size = GameSize(3)
    assert minimal_covers(Query.of([0]), size) == frozenset(
        {M((0, 0)), M((0, 1)), M((0, 2))}
    )
    assert minimal_covers(Query.of(holes=[0]), size) == frozenset(
        {M((0, 0)), M((1, 0)), M((2, 0)), M((3, 0))}
    )


def test_minimal_covers_minimality_exhaustive():
    for n in (3, 4):
        size = GameSize(n)
        items = [("p", i) for i in size.pigeons] + [("h", i) for i in size.holes]
        queries = [Query()]
        queries += [
            Query.of([i[1]]) if i[0] == "p" else Query.of(holes=[i[1]]) for i in items
        ]
        for a, b in itertools.combinations(items, 2):
            ps = [x[1] for x in (a, b) if x[0] == "p"]
            hs = [x[1] for x in (a, b) if x[0] == "h"]
            queries.append(Query.of(ps, hs))
        for q in queries:
            for m in minimal_covers(q, size):
                assert covers(m, q)
                for drop in m:
                    rest = Matching(tuple(r for r in m if r != drop))
                    assert not covers(rest, q)


def _queries(size, max_items):
    items = [("p", i) for i in size.pigeons] + [("h", i) for i in size.holes]
    for k in range(max_items + 1):
        for picked in itertools.combinations(items, k):
            yield Query.of(
                [i for kind, i in picked if kind == "p"],
                [i for kind, i in picked if kind == "h"],
            )


@pytest.mark.parametrize(
    "size", [GameSize(1), GameSize(2), GameSize(3), GameSize(2, pigeon_count=4)]
)
def test_minimal_covers_match_their_definition(size):
    # Brute force over every matching on the board: the covers of q from
    # which no record can be dropped.
    pool = list(all_matchings(size))
    for q in _queries(size, 3):
        minimal = {
            m
            for m in pool
            if covers(m, q)
            and not any(covers(Matching(tuple(r for r in m if r != d)), q) for d in m)
        }
        assert minimal_covers(q, size) == minimal, q


def test_minimal_covers_refuse_an_off_board_query_on_every_call():
    size = GameSize(3)
    for bad in (Query.of([size.n + 1]), Query.of(holes=[size.n])):
        for _ in range(2):
            with pytest.raises(ValueError, match="outside board"):
                minimal_covers(bad, size)


def test_empty_cover_set_is_meaningful():
    # Covering every pigeon needs more holes than exist.
    size = GameSize(2)
    q = Query.of(list(size.pigeons))
    assert minimal_covers(q, size) == frozenset()


def test_subset_board_override():
    size = GameSize(3, pigeon_count=8)
    assert len(size.pigeons) == 8
    assert 7 in size.pigeons and 2 in size.holes
    with pytest.raises(ValueError):
        GameSize(3, pigeon_count=3)
