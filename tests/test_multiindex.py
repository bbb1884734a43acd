import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gltlab.errors import IndexRangeError, InvalidSizeError
from gltlab.multiindex import (
    MultiIndexInterval,
    check_size,
    format_multiindex,
    iter_interval,
    lex_rank,
    lex_unrank,
    nu,
    parse_multiindex,
    size_interval,
)


def test_nu_examples():
    assert nu((2, 3, 4)) == 24
    assert nu((1,)) == 1
    assert nu((5, 1)) == 5
    assert nu(7) == 7
    # NumPy integers are integers too, and come back as Python ints
    assert nu(np.int64(8)) == 8
    assert check_size(np.arange(2, 4)) == (2, 3)
    assert all(type(v) is int for v in check_size([np.int32(4), np.int64(5)]))


@pytest.mark.parametrize("size", [[8.7], 8.7, (4, 2.0), "16", np.array([8.0])])
def test_sizes_must_be_integers(size):
    with pytest.raises(InvalidSizeError):
        check_size(size)


def test_nu_rejects_nonpositive():
    with pytest.raises(InvalidSizeError):
        nu((2, 0))
    with pytest.raises(InvalidSizeError):
        nu((-1, 3))


def test_lex_rank_examples():
    box = MultiIndexInterval((1, 1), (2, 3))
    assert lex_rank((1, 1), box) == 0
    assert lex_rank((2, 1), box) == 3
    assert lex_rank((2, 3), box) == 5


def test_lex_unrank_examples():
    box = MultiIndexInterval((1, 1), (2, 3))
    assert lex_unrank(0, box) == (1, 1)
    assert lex_unrank(3, box) == (2, 1)
    assert lex_unrank(5, box) == (2, 3)


def test_rank_out_of_interval():
    box = MultiIndexInterval((1, 1), (2, 3))
    with pytest.raises(IndexRangeError):
        lex_rank((3, 1), box)
    with pytest.raises(IndexRangeError):
        lex_unrank(6, box)
    with pytest.raises(IndexRangeError):
        lex_unrank(-1, box)


@pytest.mark.parametrize(
    "lower,upper",
    [
        ((1, 1), (2, 3)),
        ((1,), (100,)),
        ((-2, 0, 3), (2, 3, 5)),
        ((1, 1, 1, 1), (5, 5, 4, 10)),
    ],
)
def test_roundtrip_exhaustive(lower, upper):
    box = MultiIndexInterval(lower, upper)
    assert box.cardinality <= 10**4
    seen = []
    for rank in range(box.cardinality):
        j = lex_unrank(rank, box)
        assert lex_rank(j, box) == rank
        seen.append(j)
    # enumeration is strictly increasing in tuple (lexicographic) order
    assert seen == sorted(seen)
    assert len(set(seen)) == box.cardinality


def test_last_coordinate_varies_fastest():
    box = MultiIndexInterval((1, 1), (2, 3))
    assert list(iter_interval(box)) == [
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3),
    ]


@given(
    lower=st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    extents=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_rank_agrees_with_tuple_order(lower, extents, data):
    d = min(len(lower), len(extents))
    lo = tuple(lower[:d])
    up = tuple(a + b - 1 for a, b in zip(lo, extents[:d]))
    box = MultiIndexInterval(lo, up)
    j1 = lex_unrank(data.draw(st.integers(0, box.cardinality - 1)), box)
    j2 = lex_unrank(data.draw(st.integers(0, box.cardinality - 1)), box)
    if j1 < j2:
        assert lex_rank(j1, box) < lex_rank(j2, box)
    elif j1 > j2:
        assert lex_rank(j1, box) > lex_rank(j2, box)


def test_cardinality_matches_count():
    box = MultiIndexInterval((0, -1), (3, 1))
    assert box.cardinality == len(list(iter_interval(box)))
    assert box.cardinality == nu(tuple(u - l + 1 for l, u in zip(box.lower, box.upper)))


def test_serialization():
    assert parse_multiindex("2,3,4") == (2, 3, 4)
    assert format_multiindex((2, 3, 4)) == "2,3,4"
    assert parse_multiindex(format_multiindex((7,))) == (7,)
    with pytest.raises(InvalidSizeError):
        parse_multiindex("2,x")


def test_size_interval():
    assert size_interval((2, 2)).cardinality == 4
    with pytest.raises(InvalidSizeError):
        size_interval((0, 2))
