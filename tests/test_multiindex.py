import numpy as np
import pytest

from gltlab.errors import InvalidSizeError
from gltlab.multiindex import (
    as_multiindex,
    check_size,
    format_multiindex,
    min_entry,
    nu,
    parse_multiindex,
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


@pytest.mark.parametrize("m", [(2, 3, 4), (7,), (-1, 0, 3), (np.int64(5), 2)])
def test_serialization(m):
    # offset-type multi-indices may be negative; NumPy entries serialize as ints
    text = format_multiindex(m)
    assert text == ",".join(str(int(v)) for v in m)
    back = parse_multiindex(text)
    assert back == tuple(int(v) for v in m) and all(type(v) is int for v in back)
    with pytest.raises(InvalidSizeError):
        parse_multiindex("2,x")


def test_empty_multiindex_is_refused():
    with pytest.raises(InvalidSizeError, match="at least one entry"):
        as_multiindex(())
    with pytest.raises(InvalidSizeError):
        check_size([])


def test_min_entry():
    assert min_entry((3, 1, 2)) == 1
    assert min_entry(5) == 5
    assert min_entry((-2, 4)) == -2
    assert min_entry(np.arange(4, 7)) == 4
