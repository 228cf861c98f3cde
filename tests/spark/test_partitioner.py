"""Range partitioning: Eq. 3's equal parts, exact cover, owner lookup."""

import pytest

from repro.spark.partitioner import range_partition

from tests.spark.support import owner_of


def test_even_split():
    assert range_partition(12, 4) == [(0, 3), (3, 6), (6, 9), (9, 12)]


def test_remainder_spreads_over_leading_parts():
    assert range_partition(10, 3) == [(0, 4), (4, 7), (7, 10)]


def test_single_partition():
    assert range_partition(5, 1) == [(0, 5)]


def test_more_parts_than_elements():
    chunks = range_partition(2, 5)
    assert len(chunks) == 5
    sizes = [hi - lo for lo, hi in chunks]
    assert sizes == [1, 1, 0, 0, 0]


def test_empty_range():
    chunks = range_partition(0, 3)
    assert all(lo == hi for lo, hi in chunks)


def test_sizes_differ_by_at_most_one():
    for n in (1, 7, 100, 1000):
        for p in (1, 3, 7, 16):
            sizes = [hi - lo for lo, hi in range_partition(n, p)]
            assert max(sizes) - min(sizes) <= 1


def test_exact_cover():
    for n, p in ((10, 3), (100, 7), (5, 5), (16, 4)):
        chunks = range_partition(n, p)
        covered = [x for lo, hi in chunks for x in range(lo, hi)]
        assert covered == list(range(n))


def test_invalid_arguments():
    with pytest.raises(ValueError):
        range_partition(-1, 2)
    with pytest.raises(ValueError):
        range_partition(10, 0)


def test_owner_of_agrees_with_chunks():
    for n, p in ((10, 3), (100, 7), (16, 16), (9, 2)):
        chunks = range_partition(n, p)
        for part, (lo, hi) in enumerate(chunks):
            for idx in range(lo, hi):
                assert owner_of(idx, n, p) == part


def test_owner_of_out_of_range():
    with pytest.raises(IndexError):
        owner_of(10, 10, 2)
    with pytest.raises(IndexError):
        owner_of(-1, 10, 2)
