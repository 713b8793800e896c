"""The partitions of n, their number and the crank of one partition, by
definition: the tests' brute-force side of the p and crank tables.  No
command reads them."""

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from operator import neg

from steadyparts.crank import _zs1


def partitions_of(n: int) -> Iterator[tuple]:
    """All partitions of n as non-increasing tuples of positive parts, in
    decreasing lexicographic order (ZS1, see ``_zs1``)."""
    for parts, _, size in _zs1(n):
        yield tuple(parts[:size])


def count_partitions(n: int) -> int:
    """The number of partitions of n, by brute-force recursion over the
    largest part, independent of the library."""

    def rec(remaining, cap):
        if remaining == 0:
            return 1
        return sum(rec(remaining - part, part) for part in range(1, min(cap, remaining) + 1))

    return rec(n, n)


def crank_of(partition: Sequence[int]) -> int:
    """Crank statistic: largest part if there are no ones, else mu - omega
    with omega = number of ones and mu = number of parts exceeding omega.

    `partition` is non-increasing, so the parts exceeding omega are a prefix
    and mu is found by bisection."""
    if not partition:
        return 0
    ones = partition.count(1)
    if ones == 0:
        return partition[0]
    return bisect_left(partition, -ones, key=neg) - ones

