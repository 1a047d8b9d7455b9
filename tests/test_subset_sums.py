"""Subset-sum counting over abelian groups: tables, moments, success rates."""

import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from hslab.errors import CapacityError, DomainError
from hslab.groups import abelian_group, symmetric_group
from hslab.states import state_rank
from hslab.subset_sums import (
    moments,
    subset_sum_rank,
    subset_sum_table,
    success_from_rank,
    success_probability,
)


def brute_force_counts(G, k):
    """Reference recount with plain python loops, independent of the library."""
    counts = {}
    for x in product(range(G.order), repeat=k):
        for b in product((0, 1), repeat=k):
            w = 0
            for bi, xi in zip(b, x):
                if bi:
                    w = G.compose(w, xi)
            counts[(x, w)] = counts.get((x, w), 0) + 1
    return counts


@pytest.mark.parametrize(
    "G,k",
    [
        (abelian_group(4), 2),
        (abelian_group(2, 2), 2),
        (abelian_group(3), 3),
        (abelian_group(2, 3), 2),
    ],
    ids=lambda v: str(v),
)
def test_table_matches_brute_force(G, k):
    table = subset_sum_table(G, k)
    reference = brute_force_counts(G, k)
    for x in product(range(G.order), repeat=k):
        for w in range(G.order):
            row = np.ravel_multi_index(x, (G.order,) * k)
            assert table.counts[row, w] == reference.get((x, w), 0)
    # each row distributes the 2^k subsets over values
    assert np.all(table.counts.sum(axis=1) == 2 ** k)


def enumerated_counts(G, k):
    """The table by enumerating all 2^k bit patterns b, one np.add.at each."""
    add = G.compose_table()
    M = G.order ** k
    coords = np.stack(np.unravel_index(np.arange(M), (G.order,) * k), axis=1)
    counts = np.zeros((M, G.order), dtype=np.int32)
    for bits in product((0, 1), repeat=k):
        sums = np.zeros(M, dtype=np.int64)
        for i in np.flatnonzero(bits):
            sums = add[sums, coords[:, i]]
        np.add.at(counts, (np.arange(M), sums), 1)
    return counts


DIFFERENTIAL_GROUPS = [abelian_group(n) for n in range(2, 9)] + [
    abelian_group(2, 2),
    abelian_group(2, 4),
    abelian_group(3, 3),
]


@pytest.mark.parametrize("G", DIFFERENTIAL_GROUPS, ids=lambda G: G.descriptor)
def test_recurrence_matches_enumeration(G):
    for k in (1, 2, 3, 4):
        counts = subset_sum_table(G, k).counts
        reference = enumerated_counts(G, k)
        assert counts.dtype == reference.dtype
        assert np.array_equal(counts, reference)


def test_rank_known_series():
    # order-N single copy: 2N-1 nonzero cells
    for N in (2, 3, 4, 5, 8):
        assert subset_sum_rank(abelian_group(N), 1) == 2 * N - 1
    # binary group: every nonzero x spreads over both values
    for k in (1, 2, 3, 4, 5, 6):
        assert subset_sum_rank(abelian_group(2), k) == 2 ** (k + 1) - 1


def test_rank_matches_state_rank():
    for G, k in ((abelian_group(4), 2), (abelian_group(2, 2), 2), (abelian_group(3), 3)):
        assert subset_sum_rank(G, k) == state_rank(G, k)


def test_moment_formulas_and_methods_agree():
    for G in DIFFERENTIAL_GROUPS:
        for k in (1, 2, 3, 4):
            t = moments(G, k, method="table")
            c = moments(G, k, method="convolution")
            assert t.agree() and c.agree()
            assert t.mean_counted == c.mean_counted
            assert t.second_counted == c.second_counted
            assert t.mean_formula == Fraction(2 ** k, G.order)
            assert t.second_formula == Fraction(2 ** k, G.order) + Fraction(
                2 ** k * (2 ** k - 1), G.order ** 2
            )
            assert t.variance == t.second_formula - t.mean_formula ** 2


def test_moments_convolution_scales_up():
    report = moments(abelian_group(16), 10, method="convolution")
    assert report.agree()
    assert report.mean_formula == 64
    assert report.second_formula == 4156
    report = moments(abelian_group(2, 2, 2, 2), 10, method="convolution")
    assert report.agree()


def test_auto_method_switches():
    small = moments(abelian_group(4), 2, method="auto")
    assert small.method == "table"
    big = moments(abelian_group(16), 10, method="auto")
    assert big.method == "convolution"


def test_success_probability_exact():
    sp = success_probability(abelian_group(4), 2)
    assert sp.rank == 43
    assert sp.probability == Fraction(85, 128)
    assert sp.bound == Fraction(1, 2) * (1 + Fraction(4, 4))
    assert success_from_rank(43, 4, 2) == Fraction(85, 128)


def test_success_approaches_one_with_copies():
    G = abelian_group(3)
    values = [success_probability(G, k).probability for k in (1, 2, 3, 4)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] == Fraction(7, 12)


def test_exact_second_moment_bound_holds():
    # tight Cauchy-Schwarz style bound on the optimal success probability:
    # rank >= |G|^(k+1) mu^2 / E[eta^2] implies
    # success <= 1 - |G| / (2 (|G| + 2^k - 1))
    for N in (2, 3, 4, 5, 8):
        for k in (1, 2, 3):
            G = abelian_group(N)
            sp = success_probability(G, k)
            tight = 1 - Fraction(N, 2 * (N + 2 ** k - 1))
            assert sp.probability <= tight


def test_simplified_bound_regime():
    # the simplified bound (1 + |G|/2^k)/2 only binds when 2^k is not much
    # larger than |G|; outside that regime it is provably exceeded
    holds = {}
    for N in (2, 3, 4):
        for k in (1, 2, 3):
            sp = success_probability(abelian_group(N), k)
            holds[(N, k)] = sp.probability <= sp.bound
    assert holds[(2, 1)] and holds[(3, 1)] and holds[(3, 2)]
    assert holds[(4, 1)] and holds[(4, 2)]
    assert not holds[(2, 2)]
    assert not holds[(2, 3)]
    assert not holds[(3, 3)]
    assert not holds[(4, 3)]


def test_domain_and_capacity_errors():
    with pytest.raises(DomainError):
        subset_sum_table(symmetric_group(3), 1)
    with pytest.raises(DomainError):
        moments(symmetric_group(3), 2)
    with pytest.raises(CapacityError):
        subset_sum_table(abelian_group(16), 10)
    with pytest.raises(DomainError):
        moments(abelian_group(4), 0)
    # the guard prices the int32 cells, |G|^(k+1): Z233 k=3 is refused, and
    # Z20 k=5, refused while the guard priced (2|G|)^k counting steps, counts
    # its 64M cells with two such arrays alive at the last step
    with pytest.raises(CapacityError):
        subset_sum_table(abelian_group(233), 3)
    G = abelian_group(20)
    table, peak = _peak_of(lambda: subset_sum_table(G, 5))
    assert table.rank() == state_rank(G, 5) == 49831203
    assert peak < 2.1 * table.counts.nbytes
    del table
    assert subset_sum_table(abelian_group(5), 8).counts.shape == (5 ** 8, 5)
    # an 11.6 GB and a 275 GB int32 table: refused on its cell count, before
    # anything is allocated; and counts of 2^31, which int32 cannot hold
    for N, k in ((232, 3), (4096, 2), (1, 31)):
        with pytest.raises(CapacityError):
            subset_sum_table(abelian_group(N), k)
    assert subset_sum_table(abelian_group(1), 30).counts.tolist() == [[2 ** 30]]
    _, peak = _peak_of(lambda: pytest.raises(CapacityError, subset_sum_table, abelian_group(232), 3))
    assert peak < 10 * 2 ** 20


def _peak_of(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_moments_sum_past_int64():
    # sum count^2 passes 2^63 from Z2 k=22; it is summed in int64 over chunks
    # of rows that cannot wrap, with no int64 copy of the 32 MiB table
    G = abelian_group(2)
    report, peak = _peak_of(lambda: moments(G, 22, method="table"))
    assert report.method == "table" and report.agree()
    assert report.second_counted * 2 ** 23 > 2 ** 63
    assert peak < 3 * report.table.counts.nbytes


def test_trivial_group():
    G = abelian_group(1)
    assert subset_sum_rank(G, 3) == 1
    report = moments(G, 5)
    assert report.mean_formula == 32
    assert report.second_formula == 1024
    assert report.agree()
