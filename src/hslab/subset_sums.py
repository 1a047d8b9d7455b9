"""Subset-sum statistics for abelian groups.

For an abelian group G and k copies, the averaged state is diagonal in the
character basis up to the bit registers: for each frequency tuple x in G^k
and target w in G, the number of bit vectors b in {0,1}^k whose selected
subset of x sums to w determines one eigenvalue. This module counts those
solutions exactly and derives ranks, moments and discrimination success
probabilities in rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ConsistencyError, DomainError
from .groups import Group

# 1 GiB of int32 cells; the last copy step holds about two such arrays
_TABLE_CELL_LIMIT = 2 ** 28
_TABLE_FAST_LIMIT = 2_000_000
_CONV_OP_LIMIT = 20_000_000
# integer bits whose addition costs about one interpreter step of the moment
# recursion (70 ns a step and 0.03 ns a bit, measured on one Xeon core)
_CONV_STEP_BITS = 2048


def _require_abelian(group: Group) -> None:
    if not group.is_abelian:
        raise DomainError("subset-sum analysis requires an abelian group")


# ---------------------------------------------------------------------------
# exact solution-count table


@dataclass
class SubsetSumTable:
    """counts[row(x), w] = number of b in {0,1}^k with sum(b . x) = w.

    Rows enumerate x in G^k in row-major order (x_1 most significant), with
    each coordinate an element index of G.
    """

    group: Group
    copies: int
    counts: np.ndarray

    def rank(self) -> int:
        """Number of (x, w) pairs with at least one solution."""
        return int(np.count_nonzero(self.counts))


def subset_sum_table(group: Group, copies: int) -> SubsetSumTable:
    """Count copy by copy: T_k[x', x, w] = T_(k-1)[x', w] + T_(k-1)[x', w - x].

    The new copy x is left out (b = 0) or added (b = 1); T_0 = [1, 0, ..., 0].
    """
    _require_abelian(group)
    if copies < 1:
        raise DomainError("copies must be a positive integer")
    N = group.order
    # the count at x = 0, w = 0 is 2^k, so int32 holds k <= 30; that is
    # tested before the power is computed
    if copies > 30 or N ** (copies + 1) > _TABLE_CELL_LIMIT:
        raise CapacityError(
            f"subset-sum table of {group.descriptor} with k={copies} exceeds "
            f"{_TABLE_CELL_LIMIT} cells or int32 counts"
        )
    g = np.arange(N)
    minus = group.compose(g[None, :], group.inverse_vector()[:, None])  # w - x
    counts = np.eye(1, N, dtype=np.int32)
    for _ in range(copies):
        counts = (counts[:, None, :] + counts[:, minus]).reshape(-1, N)
    if not np.all(counts.sum(axis=1) == 2 ** copies):
        raise ConsistencyError("subset-sum rows must each hold 2^k solutions")
    return SubsetSumTable(group, copies, counts)


def subset_sum_rank(group: Group, copies: int) -> int:
    """Rank of the averaged k-copy state, counted combinatorially."""
    return subset_sum_table(group, copies).rank()


# ---------------------------------------------------------------------------
# moments of the solution counts


@dataclass
class MomentReport:
    """First and second moments of the solution count under uniform (x, w).

    Formula values and enumerated values are kept side by side, all exact.
    method records how the enumerated side was obtained: "table" walks the
    full count table, "convolution" runs an exact integer recursion over
    copies on the difference of two subset sums (full enumeration
    reorganized coordinate by coordinate). table is the table walked, so
    its rank costs no second build, or None for the convolution.
    """

    group: Group
    copies: int
    mean_formula: Fraction
    second_formula: Fraction
    mean_counted: Fraction
    second_counted: Fraction
    method: str
    table: SubsetSumTable | None = field(default=None, repr=False, compare=False)

    @property
    def variance(self) -> Fraction:
        return self.second_formula - self.mean_formula ** 2

    def agree(self) -> bool:
        return (
            self.mean_formula == self.mean_counted
            and self.second_formula == self.second_counted
        )


def moment_formulas(order: int, copies: int) -> tuple[Fraction, Fraction]:
    """The closed-form mean and second moment of the solution count under uniform (x, w)."""
    mean = Fraction(2 ** copies, order)
    return mean, mean + Fraction(2 ** copies * (2 ** copies - 1), order * order)


def moments(group: Group, copies: int, method: str = "auto") -> MomentReport:
    _require_abelian(group)
    if copies < 1:
        raise DomainError("copies must be a positive integer")
    N = group.order
    k = copies
    if method == "auto":
        small = k < _TABLE_FAST_LIMIT.bit_length() and (N ** k) * (2 ** k) <= _TABLE_FAST_LIMIT
        method = "table" if small else "convolution"
    if method == "table":
        table = subset_sum_table(group, k)
        counts = table.counts
        s1 = int(counts.sum(dtype=np.int64))
        # a row's squares sum to at most 4^k, so int64 sums over 2^62 / 4^k
        # rows cannot wrap; they are added as Python ints
        step = max(1, 2 ** 62 >> 2 * k)
        chunks = (counts[i : i + step] for i in range(0, len(counts), step))
        s2 = sum(int(np.einsum("ij,ij->", c, c, dtype=np.int64)) for c in chunks)
    elif method == "convolution":
        table = None
        s1, s2 = _convolution_totals(group, k)
    else:
        raise DomainError(f"unknown moments method {method!r}")

    mean_formula, second_formula = moment_formulas(N, k)
    denom = N ** (k + 1)
    return MomentReport(
        group=group,
        copies=k,
        mean_formula=mean_formula,
        second_formula=second_formula,
        mean_counted=Fraction(s1, denom),
        second_counted=Fraction(s2, denom),
        method=method,
        table=table,
    )


def _convolution_totals(group: Group, copies: int) -> tuple[int, int]:
    """Exact totals sum_(x,w) count and sum_(x,w) count^2 by recursion.

    sum_w count(x, w) counts the bit vectors b, and sum_w count(x, w)^2 the
    pairs (b, c) with b . x = c . x. Coordinate by coordinate this counts the
    (x-prefix, b-prefix) pairs at each partial sum b . x and the (x-prefix,
    b-prefix, c-prefix) triples at each difference b . x - c . x; the totals
    are the sum of the first and the second at 0. Integer arithmetic
    throughout, so the result is exact.
    """
    N = group.order
    # the counts reach (4|G|)^k, so each step adds integers this many bits wide
    width = copies * (4 * N).bit_length()
    if copies * 4 * N ** 2 * (1 + width // _CONV_STEP_BITS) > _CONV_OP_LIMIT:
        raise CapacityError(
            f"moment recursion of {group.descriptor} with k={copies} exceeds the work budget"
        )
    add = group.compose_table().tolist()

    single = [1] + [0] * (N - 1)
    diff = [1] + [0] * (N - 1)
    for _ in range(copies):
        next_single, next_diff = [0] * N, [0] * N
        for u in range(N):
            next_diff[u] += 2 * N * diff[u]  # b = c, for each of the N values of x
            for x in range(N):
                next_single[u] += single[u]  # b = 0
                next_single[add[u][x]] += single[u]  # b = 1
                # b = 1, c = 0 adds x and b = 0, c = 1 adds -x, which runs over G as x does
                next_diff[add[u][x]] += 2 * diff[u]
        single, diff = next_single, next_diff
    return sum(single), diff[0]


# ---------------------------------------------------------------------------
# discrimination success


@dataclass
class SuccessReport:
    """Optimal discrimination success between the averaged and mixed states.

    bound is the simplified ceiling (1 + |G|/2^k)/2, not a proven bound: the
    exact probability exceeds it outside the regime
    |G|/2^k + |G|/(|G| + 2^k - 1) >= 1, where it follows from the proven
    ceiling 1 - |G| / (2(|G| + 2^k - 1)).
    """

    group: Group
    copies: int
    rank: int
    probability: Fraction
    bound: Fraction


def success_from_rank(rank: int, order: int, copies: int) -> Fraction:
    """Success probability 1 - rank / (2 * (2|G|)^k) of the optimal test."""
    return 1 - Fraction(rank, 2 * (2 * order) ** copies)


def success_probability(group: Group, copies: int) -> SuccessReport:
    """Exact success probability for an abelian group, via subset-sum rank.

    In the abelian case the averaged state has eigenvalues that are integer
    multiples of the flat level, so projecting onto its support is an
    optimal measurement and the success probability depends only on the
    rank. The bound field holds the simplified ceiling (1 + |G|/2^k)/2,
    which the exact probability exceeds outside the regime
    |G|/2^k + |G|/(|G| + 2^k - 1) >= 1 (see SuccessReport).
    """
    _require_abelian(group)
    rank = subset_sum_rank(group, copies)
    prob = success_from_rank(rank, group.order, copies)
    if not Fraction(1, 2) <= prob <= 1:
        raise ConsistencyError("success probability escaped [1/2, 1]")
    bound = Fraction(1, 2) * (1 + Fraction(group.order, 2 ** copies))
    return SuccessReport(group, copies, rank, prob, bound)
