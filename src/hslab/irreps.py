"""Unitary irreducible representations of the supported groups.

Symmetric groups get Young's orthogonal form: the basis of an irrep for
partition shape lambda is the set of standard Young tableaux, sorted by
their row words, and the adjacent transposition (a, a+1) acts through the
signed axial distance between the cells holding a and a+1. All matrices
are real orthogonal, so rho(g^-1) = rho(g)^T.

Abelian groups get their characters chi_w(g) = exp(2*pi*i * sum w_i g_i / N_i)
as 1x1 matrices, labelled by the frequency tuple w.

Canonical irrep order: descending lexicographic partitions for S_n (the
trivial representation first), ascending lexicographic frequency tuples
for abelian groups (again trivial first).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import CapacityError, ConsistencyError
from .groups import Group, adjacent_transposition_word, partitions

_EAGER_STACK_ORDER = 1024
_STACK_ELEMENT_LIMIT = 8_000_000
_FOURIER_ORDER_LIMIT = 2048
_EXHAUSTIVE_CHECK_ORDER = 120

_MEMO: dict[str, tuple["Irrep", ...]] = {}
_BFS_PLANS: dict[str, list[list[tuple[np.ndarray, np.ndarray]]]] = {}


# ---------------------------------------------------------------------------
# standard Young tableaux


def standard_tableaux(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """All standard Young tableaux of the given partition shape.

    Entries are 1..n filled so that rows and columns increase. The list is
    sorted by row word (the sequence of row indices of 1, 2, ..., n), which
    fixes the basis order of the irrep.
    """
    n = sum(shape)

    def rec(sub: tuple[int, ...], value: int):
        if value == 0:
            return [tuple(() for _ in sub)]
        out = []
        for r in range(len(sub)):
            if sub[r] > 0 and (r + 1 == len(sub) or sub[r] > sub[r + 1]):
                reduced = sub[:r] + (sub[r] - 1,) + sub[r + 1 :]
                for t in rec(reduced, value - 1):
                    rows = [list(row) for row in t]
                    rows[r].append(value)
                    out.append(tuple(tuple(row) for row in rows))
        return out

    tabs = rec(tuple(shape), n)
    return sorted(tabs, key=lambda t: _row_word(t, n))


def _row_word(tab: tuple[tuple[int, ...], ...], n: int) -> tuple[int, ...]:
    row_of = {}
    for r, row in enumerate(tab):
        for v in row:
            row_of[v] = r
    return tuple(row_of[v] for v in range(1, n + 1))


def _positions(tab: tuple[tuple[int, ...], ...]) -> dict[int, tuple[int, int]]:
    return {v: (r, c) for r, row in enumerate(tab) for c, v in enumerate(row)}


def young_generator_matrices(shape: tuple[int, ...]) -> list[np.ndarray]:
    """Orthogonal matrices for the adjacent transpositions (a, a+1), a=1..n-1.

    The diagonal entry for a tableau T is 1/ax where ax is the axial
    distance from a to a+1 in T (column minus row difference). When a and
    a+1 lie in different rows and columns, swapping them gives another
    standard tableau coupled with weight sqrt(1 - 1/ax^2).
    """
    n = sum(shape)
    tabs = standard_tableaux(shape)
    index = {t: i for i, t in enumerate(tabs)}
    pos = [_positions(t) for t in tabs]
    d = len(tabs)
    gens = []
    for a in range(1, n):
        M = np.zeros((d, d))
        for ti in range(d):
            r1, c1 = pos[ti][a]
            r2, c2 = pos[ti][a + 1]
            ax = (c2 - r2) - (c1 - r1)
            M[ti, ti] = 1.0 / ax
            if abs(ax) >= 2:
                swapped = _swap_values(tabs[ti], a)
                M[index[swapped], ti] = np.sqrt(1.0 - 1.0 / (ax * ax))
        gens.append(M)
    return gens


def _swap_values(tab: tuple[tuple[int, ...], ...], a: int) -> tuple[tuple[int, ...], ...]:
    swap = {a: a + 1, a + 1: a}
    return tuple(tuple(swap.get(v, v) for v in row) for row in tab)


# ---------------------------------------------------------------------------


class Irrep:
    """One unitary irreducible representation of a group.

    matrix(a) returns the d x d matrix for element index a; stack() returns
    all matrices as an (order, d, d) array (cached, capacity-guarded).
    """

    def __init__(self, group: Group, label: tuple, dim: int):
        self.group = group
        self.label = tuple(label)
        self.dim = dim
        self._stack: np.ndarray | None = None
        self._gens: list[np.ndarray] | None = None
        self._gen_indices: list[int] | None = None

    @property
    def name(self) -> str:
        if self.group.kind == "symmetric":
            return "+".join(str(p) for p in self.label)
        return ".".join(str(w) for w in self.label)

    @property
    def is_trivial(self) -> bool:
        if self.group.kind == "symmetric":
            return self.label == (self.group.degree,)
        return all(w == 0 for w in self.label)

    def matrix(self, a: int) -> np.ndarray:
        self.group.check_index(a)
        # above _EAGER_STACK_ORDER always the word product, whether or not the
        # stack exists, so a matrix never depends on what ran before it
        if self.group.order > _EAGER_STACK_ORDER:
            return self._single_matrix(a)
        return self.stack()[a]

    def stack(self) -> np.ndarray:
        if self._stack is None:
            if self.group.order * self.dim * self.dim > _STACK_ELEMENT_LIMIT:
                raise CapacityError(
                    f"matrix stack for irrep {self.name} of {self.group.descriptor} "
                    "exceeds the dense capacity guard"
                )
            self._stack = self._build_stack()
            self._stack.setflags(write=False)
        return self._stack

    # -- construction --------------------------------------------------------

    def _generators(self) -> tuple[list[np.ndarray], list[int]]:
        if self._gens is None:
            self._gens = young_generator_matrices(self.label)
            n = self.group.degree
            idx = []
            for p in range(n - 1):
                images = list(range(n))
                images[p], images[p + 1] = images[p + 1], images[p]
                idx.append(self.group.index_of_perm(tuple(images)))
            self._gen_indices = idx
        return self._gens, self._gen_indices

    def _single_matrix(self, a: int) -> np.ndarray:
        if self.group.kind == "abelian":
            digits = self.group.digits(a)
            phase = sum(w * d / m for w, d, m in zip(self.label, digits, self.group.moduli))
            return np.array([[np.exp(2j * np.pi * phase)]])
        gens, _ = self._generators()
        word = adjacent_transposition_word(self.group.perm(a))
        if not word:
            return np.eye(self.dim)
        return reduce(np.matmul, (gens[p] for p in word))

    def _build_stack(self) -> np.ndarray:
        G = self.group
        if G.kind == "abelian":
            weights = np.array(
                [w / m for w, m in zip(self.label, G.moduli)], dtype=np.float64
            )
            phases = np.exp(2j * np.pi * (G.rows.astype(np.float64) @ weights))
            return phases.reshape(G.order, 1, 1)
        gens, gen_idx = self._generators()
        stack = np.zeros((G.order, self.dim, self.dim))
        stack[0] = np.eye(self.dim)
        for level in _bfs_plan(G, gen_idx):
            for M, (targets, parents) in zip(gens, level):
                stack[targets] = stack[parents] @ M
        return stack

    def __repr__(self) -> str:
        return f"Irrep({self.group.descriptor}, {self.name}, dim={self.dim})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Irrep)
            and other.group == self.group
            and other.label == self.label
        )

    def __hash__(self) -> int:
        return hash((self.group.descriptor, self.label))


def _bfs_plan(group: Group, gen_idx: list[int]) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """The breadth-first order in which Irrep._build_stack reaches the group
    from the identity: per level, per generator s_i, the (targets, parents)
    index arrays with target = parent * s_i. Each new element takes the first
    (parent, i) pair in (level order, generator order). It depends on the
    group alone, so it is memoized per descriptor and shared by its irreps."""
    plan = _BFS_PLANS.get(group.descriptor)
    if plan is not None:
        return plan
    right = np.array([group.translate(s) for s in gen_idx], dtype=np.int64).reshape(-1, group.order)
    done = np.zeros(group.order, dtype=bool)
    done[0] = True
    level = np.zeros(1, dtype=np.int64)
    plan = []
    while True:
        reached = right[:, level].T.ravel()
        fresh = np.flatnonzero(~done[reached])
        _, first = np.unique(reached[fresh], return_index=True)
        pairs = fresh[np.sort(first)]
        if not pairs.size:
            break
        parents, gen = level[pairs // len(gen_idx)], pairs % len(gen_idx)
        level = reached[pairs]
        done[level] = True
        plan.append([(level[gen == i], parents[gen == i]) for i in range(len(gen_idx))])
    if not done.all():
        raise ConsistencyError("generators failed to reach every group element")
    _BFS_PLANS[group.descriptor] = plan
    return plan


def irreps(group: Group, cache_dir: str | os.PathLike | None = None) -> tuple[Irrep, ...]:
    """The complete list of irreps of `group` in canonical order.

    Results are memoized per descriptor. If cache_dir is given, symmetric
    group matrix stacks are loaded from / saved to a checksummed cache file
    there (corrupt or mismatched files are silently rebuilt). A memoized result is
    saved to a cache_dir that lacks the file, and a cache_dir that cannot be
    written is skipped.
    """
    reps = _MEMO.get(group.descriptor)
    fresh = reps is None
    if fresh:
        if group.kind == "abelian":
            labels = [()]
            for m in group.moduli:
                labels = [lab + (w,) for lab in labels for w in range(m)]
            reps = tuple(Irrep(group, lab, 1) for lab in labels)
        else:
            reps = tuple(
                Irrep(group, shape, len(standard_tableaux(shape)))
                for shape in partitions(group.degree)
            )
        total = sum(r.dim * r.dim for r in reps)
        if total != group.order:
            raise ConsistencyError(
                f"irrep dimensions of {group.descriptor} violate sum d^2 = |G|"
            )
    if (
        cache_dir is not None
        and group.kind == "symmetric"
        and group.order <= _EAGER_STACK_ORDER
    ):
        _sync_cache(group, reps, cache_dir, fresh)
    _MEMO[group.descriptor] = reps
    return reps


def _sync_cache(
    group: Group, reps: tuple[Irrep, ...], cache_dir: str | os.PathLike, fresh: bool
) -> None:
    """Load fresh irreps' stacks from the cache file, or save them there.

    Memoized irreps are only saved, and only when the file is missing, so a
    memo hit reads nothing. The cache only saves time, so a write that fails
    is skipped.
    """
    from . import irrep_cache

    path = irrep_cache.cache_path(cache_dir, group)
    if fresh:
        records = irrep_cache.read_cache(path, group)
        if records is not None and [(r.name, r.dim) for r in reps] == [
            (name, stack.shape[1]) for name, stack in records
        ]:
            for rep, (_, stack) in zip(reps, records):
                rep._stack = stack
                rep._stack.setflags(write=False)
            return
    elif os.path.exists(path):
        return
    records = [(r.name, r.stack()) for r in reps]
    try:
        irrep_cache.write_cache(path, group, records)
    except OSError:
        pass


def plancherel(group: Group) -> dict[tuple, Fraction]:
    """Exact distribution assigning each irrep label probability d^2/|G|."""
    dist = {r.label: Fraction(r.dim * r.dim, group.order) for r in irreps(group)}
    if sum(dist.values()) != 1:
        raise ConsistencyError("Plancherel weights do not sum to one")
    return dist


# ---------------------------------------------------------------------------
# the group Fourier transform


@dataclass
class FourierTransform:
    """Unitary change of basis that block-diagonalizes right translation.

    Row (rho, i, j) has entries sqrt(d_rho/|G|) * conj(rho(g)[i, j]) over
    the column index g; rows are grouped by irrep in canonical order with i
    major. Conjugating R(s) by the matrix gives, per irrep, d_rho copies of
    rho(s): F R(s) F^dagger = direct_sum_rho I_{d_rho} (x) rho(s).
    """

    group: Group
    matrix: np.ndarray
    rows: tuple[tuple[tuple, int, int], ...]
    offsets: dict[tuple, int]


def fourier(group: Group) -> FourierTransform:
    """Build the group Fourier matrix and verify its defining properties.

    Unitarity is always checked. The translation intertwining identity is
    checked for every group element when |G| <= 120, otherwise on a fixed
    sample including the generators.
    """
    if group.order > _FOURIER_ORDER_LIMIT:
        raise CapacityError(
            f"Fourier matrix for |G|={group.order} exceeds the supported size"
        )
    reps = irreps(group)
    N = group.order
    blocks = []
    rows: list[tuple[tuple, int, int]] = []
    offsets: dict[tuple, int] = {}
    off = 0
    for rep in reps:
        d = rep.dim
        stack = rep.stack()
        blk = np.sqrt(d / N) * np.conj(stack.reshape(N, d * d).T)
        blocks.append(blk)
        offsets[rep.label] = off
        rows.extend((rep.label, i, j) for i in range(d) for j in range(d))
        off += d * d
    F = np.vstack(blocks).astype(np.complex128)
    ft = FourierTransform(group, F, tuple(rows), offsets)
    _validate_fourier(ft, reps)
    return ft


def _validate_fourier(ft: FourierTransform, reps: tuple[Irrep, ...]) -> None:
    F = ft.matrix
    N = ft.group.order
    # S_n's Fourier matrix is real: its unitarity product needs no complex arithmetic
    gram = F @ F.conj().T if F.imag.any() else F.real @ F.real.T
    unit = np.max(np.abs(gram - np.eye(N)))
    if unit > 1e-12:
        raise ConsistencyError(f"Fourier matrix is not unitary (residual {unit:.3e})")
    if N <= _EXHAUSTIVE_CHECK_ORDER:
        sample = list(range(N))
    else:
        sample = sorted(set([0, 1, N // 3, N // 2, N - 1]))
    for s in sample:
        # F R(s) = (direct sum of I_d (x) rho(s)) F, irrep by irrep: the left
        # side permutes F's columns, the right applies rho(s) to the j index
        # of the irrep's rows read as (i, j, g)
        cols = ft.group.translate(ft.group.inverse(s))
        resid = 0.0
        for rep in reps:
            d, off = rep.dim, ft.offsets[rep.label]
            rows = F[off : off + d * d].reshape(d, d, N)
            resid = max(resid, np.max(np.abs(rows[:, :, cols] - rep.stack()[s] @ rows)))
        if resid > 1e-9:
            raise ConsistencyError(
                f"Fourier intertwining failed at element {s} (residual {resid:.3e})"
            )


def kron_stack(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Elementwise Kronecker product of two stacks of matrices, broadcast over
    every axis but the last two."""
    out = np.einsum("...ij,...kl->...ikjl", s1, s2)
    return out.reshape(out.shape[:-4] + (s1.shape[-2] * s2.shape[-2], s1.shape[-1] * s2.shape[-1]))
