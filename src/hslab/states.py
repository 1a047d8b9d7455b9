"""Hidden-shift states over a finite group, dense and block-diagonal.

The two-function superposition procedure produces, per run, either the
shifted state (uniform mixture over g of pair superpositions of |0,g> and
|1,g*s>) or the maximally mixed state on the same 2|G|-dimensional space.
This module builds both for k independent runs, the maximally mixed state
dense only and the shifted states in two representations:

* dense: the full (2|G|)^k matrix, basis ordered (bit_1, g_1, ..., bit_k, g_k);
* block: after the per-copy change of basis (I_2 (x) Fourier) and a
  reshuffle that groups the k bit indices together, the state is
  block-diagonal over k-tuples of irrep labels. The tuple (rho_1..rho_k)
  contributes d_rho1*...*d_rhok identical copies of a block B of dimension
  2^k * prod d_rhoj, scaled by (2|G|)^-k.

The reshuffle sends the dense-side index (x_1, (rho_1,i_1,j_1), ...,
x_k, (rho_k,i_k,j_k)) to (rho-tuple; i-tuple; x-tuple; j-tuple), with the
x-tuple major over the j-tuple inside each block.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations_with_replacement, islice, product
from math import comb, factorial, prod

import numpy as np

from .errors import CapacityError, ConsistencyError, DomainError
from .groups import Group, SubgroupEmbedding
from .irreps import Irrep, fourier, irreps, kron_stack

DENSE_BYTES_LIMIT = 2 ** 31
DENSE_WORKING_MATRICES = 6
BLOCK_DIM_LIMIT = 4096
BLOCK_WORK_LIMIT = 2 ** 28
MULTISET_WORK_LIMIT = 2 ** 32
PATTERN_STEP_WORK = 2 ** 17
MULTISET_WORK = 2 ** 16
GRID_ENTRY_WORK = 2 ** 7
COUNT_MULTISET_WORK = 2 ** 12
COUNT_ENTRY_WORK = 2 ** 6
RANK_CHUNK_CELLS = 2 ** 16
AVERAGE_STACK_LIMIT = 2 ** 26
RANK_RTOL = 1e-8
CLUSTER_TOL = 1e-8
INTERIOR_MARGIN = 1e-8


# ---------------------------------------------------------------------------
# types


@dataclass
class Block:
    """One diagonal block of a k-copy state, tagged by its irrep labels."""

    labels: tuple[tuple, ...]
    matrix: np.ndarray
    multiplicity: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class ShiftState:
    """A k-copy state in dense or block form.

    variant is one of "fixed" (known shift), "averaged" (uniform mixture
    over shifts), "no-shift" (maximally mixed), or "from-oracles" (built
    from an oracle pair without knowing which case holds).
    """

    group: Group
    copies: int
    variant: str
    form: str
    shift: int | None = None
    dense: np.ndarray | None = None
    blocks: dict[tuple, Block] | None = None

    @property
    def dimension(self) -> int:
        return (2 * self.group.order) ** self.copies

    def scale(self) -> float:
        """Factor mapping block eigenvalues to state eigenvalues."""
        return 1.0 / self.dimension

    def validate(self) -> None:
        """Check finiteness, hermiticity, positivity and unit trace; raise on failure."""
        if self.form == "dense":
            M = self.dense
            _require_density(_density_verdicts(M, 1e-12, 1e-10), np.trace(M).real, "dense state")
            return
        total = 0.0
        for blk in self.blocks.values():
            B = blk.matrix
            finite, hermitian, positive = _density_verdicts(B, 1e-12, 1e-10)
            if not finite:
                raise ConsistencyError(f"block {blk.labels} has a non-finite entry")
            if not hermitian:
                raise ConsistencyError(f"block {blk.labels} is not Hermitian")
            if not positive:
                raise ConsistencyError(f"block {blk.labels} has a negative eigenvalue")
            total += blk.multiplicity * np.trace(B).real
        if abs(total * self.scale() - 1.0) > 1e-10:
            raise ConsistencyError("block traces do not sum to one")


def _pattern_blocks(M: np.ndarray):
    """Yield (index, stack) for the connected blocks of M, grouped by size.

    The blocks are the connected components of the symmetric nonzero
    pattern (M != 0) | (M != 0).T, so every nonzero entry of M lies inside
    one block. index is a (count, size) int array, each row one block's
    indices in ascending order, and stack is the (count, size, size) array
    of those blocks, M[index[b]][:, index[b]] for block b. A matrix with
    one component is one block, given as a view of M.
    """
    nz = M != 0
    adj = nz | nz.T
    n = len(M)
    # a row with no nonzero off the diagonal is a block of its own
    alone = np.count_nonzero(adj, axis=1) == adj.diagonal()
    label = np.full(n, -1, dtype=np.int64)
    count = int(alone.sum())
    label[alone] = np.arange(count)
    for start in np.flatnonzero(~alone):
        if label[start] >= 0:
            continue
        seen = np.zeros(n, dtype=bool)
        seen[start] = True
        frontier = seen.copy()
        while True:
            frontier = adj[frontier].any(axis=0) & ~seen
            if not frontier.any():
                break
            seen |= frontier
        label[seen] = count
        count += 1
    if count == 1:
        yield np.arange(n)[None], M[None]
        return
    order = np.argsort(label, kind="stable")
    sizes = np.bincount(label)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    for size in np.unique(sizes):
        index = order[starts[sizes == size, None] + np.arange(size)]
        yield index, M[index[:, :, None], index[:, None, :]]


def _density_verdicts(M: np.ndarray, herm_tol: float, psd_tol: float | None) -> tuple[bool, bool, bool]:
    """_stack_verdicts of the square M from one walk over its connected blocks,
    outside which M and M^H are zero."""
    return _stack_verdicts((stack for _, stack in _pattern_blocks(M)), herm_tol, psd_tol)


def _stack_verdicts(stacks, herm_tol: float, psd_tol: float | None) -> tuple[bool, bool, bool]:
    """(finite, Hermitian, positive) verdicts on a matrix given as the (count,
    size, size) stacks of its connected blocks, zero outside them: no inf or
    nan (else all False); max |M - M^H| <= herm_tol; and, for Hermitian M, every
    block plus psd_tol*I has a Cholesky factor (one batched factorization per
    stack). psd_tol None skips the factorizations and reports positive True."""
    hermitian = positive = True
    for stack in stacks:
        if not np.isfinite(stack).all():
            return False, False, False
        if hermitian and _max_abs(stack - stack.conj().swapaxes(1, 2)) > herm_tol:
            hermitian = positive = False
        if positive and psd_tol is not None:
            shifted = stack.copy()
            np.einsum("...ii->...i", shifted)[...] += psd_tol
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                positive = False
    return True, hermitian, positive


def _max_abs(A: np.ndarray) -> float:
    """max |A|, overwriting A when it is real, so that it costs no second temporary."""
    return np.max(np.abs(A, out=A) if A.dtype.kind == "f" else np.abs(A))


def _require_density(verdicts: tuple[bool, bool, bool], trace: float, who: str) -> None:
    """Raise ConsistencyError on the first failed check, in the order
    finite, Hermitian, unit trace (within 1e-10), positive."""
    finite, hermitian, positive = verdicts
    if not finite:
        raise ConsistencyError(f"{who} has a non-finite entry")
    if not hermitian:
        raise ConsistencyError(f"{who} is not Hermitian")
    if abs(trace - 1.0) > 1e-10:
        raise ConsistencyError(f"{who} trace differs from one")
    if not positive:
        raise ConsistencyError(f"{who} has a negative eigenvalue")


# ---------------------------------------------------------------------------
# dense constructions


def _dense_bytes(dim: int) -> int:
    """Estimated peak bytes of building a dense state of dimension dim and
    running helstrom on it against a second one: DENSE_WORKING_MATRICES
    float64 dim x dim matrices alive at once. Measured by peak RSS on S3 k=3,
    helstrom holds about 4.3 against the maximally mixed state (both
    states, the difference, the eigensolver's copy) and about 5.5 on the
    Cholesky path (both states, the shifted block, LAPACK's copy, the factor)."""
    return DENSE_WORKING_MATRICES * 8 * dim * dim


def _guard_dense(group: Group, copies: int) -> None:
    if copies < 1:
        raise DomainError("copies must be a positive integer")
    # the dimension is at least 2^k: compare k with a bit length before the
    # power, which also keeps the GiB figure below a float's range
    if 2 * copies >= DENSE_BYTES_LIMIT.bit_length():
        size = f"at least 4^{copies} bytes"
    else:
        need = _dense_bytes((2 * group.order) ** copies)
        if need <= DENSE_BYTES_LIMIT:
            return
        size = f"about {need / 2 ** 30:.1f} GiB"
    raise CapacityError(
        f"dense dimension (2*{group.order})^{copies} needs {size}, "
        f"over the {DENSE_BYTES_LIMIT / 2 ** 30:.0f} GiB budget"
    )


def _single_copy_positions(group: Group, s: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the 4|G| nonzeros of [[I, R(s)], [R(s^-1), I]]:
    R(s) holds (g s^-1, g) and R(s^-1) holds (g s, g)."""
    N = group.order
    g = np.arange(N)
    rows = np.concatenate([g, N + g, group.translate(group.inverse(s)), N + group.translate(s)])
    cols = np.concatenate([g, N + g, N + g, g])
    return rows, cols


def _kron_nonzeros(group: Group, s: int, copies: int) -> tuple[np.ndarray, float]:
    """(flat indices, value) of the (4|G|)^k nonzeros of the k-fold Kronecker
    power of the one-copy state for shift s, in its (2|G|)^k x (2|G|)^k
    matrix. They all hold ((v v) v)... with v = 1/(2|G|), multiplied in the
    order of a left-folded Kronecker product."""
    rows, cols = _single_copy_positions(group, s)
    n = 2 * group.order
    R, C, entry = rows, cols, 1.0 / n
    for _ in range(copies - 1):
        R = (R[:, None] * n + rows).ravel()
        C = (C[:, None] * n + cols).ravel()
        entry *= 1.0 / n
    return R * n ** copies + C, entry


def shift_state_dense(group: Group, s: int, copies: int = 1) -> ShiftState:
    """Dense k-copy state for a known shift s, written as its nonzeros."""
    _guard_dense(group, copies)
    group.check_index(s)
    dim = (2 * group.order) ** copies
    dense = np.zeros((dim, dim))
    dense.put(*_kron_nonzeros(group, s, copies))
    return ShiftState(group, copies, "fixed", "dense", shift=s, dense=dense)


def averaged_shift_state_dense(group: Group, copies: int = 1) -> ShiftState:
    """Dense k-copy state averaged over a uniformly random shift.

    Each shift's nonzeros are added in place, shift by shift, so every entry
    is the same sequential sum as adding the shifts' dense states; the sum
    is then divided by |G| in place."""
    _guard_dense(group, copies)
    dim = (2 * group.order) ** copies
    acc = np.zeros((dim, dim))
    flat = acc.ravel()
    for s in group.elements():
        # the positions of one shift are distinct, so this adds once at each
        index, entry = _kron_nonzeros(group, s, copies)
        flat[index] += entry
    acc /= group.order
    return ShiftState(group, copies, "averaged", "dense", dense=acc)


def maximally_mixed_state(group: Group, copies: int = 1) -> ShiftState:
    """The dense no-shift k-copy state, identity over (2|G|)^k."""
    _guard_dense(group, copies)
    dim = (2 * group.order) ** copies
    dense = np.eye(dim)
    dense /= dim
    return ShiftState(group, copies, "no-shift", "dense", dense=dense)


# ---------------------------------------------------------------------------
# block constructions


def _check_reps(reps: tuple[Irrep, ...]) -> Group:
    group = reps[0].group
    if any(r.group != group for r in reps):
        raise DomainError("irreps must all belong to the same group")
    return group


def _average_product(reps, exponents) -> np.ndarray:
    """Group average of the Kronecker product of rho_j(g^e_j), every e_j being -1 or 1.

    With no factors the product is the 1 x 1 identity. The |G| stacked
    products are refused over AVERAGE_STACK_LIMIT entries before any stack is read."""
    if not reps:
        return np.eye(1)
    group, out_dim = reps[0].group, prod(r.dim for r in reps)
    if group.order * out_dim * out_dim > AVERAGE_STACK_LIMIT:
        raise CapacityError(
            f"averaging a {out_dim}-dimensional product over {group.order} elements exceeds the memory budget"
        )
    inv = group.inverse_vector()
    cur = None
    for r, e in zip(reps, exponents):
        part = r.stack() if e == 1 else r.stack()[inv]
        cur = part if cur is None else kron_stack(cur, part)
    return cur.mean(axis=0)


def _bit_tuples(k: int) -> np.ndarray:
    """(2^k, k) int array of the bit tuples in product((0, 1)) order. An
    integer-linear function f(x) = sum_j x_j w_j of the bits of every row
    is _bit_tuples(k) @ w, as _counted_rank forms it."""
    return np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1) & 1


def _signed_averages(reps: tuple[Irrep, ...], memo: dict) -> np.ndarray:
    """The 2^s averages _average_product(reps, e), e in product((-1, 1)), of
    s factors, as one (2, ..., 2, D, D) array indexed by the sign bits
    [e_j = 1].

    For s >= 2 factors whose batch of 2^s |G| D^2 entries fits
    AVERAGE_STACK_LIMIT they are taken together, bit for bit the same, as
    every stacked product is the same left fold of entrywise products; the
    signed stack of the first s - 1 factors, (2, ..., 2, |G|, D', D'), is
    kept in memo under their labels. Otherwise they are taken one by one,
    each refused by _average_product before any stack is read."""
    D = prod(r.dim for r in reps)
    if len(reps) < 2 or 2 ** len(reps) * reps[0].group.order * D * D > AVERAGE_STACK_LIMIT:
        averages = [_average_product(reps, e) for e in product((-1, 1), repeat=len(reps))]
        return np.stack(averages).reshape((2,) * len(reps) + (D, D))
    inv = reps[0].group.inverse_vector()

    def signed(r):
        return np.stack([r.stack()[inv], r.stack()])

    def times(prefix, r):
        return kron_stack(prefix[..., None, :, :, :], signed(r))

    key = ("signed prefix", *(r.label for r in reps[:-1]))
    prefix = memo.get(key)
    if prefix is None:
        prefix = memo[key] = reduce(times, reps[1:-1], signed(reps[0]))
    return times(prefix, reps[-1]).mean(axis=-3)


def _build_block(reps: tuple[Irrep, ...], shift: int | None, memo: dict) -> Block:
    """state_block. Averaged, each cell is the average over the factors with a
    nonzero exponent, a sub-tuple S, with identity factors elsewhere; the
    2^|S| sign averages of every S are read from memo under the labels of S,
    or else taken by _signed_averages, the full tuple first. Those over fewer
    than k factors, which recur across the irrep tuples of one scan, are
    stored in memo."""
    k = len(reps)
    if k < 1:
        raise DomainError("at least one irrep is required")
    dims = [r.dim for r in reps]
    D = prod(dims)
    dim = (2 ** k) * D
    if dim > BLOCK_DIM_LIMIT:
        raise CapacityError(f"block dimension {dim} exceeds {BLOCK_DIM_LIMIT}")
    group = _check_reps(reps)
    labels = tuple(r.label for r in reps)
    if shift is not None:
        # per copy [[I, rho(s)], [rho(s^-1), I]], indexed (bit, inner); the
        # Kronecker chain is indexed (x_1, i_1, ..., x_k, i_k), so move the bits first
        group.check_index(shift)
        inv = group.inverse(shift)
        per_copy = [
            np.block([[np.eye(r.dim), r.matrix(shift)], [r.matrix(inv), np.eye(r.dim)]])
            for r in reps
        ]
        order = [*range(0, 2 * k, 2), *range(1, 2 * k, 2)]
        shape = [n for d in dims for n in (2, d)]
        B = reduce(np.kron, per_copy).reshape(shape * 2)
        return Block(labels, B.transpose(order + [2 * k + a for a in order]).reshape(dim, dim), D)
    masks = list(product((1, 0), repeat=k))
    averages = []
    for mask in masks:
        sub = tuple(r for r, m in zip(reps, mask) if m)
        key = tuple(r.label for r in sub)
        avg = memo.get(key)
        if avg is None:
            avg = _signed_averages(sub, memo)
            if len(sub) < k:
                memo[key] = avg
        averages.append(avg)
    # the dtype of the averages read, so a block seeded from memo reads no stack
    B = np.zeros(((2,) * k + tuple(dims)) * 2, dtype=np.result_type(np.float64, *(a.dtype for a in averages)))
    # B's axes are (x_1..x_k, i_1..i_k, y_1..y_k, j_1..j_k), and cell (x, y)
    # holds exponents y - x. A copy in S has x_j = 1 - y_j, its sign bit y_j,
    # so its x axis is reversed and tied to y_j; every other copy has x_j =
    # y_j and an identity factor, i_j = j_j. Einsum labels: i_j -> j, x_j and
    # y_j -> k + j, j_j -> 2k + j; each write is to a view of B.
    bits = [k + j for j in range(k)]
    for mask, avg in zip(masks, averages):
        inside = [j for j in range(k) if mask[j]]
        outside = [j for j in range(k) if not mask[j]]
        tied = np.einsum(
            B[tuple(slice(None, None, -1 if m else 1) for m in mask)],
            bits + list(range(k)) + bits + [2 * k + j if m else j for j, m in enumerate(mask)],
            [k + j for j in outside] + outside + [k + j for j in inside] + inside + [2 * k + j for j in inside],
        )
        tied[...] = avg.reshape((2,) * len(inside) + tuple(dims[j] for j in inside) * 2)
    return Block(labels, B.reshape(dim, dim), D)


def _one_factor_averages(reps: tuple[Irrep, ...]) -> dict:
    """The sign averages of every rep, keyed and laid out as in the memo of
    _build_block: avg rho(g^e) is [[1]] for the trivial irrep and, by Schur
    orthogonality against it, zero for every other. They take the dtype of
    the stacks they stand for: complex for characters, real for Young's form."""
    dtype = complex if reps[0].group.is_abelian else float
    return {
        (r.label,): np.ones((2, 1, 1), dtype) if r.is_trivial else np.broadcast_to(np.zeros((), dtype), (2, r.dim, r.dim))
        for r in reps
    }


def _schur_pair_averages(reps: tuple[Irrep, ...]) -> dict:
    """The sign averages of every ordered pair of reps, keyed and laid out as
    in the memo of _build_block, or no entry at all when a stack is complex.

    Real orthogonal irreps satisfy Schur orthogonality in the form
    avg rho_ij(g) sigma_kl(g) = delta_rho,sigma delta_ik delta_jl / d, so the
    average of rho(g^e) (x) sigma(g^f) is zero for distinct labels,
    |Phi><Phi|/d with Phi = sum_i |ii> for e = f, and SWAP/d for e = -f.
    """
    if any(np.iscomplexobj(r.stack()) for r in reps):
        return {}
    memo = {}
    for a, b in product(reps, repeat=2):
        n = a.dim * b.dim
        if a.label != b.label:
            memo[a.label, b.label] = np.broadcast_to(0.0, (2, 2, n, n))
            continue
        phi = np.eye(a.dim).reshape(n)
        same = np.outer(phi, phi) / a.dim
        opposite = np.eye(n).reshape((a.dim,) * 4).transpose(0, 1, 3, 2).reshape(n, n) / a.dim
        memo[a.label, b.label] = np.array([[same, opposite], [opposite, same]])
    return memo


def state_block(reps: tuple[Irrep, ...], shift: int | None = None) -> Block:
    """Diagonal block for one k-tuple of irreps.

    Rows and columns are indexed by (bit tuple, inner tensor index) with the
    bit tuple major; the (x, y) cell holds the power block with exponents
    y - x componentwise. The block's multiplicity equals its inner dimension
    D = prod d_rho.
    """
    return _build_block(reps, shift, {})


def _guard_block_scan(group: Group, copies: int) -> None:
    """Reject whole-state block scans whose total work is clearly infeasible.

    Bounds both the elements held while averaging representation products
    and the cubic eigensolver cost summed over every block. As D^2 = prod
    d_j^2 <= |G|^k, the batch of a tuple's 2^k sign averages holds 2^k |G|
    D^2 <= 2^k |G|^(k+1) entries, and the prefix stacks the scan keeps, of
    the first m factors of its sub-tuples, 0 < m < k, hold 2^m |G| (sum
    d^2)^m = 2^m |G|^(m+1) each, at most 2^k |G|^k in all: together within
    3^k |G|^(k+1), the price of the 3^k patterns the build once averaged one
    by one. It over-prices the 2^k sub-tuples the build now takes, and is
    kept so that no scan changes status.
    """
    if copies < 1:
        raise DomainError("copies must be a positive integer")
    # the eigensolver work is at least 8^k: compare k with a bit length before any power
    too_large = 3 * copies >= BLOCK_WORK_LIMIT.bit_length() or max(
        (3 ** copies) * group.order ** (copies + 1),
        (8 ** copies) * sum(r.dim ** 3 for r in irreps(group)) ** copies,
    ) > BLOCK_WORK_LIMIT
    if too_large:
        raise CapacityError(
            f"scanning all blocks of {group.descriptor} with k={copies} "
            "exceeds the work budget"
        )


def _scan_blocks(group: Group, copies: int, shift: int | None):
    """Yield (irrep tuple, state block) for every block in canonical tuple order.

    The whole-scan guard runs before the first block is built. Blocks are
    built one at a time and only the caller decides what to keep;
    the averages that recur across tuples are kept until the scan ends.
    """
    _guard_block_scan(group, copies)
    memo: dict = {}
    for reps in product(irreps(group), repeat=copies):
        yield reps, _build_block(reps, shift, memo)


def block_shift_state(group: Group, copies: int, shift: int | None = None) -> ShiftState:
    """Block form of the k-copy state; averaged over shifts when shift is None."""
    blocks = {blk.labels: blk for _, blk in _scan_blocks(group, copies, shift)}
    variant = "averaged" if shift is None else "fixed"
    return ShiftState(group, copies, variant, "block", shift=shift, blocks=blocks)


def one_copy_state(group: Group, shift: int | None = None) -> ShiftState:
    """block_shift_state(group, 1, shift) without the stack averages, 4|G|
    entries in all: the averaged blocks start from _one_factor_averages, so
    they hold exact zeros where the stack averages hold rounding noise, and
    their diagonals, hence their traces, are the same floats."""
    reps = irreps(group)
    seeds = _one_factor_averages(reps)
    blocks = {(r.label,): _build_block((r,), shift, seeds) for r in reps}
    variant = "averaged" if shift is None else "fixed"
    return ShiftState(group, 1, variant, "block", shift=shift, blocks=blocks)


# ---------------------------------------------------------------------------
# spectra


@dataclass
class SpectrumReport:
    """Eigenvalues of a Hermitian matrix, clustered and rank-summarized."""

    dim: int
    eigenvalues: np.ndarray
    clusters: tuple[tuple[float, int], ...]
    rank: int
    max_eigenvalue: float
    min_nonzero: float | None


def _report(desc: np.ndarray) -> SpectrumReport:
    """SpectrumReport of eigenvalues already in descending order."""
    rank = _numeric_rank(desc)
    return SpectrumReport(
        dim=len(desc),
        eigenvalues=desc,
        clusters=tuple(_cluster(desc)),
        rank=rank,
        max_eigenvalue=float(desc[0]),
        min_nonzero=float(desc[rank - 1]) if rank else None,
    )


def spectrum(M: np.ndarray) -> SpectrumReport:
    """Eigenvalues of a Hermitian matrix in descending order.

    Raises DomainError for an empty, non-finite or non-Hermitian input. The
    eigendecomposition is verified by reconstruction; eigenvalues within
    CLUSTER_TOL of each other merge into one multiplicity cluster, and rank
    counts eigenvalues above 1e-8 times the largest magnitude.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size:
        raise DomainError("spectrum expects a nonempty square matrix")
    if not np.isfinite(M).all() or np.max(np.abs(M - M.conj().T)) > 1e-10:
        raise DomainError("spectrum expects a finite Hermitian matrix")
    w, V = np.linalg.eigh(M)
    recon = (V * w) @ V.conj().T
    if np.max(np.abs(M - recon)) > 1e-9:
        raise ConsistencyError("eigendecomposition failed to reconstruct the input")
    return _report(w[::-1])


def _cluster(desc: np.ndarray) -> list[tuple[float, int]]:
    cuts = [0, *(np.flatnonzero(desc[:-1] - desc[1:] > CLUSTER_TOL) + 1).tolist(), len(desc)]
    return [(float(desc[a:b].mean()), b - a) for a, b in zip(cuts, cuts[1:])]


def _numeric_rank(values: np.ndarray) -> int:
    top = np.max(np.abs(values)) if len(values) else 0.0
    if top == 0.0:
        return 0
    return int(np.sum(values > RANK_RTOL * top))


def state_spectrum(state: ShiftState) -> SpectrumReport:
    """Spectrum of a state on the state scale, from either representation."""
    if state.form == "dense":
        return spectrum(state.dense)
    scale = state.scale()
    pieces = []
    for blk in state.blocks.values():
        w = np.linalg.eigvalsh(blk.matrix) * scale
        pieces.append(np.tile(w, blk.multiplicity))
    return _report(np.sort(np.concatenate(pieces))[::-1])


def _guard_counted_rank(group: Group, copies: int) -> int:
    """The work of _counted_rank, which builds no block and reads no stack, in
    the units of _guard_multiset_scan: COUNT_MULTISET_WORK + COUNT_ENTRY_WORK
    k 2^k (330 ns + 7 ns k 2^k measured) for each of the C(n + k - 1, k)
    multisets of the n irreps; CapacityError above MULTISET_WORK_LIMIT."""
    if copies < 1:
        raise DomainError("copies must be a positive integer")
    # the work is at least 2^k: compare k with a bit length before the power
    if copies < MULTISET_WORK_LIMIT.bit_length():
        each = COUNT_MULTISET_WORK + COUNT_ENTRY_WORK * copies * 2 ** copies
        if (work := comb(len(irreps(group)) + copies - 1, copies) * each) <= MULTISET_WORK_LIMIT:
            return work
    raise CapacityError(f"the multiset count of {group.descriptor} with k={copies} exceeds the work budget")


def _guard_multiset_scan(group: Group, copies: int) -> int:
    """The estimated work of _multiset_spectra, in units of one n^3 of an
    n x n eigensolve (0.11 ns on S6 k=2, one BLAS thread), summed over the
    irrep multisets it walks, each seen as its dimensions d_1..d_k. One
    costs MULTISET_WORK, GRID_ENTRY_WORK per exponent of its 4^k cells, its
    eigensolve (2^k D)^3, PATTERN_STEP_WORK per pattern and |G| D_S^2 per
    average over three or more nonzero factors S, in all
    prod(1 + x_j) - 1 - e_1(x) - e_2(x) with x_j = 2 d_j^2. The grid and
    pattern terms price the 3^k patterns and 4^k exponents the build once
    took; it now takes 2^k sub-tuple steps and forms no exponent, so they
    over-price it, and are kept so that no scan changes status.
    CapacityError above MULTISET_WORK_LIMIT, or first for a widest block
    over BLOCK_DIM_LIMIT, seen from bit lengths alone."""
    if copies < 1:
        raise DomainError("copies must be a positive integer")
    dims = [r.dim for r in irreps(group)]

    def price(ds):
        x = [2 * d * d for d in ds]
        e1 = sum(x)
        e2 = (e1 * e1 - sum(v * v for v in x)) // 2
        each = MULTISET_WORK + GRID_ENTRY_WORK * copies * 4 ** copies
        each += ((2 ** copies) * prod(ds)) ** 3 + PATTERN_STEP_WORK * 3 ** copies
        return each + group.order * (prod(1 + v for v in x) - 1 - e1 - e2)

    too_large = (
        copies * ((2 * max(dims)).bit_length() - 1) >= BLOCK_DIM_LIMIT.bit_length()
        or (work := sum(map(price, combinations_with_replacement(dims, copies)))) > MULTISET_WORK_LIMIT
    )
    if too_large:
        raise CapacityError(
            f"the multiset scan of {group.descriptor} with k={copies} exceeds the work budget"
        )
    return work


def _multiset_spectra(group: Group, k: int):
    """Yield (sorted irrep tuple, weight, averaged block eigenvalues), one per
    multiset of k irreps of a non-abelian group, in combinations_with_replacement order.

    Permuting the copies conjugates a block by a permutation, so every
    ordering of a multiset has the spectrum of the sorted tuple; the weight
    D k!/prod(m!) counts the D copies of each of its orderings. The blocks
    come from _build_block with one memo for the scan, started from
    _one_factor_averages and _schur_pair_averages."""
    _guard_multiset_scan(group, k)
    reps = irreps(group)
    memo = _one_factor_averages(reps)
    if k > 1:
        memo.update(_schur_pair_averages(reps))
    for combo in combinations_with_replacement(reps, k):
        orderings = factorial(k) // prod(map(factorial, Counter(combo).values()))
        weight = orderings * prod(r.dim for r in combo)
        yield combo, weight, np.linalg.eigvalsh(_build_block(combo, None, memo).matrix)


def _counted_rank(group: Group, k: int, shift: int | None) -> int:
    """state_rank at a fixed shift, or averaged over an abelian group, counted
    RANK_CHUNK_CELLS (multiset, bit tuple) cells at a time. A multiset stands
    for k!/prod(m!) orderings, m the runs in its sorted row, each for D
    copies of its block. At a fixed shift s the block is, up to a reshuffle,
    (x)_j [[I, rho_j(s)], [rho_j(s)^H, I]]: 2^k times a projector of rank D.
    Averaged over an abelian group, cell (x, y) of the block of characters
    (w_1..w_k) is [f(x) == f(y)], f(x) = sum_j x_j w_j, of rank the number
    of distinct values of f."""
    if shift is not None:
        group.check_index(shift)
    _guard_counted_rank(group, k)
    reps = irreps(group)
    # a term or sum is at most (2|G|)^k and prod(m!) at most k!: past int64, count in Python ints
    dtype = np.int64 if max(factorial(k), (2 * group.order) ** k) < 2 ** 63 else object
    squares = np.array([r.dim ** 2 for r in reps], dtype=dtype)
    labels = np.array([r.label for r in reps], dtype=np.int64) if shift is None else None
    # past 12 copies f adds its values over the first h copies to those over the last 12
    h = max(0, k - 12)
    high, low = _bit_tuples(h), _bit_tuples(k - h)
    at = np.arange(k)
    rows = combinations_with_replacement(range(len(reps)), k)
    step = max(1, RANK_CHUNK_CELLS >> k)
    rank = 0
    for _ in range(0, comb(len(reps) + k - 1, k), step):
        chunk = np.fromiter(chain.from_iterable(islice(rows, step)), np.int64).reshape(-1, k)
        # entry j is the (j - first + 1)-th of its run, so these multiply to prod(m!)
        first = np.maximum.accumulate(np.where(np.diff(chunk, axis=1, prepend=-1) != 0, at, 0), axis=1)
        weight = factorial(k) // np.prod(at + 1 - first, axis=1, dtype=dtype)
        if shift is not None:
            rank += int(weight @ np.prod(squares[chunk], axis=1))
            continue
        f = low @ labels[chunk[:, h:]]
        if h:
            f = (high @ labels[chunk[:, :h]])[:, :, None] + f[:, None]
        f %= np.array(group.moduli)
        f = np.ravel_multi_index(tuple(np.moveaxis(f, -1, 0)), group.moduli).reshape(len(chunk), -1)
        f.sort(axis=1)
        rank += int(weight @ (1 + np.count_nonzero(f[:, 1:] != f[:, :-1], axis=1)))
    return rank


def state_rank(group: Group, copies: int, shift: int | None = None) -> int:
    """Numeric rank of the k-copy state: counted at a fixed shift and for an
    abelian group (see _counted_rank), else from one block per irrep multiset
    (see _multiset_spectra), above RANK_RTOL times the top block eigenvalue
    2^k (of the trivial all-ones block), formed after the scan's guard."""
    if shift is not None or group.is_abelian:
        return _counted_rank(group, copies, shift)
    return sum(
        weight * int(np.count_nonzero(w > RANK_RTOL * 2 ** copies))
        for _, weight, w in _multiset_spectra(group, copies)
    )


def rank_closed_form(group: Group, copies: int) -> int:
    """Exact rank of the averaged state for one or two copies.

    One copy: 2|G| - 1. Two copies: 4|G|^2 - 5|G| + 3 - (number of
    one-dimensional irreps).
    """
    N = group.order
    if copies == 1:
        return 2 * N - 1
    if copies == 2:
        ones = sum(1 for r in irreps(group) if r.dim == 1)
        return 4 * N * N - 5 * N + 3 - ones
    raise DomainError("closed-form rank is available for one or two copies only")


@dataclass
class InteriorEigenvalueReport:
    """Witness for a state eigenvalue strictly inside (0, dimension^-1)."""

    found: bool
    witness: float | None = None
    labels: tuple[tuple, ...] | None = None
    block_eigenvalue: float | None = None


def interior_eigenvalue_check(group: Group, copies: int) -> InteriorEigenvalueReport:
    """Search the averaged state for an eigenvalue strictly between 0 and
    the inverse dense dimension (equivalently a block eigenvalue in (0, 1)).

    Such an eigenvalue shows the support projector differs from the optimal
    two-outcome discrimination measurement. The first matching irrep
    multiset (see _multiset_spectra) supplies the witness. It is also the
    first matching tuple in canonical tuple order: the sorted tuple of a
    match matches too, and comes no later. A block eigenvalue counts as
    interior when it lies in (INTERIOR_MARGIN, 1 - INTERIOR_MARGIN).
    """
    if group.is_abelian:
        # every averaged block eigenvalue is a class size of f or 0 (see _counted_rank)
        if copies < 1:
            raise DomainError("copies must be a positive integer")
        return InteriorEigenvalueReport(found=False)
    for combo, _, w in _multiset_spectra(group, copies):
        inside = w[(w > INTERIOR_MARGIN) & (w < 1.0 - INTERIOR_MARGIN)]
        if len(inside):
            return InteriorEigenvalueReport(
                found=True,
                witness=float(inside.min()) * (1.0 / (2 * group.order) ** copies),
                labels=tuple(r.label for r in combo),
                block_eigenvalue=float(inside.min()),
            )
    return InteriorEigenvalueReport(found=False)


# ---------------------------------------------------------------------------
# dense <-> block agreement


def block_basis_permutation(group: Group, copies: int) -> np.ndarray:
    """Index map P with P[new] = old for the bit-grouping reshuffle.

    Old order: per copy, (bit, fourier row) where the fourier rows are
    (rho, i, j) blocks in canonical irrep order. New order: irrep tuples in
    canonical product order, then the multiplicity tuple i, then the bit
    tuple x, then the inner tuple j.
    """
    reps = irreps(group)
    N = group.order
    offsets = {}
    off = 0
    for r in reps:
        offsets[r.label] = off
        off += r.dim * r.dim
    P = np.empty((2 * N) ** copies, dtype=np.int64)
    pos = 0
    for combo in product(reps, repeat=copies):
        dims = [r.dim for r in combo]
        for i_tuple in product(*(range(d) for d in dims)):
            for x_tuple in product((0, 1), repeat=copies):
                for j_tuple in product(*(range(d) for d in dims)):
                    old = 0
                    for r, i, x, j in zip(combo, i_tuple, x_tuple, j_tuple):
                        per_copy = x * N + offsets[r.label] + i * r.dim + j
                        old = old * (2 * N) + per_copy
                    P[pos] = old
                    pos += 1
    return P


def to_block_basis(M: np.ndarray, group: Group, copies: int) -> np.ndarray:
    """Conjugate a dense k-copy matrix into the reshuffled Fourier basis."""
    F = fourier(group).matrix
    U_copy = np.kron(np.eye(2), F)
    U = reduce(np.kron, [U_copy] * copies)
    C = U @ M @ U.conj().T
    P = block_basis_permutation(group, copies)
    return C[np.ix_(P, P)]


def dense_from_blocks(state: ShiftState) -> np.ndarray:
    """Assemble the full matrix (in the reshuffled Fourier basis) from blocks."""
    if state.form != "block":
        raise DomainError("dense_from_blocks expects a block-form state")
    group, copies = state.group, state.copies
    dim = state.dimension
    out = np.zeros((dim, dim), dtype=np.complex128)
    scale = state.scale()
    off = 0
    for combo in product(irreps(group), repeat=copies):
        labels = tuple(r.label for r in combo)
        blk = state.blocks[labels]
        piece = np.kron(np.eye(blk.multiplicity), blk.matrix) * scale
        n = piece.shape[0]
        out[off : off + n, off : off + n] = piece
        off += n
    if off != dim:
        raise ConsistencyError("blocks do not fill the full dimension")
    return out


# ---------------------------------------------------------------------------
# subgroup restriction


def subgroup_restriction_check(emb: SubgroupEmbedding) -> bool:
    """Verify the tensor factorization of states with shifts from a subgroup.

    When the hidden shift ranges over an embedded subgroup H of G, the
    single-copy G-state reordered by the coset factorization g = t * iota(h)
    equals (H-state) (x) (maximally mixed on the |G|/|H| transversal slots).
    Checked per fixed shift and for the H-averaged mixture, within 1e-9.
    """
    G, H = emb.parent, emb.subgroup
    m = G.order // H.order
    # new position (x * |H| + h) * m + t_pos holds old position x * |G| + t * iota(h)
    coset = G.compose(np.array(emb.transversal), np.array(emb.injection)[:, None]).ravel()
    perm = np.concatenate([coset, G.order + coset])
    mix = np.eye(m) / m
    avg_G = np.zeros((2 * G.order, 2 * G.order))
    avg_H = np.zeros((2 * H.order, 2 * H.order))
    for h in H.elements():
        dense_G = shift_state_dense(G, emb.injection[h], 1).dense
        dense_H = shift_state_dense(H, h, 1).dense
        avg_G += dense_G
        avg_H += dense_H
        lhs = dense_G[np.ix_(perm, perm)]
        if np.max(np.abs(lhs - np.kron(dense_H, mix))) > 1e-9:
            return False
    lhs = (avg_G / H.order)[np.ix_(perm, perm)]
    rhs = np.kron(avg_H / H.order, mix)
    return bool(np.max(np.abs(lhs - rhs)) <= 1e-9)


# ---------------------------------------------------------------------------
# tabular reports


def spectrum_rows(group: Group, copies: int, shift: int | None = None) -> list[dict]:
    """Clustered block spectra as rows keyed (group, k, tuple_label, ...).

    Eigenvalues are on the block scale; multiply by (2|G|)^-k for state
    eigenvalues. Multiplicity counts the cluster size times the block
    multiplicity.
    """
    rows = []
    for reps, blk in _scan_blocks(group, copies, shift):
        tuple_label = "|".join(r.name for r in reps)
        for value, mult in spectrum(blk.matrix).clusters:
            rows.append(
                {
                    "group": group.descriptor,
                    "k": copies,
                    "tuple_label": tuple_label,
                    "eigenvalue": value,
                    "multiplicity": mult * blk.multiplicity,
                }
            )
    return rows
