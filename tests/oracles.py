"""Reference constructions the package's faster ones are checked against.

* Permutation arithmetic on one-line tuples. `Group.rows` is the package's
  one representation of S_n elements; these tuple functions are the
  independent references its composition, inverse and Lehmer-rank indexing
  are checked against.
* Dense k-copy states as Kronecker powers of the one-copy matrix, summed
  shift by shift for the averaged state; the package writes the same
  nonzeros straight into one zeroed matrix.
* The averaged block build with one `_average_product` per nonzero-exponent
  pattern, padded with identity factors and placed by one gather; the
  package writes one sign-stacked average per sub-tuple of the factors
  straight into the block.
* Eigenvalue clusters cut by a loop over the eigenvalues; the package finds
  the cut points in one vectorized comparison.
* Right translation as a permutation matrix, and the pair vectors
  (|0,g> + |1,g*s>)/sqrt(2) the one-copy state mixes; the package writes
  their nonzeros straight into the dense states.
* The no-shift state as one identity block per irrep tuple; the package
  builds it dense only.
* Rank-one refinement of arbitrary POVM effects, which builds the
  adversarial POVMs of the variance checks; the package draws only random
  rank-one POVMs.
"""

from functools import reduce
from itertools import product
from math import factorial, prod

import numpy as np

from hslab.errors import DomainError
from hslab.irreps import irreps
from hslab.measurements import Povm
from hslab.states import (
    CLUSTER_TOL,
    Block,
    ShiftState,
    _average_product,
    _bit_tuples,
    _single_copy_positions,
)

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def compose_perms(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """Composite permutation mapping i to g(h(i))."""
    return tuple(g[h[i]] for i in range(len(g)))


def invert_perm(g: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(g)
    for i, v in enumerate(g):
        inv[v] = i
    return tuple(inv)


def perm_rank(images: tuple[int, ...]) -> int:
    """Lehmer-code rank of a permutation; the identity ranks 0.

    The rank counts permutations of the same size that precede `images`
    in lexicographic one-line order.
    """
    n = len(images)
    r = 0
    for i in range(n):
        smaller_after = sum(1 for j in range(i + 1, n) if images[j] < images[i])
        r += smaller_after * factorial(n - 1 - i)
    return r


def perm_unrank(rank: int, n: int) -> tuple[int, ...]:
    """Inverse of perm_rank for permutations of 0..n-1."""
    if not 0 <= rank < factorial(n):
        raise DomainError(f"rank {rank} out of range for n={n}")
    avail = list(range(n))
    out = []
    for i in range(n):
        q, rank = divmod(rank, factorial(n - 1 - i))
        out.append(avail.pop(q))
    return tuple(out)


def regular_rep(group, s: int) -> np.ndarray:
    """Permutation matrix of right translation, R(s)|g> = |g s^-1>."""
    group.check_index(s)
    rows = group.translate(group.inverse(s))
    M = np.zeros((group.order, group.order))
    M[rows, np.arange(group.order)] = 1.0
    return M


def shift_pair_vector(group, s: int, g: int) -> np.ndarray:
    """Unit vector (|0,g> + |1,g*s>)/sqrt(2) in the 2|G| dense basis."""
    group.check_index(s)
    group.check_index(g)
    N = group.order
    v = np.zeros(2 * N)
    v[g] = 1.0 / np.sqrt(2.0)
    v[N + group.compose(g, s)] = 1.0 / np.sqrt(2.0)
    return v


def mixed_state_blocks(group, copies: int = 1) -> ShiftState:
    """The no-shift k-copy state in block form: an identity block of
    multiplicity prod d_j for every irrep tuple."""
    blocks = {}
    for reps in product(irreps(group), repeat=copies):
        labels = tuple(r.label for r in reps)
        D = prod(r.dim for r in reps)
        blocks[labels] = Block(labels, np.eye((2 ** copies) * D), D)
    return ShiftState(group, copies, "no-shift", "block", blocks=blocks)


def single_copy_dense(group, s: int) -> np.ndarray:
    """[[I, R(s)], [R(s^-1), I]] / (2|G|) written as its 4|G| nonzeros."""
    N = group.order
    out = np.zeros((2 * N, 2 * N))
    out[_single_copy_positions(group, s)] = 1.0 / (2.0 * N)
    return out


def shift_state_dense_kron(group, s: int, copies: int) -> np.ndarray:
    """The dense k-copy state for shift s as a left-folded Kronecker power."""
    return reduce(np.kron, [single_copy_dense(group, s)] * copies)


def averaged_shift_state_dense_kron(group, copies: int) -> np.ndarray:
    """The dense k-copy averaged state: the Kronecker powers summed over the
    shifts in index order, then divided by |G|."""
    dim = (2 * group.order) ** copies
    acc = np.zeros((dim, dim))
    for s in group.elements():
        acc += shift_state_dense_kron(group, s, copies)
    return acc / group.order


def _pad_identity(out: np.ndarray, dims: list[int], exponents, avg: np.ndarray) -> None:
    """Write avg, the average over the factors with a nonzero exponent, into the
    zeroed D x D matrix out as the full product with identity factors where
    the exponent is zero.

    Only the diagonal of the identity factors is written, so every other
    entry stays +0.0 whatever the sign of avg.
    """
    k = len(exponents)
    nz = [j for j, e in enumerate(exponents) if e]
    zero = [j for j, e in enumerate(exponents) if not e]
    rows = _LETTERS[:k]
    cols = "".join(_LETTERS[k + j] if e else rows[j] for j, e in enumerate(exponents))
    kept = "".join([rows[j] for j in nz] + [cols[j] for j in nz] + [rows[j] for j in zero])
    diagonal = np.einsum(f"{rows}{cols}->{kept}", out.reshape(dims * 2))
    nz_dims = [d for d, e in zip(dims, exponents) if e]
    diagonal[...] = avg.reshape(nz_dims * 2 + [1] * (len(dims) - len(nz_dims)))


def averaged_block_per_pattern(reps, memo: dict) -> np.ndarray:
    """The averaged block of an irrep tuple, each of its 3^k patterns padded
    with identity factors and placed into its cells by one gather.

    A pattern's average is read from the sign-stacked seeds of the scans'
    memo, the (2, ..., 2, D_S, D_S) array under the labels of its nonzero
    factors S, at the sign bits [e_j = 1]; else it is taken by its own
    _average_product, and stored in memo under the pattern when it has fewer
    than k nonzero factors, as in the scans."""
    k, labels, dims = len(reps), tuple(r.label for r in reps), [r.dim for r in reps]
    D = prod(dims)
    patterns = list(product((-1, 0, 1), repeat=k))
    avgs = []
    for z in patterns:
        nz = [j for j in range(k) if z[j]]
        seeded = memo.get(tuple(labels[j] for j in nz))
        key = ("pattern", *((labels[j], z[j]) for j in nz))
        if seeded is not None:
            avg = seeded[tuple((z[j] + 1) // 2 for j in nz)]
        elif (avg := memo.get(key)) is None:
            avg = _average_product([reps[j] for j in nz], [z[j] for j in nz])
            if len(nz) < k:
                memo[key] = avg
        avgs.append(avg)
    parts = np.zeros((3 ** k, D, D), dtype=np.result_type(np.float64, *(a.dtype for a in avgs)))
    for zi, (z, avg) in enumerate(zip(patterns, avgs)):
        if all(z):
            parts[zi] = avg
        else:
            _pad_identity(parts[zi], dims, z, avg)
    # cell (x, y) of the block is the part with exponents y - x, at index
    # sum_j (y_j - x_j + 1) 3^(k-1-j) in patterns
    f = _bit_tuples(k) @ 3 ** np.arange(k - 1, -1, -1)
    cells = f[None, :] - f[:, None] + (3 ** k - 1) // 2
    return parts[cells].transpose(0, 2, 1, 3).reshape((2 ** k) * D, (2 ** k) * D)


def cluster_per_eigenvalue(desc: np.ndarray) -> list[tuple[float, int]]:
    """(mean, size) of each run of descending eigenvalues whose steps are at
    most CLUSTER_TOL, one eigenvalue at a time."""
    out = []
    start = 0
    for i in range(1, len(desc) + 1):
        if i == len(desc) or desc[i - 1] - desc[i] > CLUSTER_TOL:
            chunk = desc[start:i]
            out.append((float(chunk.mean()), len(chunk)))
            start = i
    return out


def refine_povm(effects, labels=None) -> Povm:
    """Split arbitrary positive effects into weighted rank-one outcomes.

    Input effects must be finite Hermitian positive and sum to the identity
    within 1e-8. Each effect is eigendecomposed; eigenvalues above 1e-10 become
    outcome weights, largest first, labelled (effect label, slot).
    """
    effects = [np.asarray(E) for E in effects]
    if not effects or any(E.ndim != 2 or not E.size for E in effects):
        raise DomainError("at least one effect is required, each a nonempty 2-D array")
    d = effects[0].shape[0]
    if labels is None:
        labels = list(range(len(effects)))
    total = np.zeros((d, d), dtype=np.complex128)
    for E in effects:
        if E.shape != (d, d):
            raise DomainError("effects must share one dimension")
        if not np.isfinite(E).all() or np.max(np.abs(E - E.conj().T)) > 1e-10:
            raise DomainError("effects must be finite and Hermitian")
        total += E
    if np.max(np.abs(total - np.eye(d))) > 1e-8:
        raise DomainError("effects must sum to the identity")
    weights = []
    vectors = []
    out_labels = []
    for lab, E in zip(labels, effects):
        w, V = np.linalg.eigh(E)
        if w.min() < -1e-10:
            raise DomainError(f"effect {lab!r} is not positive semidefinite")
        for slot, idx in enumerate(np.argsort(w)[::-1]):
            if w[idx] <= 1e-10:
                break
            weights.append(float(w[idx]))
            vectors.append(V[:, idx])
            out_labels.append((lab, slot))
    return Povm(np.array(weights), np.array(vectors), tuple(out_labels))
