"""Finite groups with dense 0-based element indexing.

Two families are supported: symmetric groups S_n (elements are one-line
permutations addressed by Lehmer-code rank) and finite abelian groups
Z_N1 x ... x Z_Nm (elements are digit tuples addressed in mixed radix,
leftmost digit most significant). Index 0 is the identity in both families.

Composition convention everywhere: (g * h)(i) = g(h(i)).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import permutations
from math import factorial, prod

import numpy as np

from .errors import CapacityError, ConsistencyError, DomainError

MAX_SYMMETRIC_N = 8
MAX_ABELIAN_ORDER = 4096

# compose tables are built only below this order
_TABLE_LIMIT = 2048


# ---------------------------------------------------------------------------
# permutation helpers (0-based one-line notation as tuples)


def check_perm(images: tuple[int, ...]) -> None:
    n = len(images)
    if sorted(images) != list(range(n)):
        raise DomainError(f"not a permutation of 0..{n - 1}: {images!r}")


def adjacent_transposition_word(images: tuple[int, ...]) -> list[int]:
    """Decompose a permutation into adjacent transpositions.

    Returns positions p (0-based, swapping p and p+1) such that composing
    the transpositions left to right in the returned order yields `images`.
    """
    w = list(images)
    applied: list[int] = []
    # bubble sort w to the identity by right-multiplication with s_p,
    # which swaps the one-line entries at positions p and p+1
    changed = True
    while changed:
        changed = False
        for p in range(len(w) - 1):
            if w[p] > w[p + 1]:
                w[p], w[p + 1] = w[p + 1], w[p]
                applied.append(p)
                changed = True
    # w * s_{a1} * ... * s_{am} = id, hence images = s_{am} * ... * s_{a1}
    return applied[::-1]


# ---------------------------------------------------------------------------


class Group:
    """A finite group whose elements are the indices 0..order-1.

    Every element is stored once, as one row of the read-only `rows` array,
    and all arithmetic runs on those rows, for one element or for many.
    Construct through symmetric_group / abelian_group / parse_group rather
    than directly.
    """

    def __init__(self, kind: str, degree_or_moduli):
        if kind == "symmetric":
            n = degree_or_moduli
            if n < 1:
                raise DomainError(f"symmetric degree must be positive, got {n}")
            if n > MAX_SYMMETRIC_N:
                raise CapacityError(
                    f"symmetric degree {n} exceeds the supported bound {MAX_SYMMETRIC_N}"
                )
            self.kind = "symmetric"
            self.degree = n
            self.moduli: tuple[int, ...] | None = None
            self.order = factorial(n)
            self.descriptor = f"S{n}"
            self._place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        elif kind == "abelian":
            moduli = tuple(int(m) for m in degree_or_moduli)
            if not moduli or any(m < 1 for m in moduli):
                raise DomainError(f"abelian moduli must be positive integers, got {moduli}")
            if prod(moduli) > MAX_ABELIAN_ORDER:
                raise CapacityError(
                    f"abelian order {prod(moduli)} exceeds the supported bound {MAX_ABELIAN_ORDER}"
                )
            self.kind = "abelian"
            self.degree = None
            self.moduli = moduli
            self.order = prod(moduli)
            self.descriptor = "x".join(f"Z{m}" for m in moduli)
            self._moduli = np.array(moduli, dtype=np.int64)
            self._place = np.cumprod((1,) + moduli[:0:-1])[::-1]
        else:
            raise DomainError(f"unknown group kind {kind!r}")
        self._rows: np.ndarray | None = None
        self._codes: np.ndarray | None = None
        self._inverse_vec: np.ndarray | None = None

    # -- identity / iteration ------------------------------------------------

    @property
    def identity(self) -> int:
        return 0

    @property
    def is_abelian(self) -> bool:
        return self.kind == "abelian"

    def elements(self) -> range:
        return range(self.order)

    def check_index(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise DomainError(f"element index {a} out of range for {self.descriptor}")

    @property
    def rows(self) -> np.ndarray:
        """Read-only (order, width) int64 array; row a describes element a.

        S_n: the one-line images, in lexicographic order, which is Lehmer
        rank order. Abelian: the digits, leftmost most significant.
        """
        if self._rows is None:
            if self.kind == "symmetric":
                rows = np.array(list(permutations(range(self.degree))), dtype=np.int64)
            else:
                rows = np.arange(self.order)[:, None] // self._place % self._moduli
            rows.setflags(write=False)
            self._rows = rows
        return self._rows

    def _index(self, rows: np.ndarray) -> np.ndarray:
        """Element indices of rows (any leading shape)."""
        codes = rows @ self._place
        if self.kind == "abelian":
            return codes
        if self._codes is None:
            # base-n codes of the rows; lexicographic order keeps them ascending
            self._codes = self.rows @ self._place
        return np.searchsorted(self._codes, codes)

    # -- element views -------------------------------------------------------

    def perm(self, a: int) -> tuple[int, ...]:
        """One-line permutation for an S_n element index (0-based images)."""
        if self.kind != "symmetric":
            raise DomainError("perm() only applies to symmetric groups")
        self.check_index(a)
        return tuple(self.rows[a].tolist())

    def index_of_perm(self, images: tuple[int, ...]) -> int:
        if self.kind != "symmetric":
            raise DomainError("index_of_perm() only applies to symmetric groups")
        if len(images) != self.degree:
            raise DomainError(f"expected a permutation of {self.degree} points")
        check_perm(images)
        return int(self._index(np.array(images, dtype=np.int64)))

    def digits(self, a: int) -> tuple[int, ...]:
        """Digit tuple of an abelian element (mixed radix, leftmost major)."""
        if self.kind != "abelian":
            raise DomainError("digits() only applies to abelian groups")
        self.check_index(a)
        return tuple(self.rows[a].tolist())

    def index_of_digits(self, digits: tuple[int, ...]) -> int:
        if self.kind != "abelian":
            raise DomainError("index_of_digits() only applies to abelian groups")
        if len(digits) != len(self.moduli):
            raise DomainError(f"expected {len(self.moduli)} digits")
        for d, m in zip(digits, self.moduli):
            if not 0 <= d < m:
                raise DomainError(f"digit {d} out of range mod {m}")
        return int(self._index(np.array(digits, dtype=np.int64)))

    def element_name(self, a: int) -> str:
        if self.kind == "symmetric":
            return "(" + ",".join(str(v + 1) for v in self.perm(a)) + ")"
        return "(" + ",".join(str(d) for d in self.digits(a)) + ")"

    # -- arithmetic ----------------------------------------------------------

    def compose(self, a: int | np.ndarray, b: int | np.ndarray) -> int | np.ndarray:
        """Index of the product a*b under (a*b)(i) = a(b(i)).

        Takes two element indices (checked; returns an int) or index arrays
        that broadcast together (returns an array of that shape).
        """
        scalar = np.ndim(a) == 0 and np.ndim(b) == 0
        if scalar:
            self.check_index(a)
            self.check_index(b)
        rows = self.rows
        ra, rb = rows[a], rows[b]
        if self.kind == "symmetric":
            product = np.take_along_axis(*np.broadcast_arrays(ra, rb), axis=-1)
        else:
            product = (ra + rb) % self._moduli
        out = self._index(product)
        return int(out) if scalar else out

    def inverse(self, a: int) -> int:
        self.check_index(a)
        return int(self.inverse_vector()[a])

    def translate(self, s: int) -> np.ndarray:
        """Vector t with t[g] = index of g*s, for all g at once."""
        self.check_index(s)
        return self.compose(np.arange(self.order), s)

    def inverse_vector(self) -> np.ndarray:
        """Vector v with v[g] = index of g^-1."""
        if self._inverse_vec is None:
            if self.kind == "symmetric":
                inverse_rows = np.argsort(self.rows, axis=1)
            else:
                inverse_rows = -self.rows % self._moduli
            self._inverse_vec = self._index(inverse_rows)
        return self._inverse_vec

    def compose_table(self) -> np.ndarray:
        """Dense multiplication table; guarded to order <= 2048."""
        if self.order > _TABLE_LIMIT:
            raise CapacityError(
                f"compose table for |G|={self.order} exceeds the {_TABLE_LIMIT} limit"
            )
        g = np.arange(self.order)
        return self.compose(g[:, None], g[None, :])

    # -- comparison ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Group({self.descriptor})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Group) and other.descriptor == self.descriptor

    def __hash__(self) -> int:
        return hash(self.descriptor)


def symmetric_group(n: int) -> Group:
    return Group("symmetric", n)


def abelian_group(*moduli: int) -> Group:
    if len(moduli) == 1 and isinstance(moduli[0], (tuple, list)):
        moduli = tuple(moduli[0])
    return Group("abelian", moduli)


_GROUP_RE = re.compile(r"^(s(\d+)|z\d+(?:xz\d+)*)$")


def parse_group(text: str) -> Group:
    """Parse descriptors like "S5", "Z4" or "Z2xZ2xZ3" (case-insensitive)."""
    cleaned = text.strip().lower().replace(" ", "")
    m = _GROUP_RE.match(cleaned)
    if m is None:
        raise DomainError(
            f"cannot parse group descriptor {text!r}; expected forms: S5, Z4, Z2xZ2xZ3"
        )
    if cleaned.startswith("s"):
        return symmetric_group(int(m.group(2)))
    moduli = tuple(int(part[1:]) for part in cleaned.split("x"))
    return abelian_group(moduli)


# ---------------------------------------------------------------------------
# subgroup embeddings


@dataclass
class SubgroupEmbedding:
    """Injective homomorphism of `subgroup` into `parent` plus coset data.

    injection[h] is the parent index of the image of subgroup element h.
    transversal lists left-coset representatives; every parent element
    factors uniquely as transversal[t] * injection[h].
    """

    parent: Group
    subgroup: Group
    injection: tuple[int, ...]
    transversal: tuple[int, ...] = field(default=())

    def __post_init__(self):
        G, H = self.parent, self.subgroup
        if len(self.injection) != H.order or len(set(self.injection)) != H.order:
            raise DomainError("injection must list one distinct parent index per subgroup element")
        for g in (*self.injection, *self.transversal):
            G.check_index(g)
        if G.order % H.order != 0:
            raise ConsistencyError("subgroup order does not divide parent order")
        inj = np.array(self.injection, dtype=np.int64)
        h = np.arange(H.order)
        broken = np.argwhere(inj[H.compose(h[:, None], h)] != G.compose(inj[:, None], inj))
        if broken.size:
            a, b = broken[0]
            raise ConsistencyError(f"injection is not a homomorphism at ({a},{b})")
        if not self.transversal:
            self.transversal = self._greedy_transversal(inj)
        if len(self.transversal) != G.order // H.order:
            raise DomainError("transversal size must be the subgroup index")
        products = G.compose(np.array(self.transversal)[:, None], inj).ravel()
        if np.unique(products).size != G.order:
            raise ConsistencyError("transversal does not give unique factorization")

    def _greedy_transversal(self, inj: np.ndarray) -> tuple[int, ...]:
        """The smallest element of each left coset g * iota(H), ascending."""
        G = self.parent
        g = np.arange(G.order)
        smallest = G.compose(g[:, None], inj).min(axis=1)
        return tuple(np.flatnonzero(smallest == g).tolist())


def abelian_subgroup_of_symmetric(n: int, cycle_type: tuple[int, ...]) -> SubgroupEmbedding:
    """Embed a product of cyclic groups into S_n via disjoint cycles.

    cycle_type must be a partition of n (parts >= 1, any order accepted).
    Part i becomes a cycle on a block of consecutive points, so the image
    is the abelian group Z_part1 x Z_part2 x ... of order prod(parts).
    """
    parts = tuple(int(p) for p in cycle_type)
    if any(p < 1 for p in parts) or sum(parts) != n:
        raise DomainError(f"cycle type {cycle_type!r} is not a partition of {n}")
    G = symmetric_group(n)
    H = abelian_group(parts)
    offsets = []
    off = 0
    for p in parts:
        offsets.append(off)
        off += p
    injection = []
    for h in H.elements():
        digits = H.digits(h)
        images = list(range(n))
        for off, p, d in zip(offsets, parts, digits):
            for j in range(p):
                images[off + j] = off + (j + d) % p
        injection.append(G.index_of_perm(tuple(images)))
    return SubgroupEmbedding(G, H, tuple(injection))


def abelian_subgroup_of_abelian(parent: Group, orders: tuple[int, ...]) -> SubgroupEmbedding:
    """Embed prod Z_orders[i] into an abelian parent, componentwise.

    orders[i] must divide the parent modulus N_i; digit d maps to
    d * (N_i // orders[i]) in component i.
    """
    if not parent.is_abelian:
        raise DomainError("parent must be abelian")
    orders = tuple(int(m) for m in orders)
    if len(orders) != len(parent.moduli):
        raise DomainError("one order per parent component is required")
    for m, n in zip(orders, parent.moduli):
        if m < 1 or n % m != 0:
            raise DomainError(f"subgroup order {m} does not divide modulus {n}")
    H = abelian_group(orders)
    injection = []
    for h in H.elements():
        digits = H.digits(h)
        image = tuple(d * (n // m) for d, m, n in zip(digits, orders, parent.moduli))
        injection.append(parent.index_of_digits(image))
    return SubgroupEmbedding(parent, H, tuple(injection))


# ---------------------------------------------------------------------------
# partitions and the largest abelian subgroup order


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise DomainError("partitions of a negative integer requested")
    if n == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for first in range(min(cap, remaining), 0, -1):
            rec(remaining - first, first, prefix + (first,))

    rec(n, n, ())
    return out

