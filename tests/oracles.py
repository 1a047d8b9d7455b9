"""Reference permutation arithmetic on one-line tuples, for the tests.

`Group.rows` is the package's one representation of S_n elements; these
tuple functions are the independent references its composition, inverse
and Lehmer-rank indexing are checked against.
"""

from math import factorial

from hslab.errors import DomainError


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
