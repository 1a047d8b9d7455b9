"""Hidden-shift instances built from graph isomorphism.

A rigid graph (trivial automorphism group) makes g -> encoding of g applied
to the graph an injective function on the symmetric group. Two rigid graphs
give a pair of injective oracles that either differ by a right translation
(the graphs are isomorphic, and the translation is the hidden shift) or
have disjoint ranges. This module provides the graph type, rigidity and
isomorphism checks by exhaustive search, a corpus of rigid graphs by
size, oracle construction, a brute-force shift finder, and the
mixed quantum state an oracle pair induces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import CapacityError, ConsistencyError, DomainError
from .groups import Group, symmetric_group
from .states import (
    ShiftState,
    _guard_dense,
    _require_density,
    _single_copy_positions,
    _stack_verdicts,
)

MAX_RIGID_CHECK_N = 8
MAX_ORACLE_N = 6


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with optional vertex colors."""

    n: int
    edges: tuple
    colors: tuple | None = None

    def encode(self) -> bytes:
        """Canonical byte encoding; injective on graphs with n <= 8."""
        if self.n > 8:
            raise CapacityError("byte encoding supports at most 8 vertices")
        out = [self.n, 1 if self.colors is not None else 0]
        if self.colors is not None:
            out.extend(self.colors)
        out.append(len(self.edges))
        out.extend(u * 8 + v for u, v in self.edges)
        return bytes(out)


def graph(n: int, edges, colors=None) -> Graph:
    """Validated constructor; edges are unordered pairs of 0-based vertices."""
    if n < 1:
        raise DomainError("graph needs at least one vertex")
    canon = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge {e!r} leaves the vertex range")
        if u == v:
            raise DomainError(f"loop at vertex {u} is not allowed")
        canon.add((min(u, v), max(u, v)))
    if colors is not None:
        colors = tuple(int(c) for c in colors)
        if len(colors) != n:
            raise DomainError("need one color per vertex")
        if any(not 0 <= c < 256 for c in colors):
            raise DomainError("colors must be bytes (0..255)")
    return Graph(n, tuple(sorted(canon)), colors)


def graph_act(images, A: Graph) -> Graph:
    """Relabel vertices: vertex v becomes images[v], colors travel with vertices."""
    if len(images) != A.n or sorted(images) != list(range(A.n)):
        raise DomainError("images must be a permutation of the vertices")
    edges = tuple(
        sorted(
            (min(images[u], images[v]), max(images[u], images[v])) for u, v in A.edges
        )
    )
    colors = None
    if A.colors is not None:
        moved = [0] * A.n
        for v in range(A.n):
            moved[images[v]] = A.colors[v]
        colors = tuple(moved)
    return Graph(A.n, edges, colors)


def automorphism_witness(A: Graph):
    """First non-identity relabeling fixing the graph, or None if rigid."""
    if A.n > MAX_RIGID_CHECK_N:
        raise CapacityError(f"exhaustive rigidity check limited to n <= {MAX_RIGID_CHECK_N}")
    identity = tuple(range(A.n))
    base = graph_act(identity, A)  # edges sorted, as every relabeling's are
    for p in permutations(range(A.n)):
        if p != identity and graph_act(p, A) == base:
            return p
    return None


def is_rigid(A: Graph) -> bool:
    return automorphism_witness(A) is None


def are_isomorphic(A: Graph, B: Graph):
    """Exhaustive isomorphism search; returns the relabeling or None."""
    if A.n != B.n:
        return None
    if A.n > MAX_RIGID_CHECK_N:
        raise CapacityError(f"exhaustive isomorphism check limited to n <= {MAX_RIGID_CHECK_N}")
    if len(A.edges) != len(B.edges):
        return None
    for p in permutations(range(A.n)):
        if graph_act(p, A) == B:
            return p
    return None


# ---------------------------------------------------------------------------
# rigid graph corpus (uncolored)


def rigid_corpus(n: int, count: int) -> list[Graph]:
    """First `count` rigid graphs on n vertices, by ascending edge mask."""
    if not 1 <= n <= 6:
        raise CapacityError("rigid corpus covers 1 <= n <= 6")
    pairs = list(combinations(range(n), 2))
    found = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[e] for e in range(len(pairs)) if (mask >> e) & 1]
        A = graph(n, edges)
        if is_rigid(A):
            found.append(A)
            if len(found) == count:
                return found
    if len(found) < count:
        raise DomainError(f"only {len(found)} rigid graphs exist on {n} vertices")
    return found


# ---------------------------------------------------------------------------
# text format


def parse_graph_text(text: str) -> Graph:
    """Parse the on-disk graph format.

    First meaningful line is the vertex count; each following line is an
    edge as two 1-based vertex numbers; an optional line "colors: c1 ... cn"
    assigns vertex colors. Blank lines and lines starting with # are
    ignored.
    """
    n = None
    edges = []
    colors = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        is_colors = line.lower().startswith("colors:")
        try:
            nums = [int(tok) for tok in (line.split(":", 1)[1] if is_colors else line).split()]
        except ValueError:
            raise DomainError(f"expected integers in graph line {line!r}") from None
        if is_colors:
            colors = nums
            continue
        if n is None:
            if len(nums) != 1:
                raise DomainError(f"expected a vertex count, got {line!r}")
            n = nums[0]
            continue
        if len(nums) != 2:
            raise DomainError(f"expected an edge line 'u v', got {line!r}")
        u, v = nums
        if not (1 <= u and 1 <= v):
            raise DomainError("vertices in graph files are 1-based")
        edges.append((u - 1, v - 1))
    if n is None:
        raise DomainError("graph text must start with a vertex count")
    return graph(n, edges, colors)


def format_graph(A: Graph) -> str:
    lines = [str(A.n)]
    lines.extend(f"{u + 1} {v + 1}" for u, v in A.edges)
    if A.colors is not None:
        lines.append("colors: " + " ".join(str(c) for c in A.colors))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# oracles


@dataclass(frozen=True)
class ShiftOraclePair:
    """Two injective functions on a group, given as value tables.

    outputs_first[g] and outputs_second[g] are the oracle values at element
    index g. The hidden-shift promise holds when the second table is a
    right translation of the first: outputs_second[g] == outputs_first[g*s].
    """

    group: Group
    outputs_first: tuple
    outputs_second: tuple


def make_shift_oracles(A: Graph, B: Graph) -> ShiftOraclePair:
    """Oracle tables g -> encoding of g applied to each graph.

    Both graphs must be rigid, which is exactly when their tables are
    injective: a graph whose table repeats the identity's value at some g > 0
    raises DomainError naming the first such g as an automorphism witness.
    """
    if A.n != B.n:
        raise DomainError("graphs must have the same number of vertices")
    if A.n > MAX_ORACLE_N:
        raise CapacityError(f"oracle construction limited to n <= {MAX_ORACLE_N}")
    G = symmetric_group(A.n)
    tables = []
    for name, g0 in (("first", A), ("second", B)):
        table = tuple(graph_act(G.perm(g), g0).encode() for g in G.elements())
        # g -> g.A is injective exactly when only the identity (index 0) fixes A
        witness = next((g for g in range(1, G.order) if table[g] == table[0]), None)
        if witness is not None:
            raise DomainError(
                f"{name} graph is not rigid: automorphism {G.perm(witness)} fixes it"
            )
        tables.append(table)
    return ShiftOraclePair(G, *tables)


def find_shift_bruteforce(pair: ShiftOraclePair):
    """Recover s with outputs_second[g] == outputs_first[g*s], scanning once.

    Returns the element index of s, or None when the two ranges are
    disjoint. Any partial overlap or disagreement between group elements
    breaks the promise and raises ConsistencyError.
    """
    G = pair.group
    position_first = {y: g for g, y in enumerate(pair.outputs_first)}
    if len(position_first) != G.order:
        raise ConsistencyError("first oracle table is not injective")
    second = pair.outputs_second
    hits = [(g, position_first[y]) for g, y in enumerate(second) if y in position_first]
    if not hits:
        return None
    g, h = np.array(hits).T
    candidates = G.compose(G.inverse_vector()[g], h)
    if np.any(candidates != candidates[0]):
        raise ConsistencyError("oracle tables disagree about the shift")
    if len(hits) != G.order:
        raise ConsistencyError("oracle ranges overlap only partially")
    return int(candidates[0])


def _oracle_blocks(pair: ShiftOraclePair) -> list[tuple[np.ndarray, np.ndarray]]:
    """The one-copy oracle state as (index, stack) pairs, in the form
    states._pattern_blocks yields: each oracle value y is one all-ones
    block over the basis states (x, g) with table_x[g] == y, scaled by 1/(2|G|).

    index is a (count, size) array of ascending positions (x |G| + g), one row
    per value, and stack the (count, size, size) blocks; sizes ascend, and the
    blocks of one size come in the order of their first position.
    """
    N = pair.group.order
    positions: dict[bytes, list[int]] = {}
    for g, y in enumerate(pair.outputs_first):
        positions.setdefault(y, []).append(g)
    for g, y in enumerate(pair.outputs_second):
        positions.setdefault(y, []).append(N + g)
    by_size: dict[int, list[list[int]]] = {}
    for pos in positions.values():
        by_size.setdefault(len(pos), []).append(pos)
    blocks = []
    for size in sorted(by_size):
        index = np.array(by_size[size], dtype=np.int64)
        blocks.append((index, np.ones((len(index), size, size)) / (2 * N)))
    return blocks


def states_from_oracles(pair: ShiftOraclePair, copies: int = 1) -> ShiftState:
    """Mixed state of the standard oracle preparation, averaged over values.

    Each oracle value y contributes the uniform superposition of the basis
    states (x, g) with table_x[g] == y. Isomorphic instances reproduce the
    averaged-base-point state of the shift carrying the second table onto
    the first; disjoint ranges give the maximally mixed state.
    """
    if copies < 1:
        raise DomainError("copies must be positive")
    _guard_dense(pair.group, copies)
    dim = 2 * pair.group.order
    M = np.zeros((dim, dim))
    for index, stack in _oracle_blocks(pair):
        M[index[:, :, None], index[:, None, :]] = stack
    dense = M
    for _ in range(copies - 1):
        dense = np.kron(dense, M)
    state = ShiftState(
        group=pair.group,
        copies=copies,
        variant="from-oracles",
        form="dense",
        shift=None,
        dense=dense,
        blocks=None,
    )
    state.validate()
    return state


def check_oracle_state(pair: ShiftOraclePair, shift: int | None) -> tuple[float, float]:
    """Validate the one-copy oracle state and compare it with its reference
    form, one connected block at a time, without a (2|G|)^2 matrix.

    The blocks get the checks and tolerances of ShiftState.validate
    (ConsistencyError on failure). The reference is the maximally mixed state
    when shift is None, else the fixed-shift state of the inverse of shift.
    Returns the trace and max |state - reference|, taken over the union of
    the two states' nonzero positions: both are zero everywhere else.
    """
    G = pair.group
    dim = 2 * G.order
    blocks = _oracle_blocks(pair)
    diagonal = np.zeros(dim)  # in dense order, so its sum rounds as np.trace does
    for index, stack in blocks:
        diagonal[index] = stack.diagonal(axis1=1, axis2=2)
    trace = float(diagonal.sum())
    _require_density(_stack_verdicts((stack for _, stack in blocks), 1e-12, 1e-10), trace, "oracle state")
    if shift is None:
        rows = cols = np.arange(dim)
        value = 1.0 / dim
    else:
        rows, cols = _single_copy_positions(G, G.inverse(shift))
        value = 1.0 / (2.0 * G.order)
    keys = [rows * dim + cols]
    entries = [np.full(len(rows), -value)]
    for index, stack in blocks:
        keys.append((index[:, :, None] * dim + index[:, None, :]).ravel())
        entries.append(stack.ravel())
    # bincount adds in input order from 0.0, so a shared position gets
    # (0.0 - reference) + state, which rounds as state - reference does
    _, slot = np.unique(np.concatenate(keys), return_inverse=True)
    deviation = float(np.max(np.abs(np.bincount(slot.ravel(), np.concatenate(entries)))))
    return trace, deviation
