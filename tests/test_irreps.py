"""Irreducible representations, the Fourier transform, and the matrix cache."""

from math import factorial

import numpy as np
import pytest

from hslab.errors import CapacityError, ConsistencyError, DomainError
from hslab.groups import abelian_group, partitions, symmetric_group
from hslab import irrep_cache
from hslab.irreps import (
    FourierTransform,
    Irrep,
    _validate_fourier,
    fourier,
    irreps,
    plancherel,
    standard_tableaux,
    young_generator_matrices,
)
from oracles import compose_perms, perm_rank, perm_unrank, regular_rep


def hook_length_dimension(shape):
    """Independent dimension count: n! over the product of hook lengths."""
    cols = [0] * (shape[0] if shape else 0)
    for row_len in shape:
        for c in range(row_len):
            cols[c] += 1
    n = sum(shape)
    denom = 1
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            denom *= (row_len - c) + (cols[c] - r) - 1
    return factorial(n) // denom


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dimensions_match_hook_lengths(n):
    G = symmetric_group(n)
    reps = irreps(G)
    assert [r.dim for r in reps] == [hook_length_dimension(p) for p in partitions(n)]
    assert sum(r.dim ** 2 for r in reps) == G.order


def test_known_dimension_tables():
    assert [r.dim for r in irreps(symmetric_group(3))] == [1, 2, 1]
    assert [r.dim for r in irreps(symmetric_group(4))] == [1, 3, 2, 3, 1]
    assert [r.dim for r in irreps(symmetric_group(5))] == [1, 4, 5, 6, 5, 4, 1]


def test_canonical_order_starts_with_trivial():
    for G in (symmetric_group(4), abelian_group(3, 4)):
        first = irreps(G)[0]
        assert first.is_trivial
        for a in G.elements():
            assert np.allclose(first.matrix(a), [[1.0]])


def test_standard_tableaux_count_and_order():
    tabs = standard_tableaux((2, 1))
    assert len(tabs) == 2
    # sorted by row word
    words = [sum(t, ()) for t in tabs]
    assert words == sorted(words)


def test_young_generators_are_orthogonal_involutions():
    for shape in ((2, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2)):
        for M in young_generator_matrices(shape):
            assert np.allclose(M, M.T, atol=1e-12)
            assert np.allclose(M @ M, np.eye(M.shape[0]), atol=1e-12)


def test_s3_two_dimensional_matrices_by_hand():
    G = symmetric_group(3)
    rep = irreps(G)[1]
    s1 = G.index_of_perm((1, 0, 2))
    s2 = G.index_of_perm((0, 2, 1))
    assert np.allclose(rep.matrix(s1), [[1.0, 0.0], [0.0, -1.0]], atol=1e-12)
    r3 = np.sqrt(3.0) / 2.0
    assert np.allclose(rep.matrix(s2), [[-0.5, r3], [r3, 0.5]], atol=1e-12)


@pytest.mark.parametrize("G", [symmetric_group(4), abelian_group(2, 4)], ids=lambda g: g.descriptor)
def test_homomorphism_exhaustive(G):
    table = G.compose_table()
    for rep in irreps(G):
        stack = rep.stack()
        for a in G.elements():
            lhs = stack[a] @ stack
            assert np.allclose(lhs, stack[table[a]], atol=1e-10)
        assert np.allclose(stack[G.identity], np.eye(rep.dim), atol=1e-12)


def queue_bfs_stack(rep):
    """Reference build: breadth-first search with a per-element queue on
    permutation tuples; each element's matrix is its parent's times the
    first generator that reaches it."""
    n, order = rep.group.degree, rep.group.order
    gens = young_generator_matrices(rep.label)
    swaps = [tuple(range(p)) + (p + 1, p) + tuple(range(p + 2, n)) for p in range(n - 1)]
    stack = np.zeros((order, rep.dim, rep.dim))
    stack[0] = np.eye(rep.dim)
    done = {0}
    queue = [0]
    while queue:
        nxt = []
        for g in queue:
            for M, s in zip(gens, swaps):
                h = perm_rank(compose_perms(perm_unrank(g, n), s))
                if h not in done:
                    done.add(h)
                    stack[h] = stack[g] @ M
                    nxt.append(h)
        queue = nxt
    assert len(done) == order
    return stack


def level_bfs_stack(rep):
    """Reference build: the per-irrep level-by-level search, one batched
    product per generator and level, as it ran before the search order was
    shared by the irreps of a group."""
    G = rep.group
    gens, gen_idx = rep._generators()
    right = np.array([G.translate(s) for s in gen_idx], dtype=np.int64).reshape(-1, G.order)
    stack = np.zeros((G.order, rep.dim, rep.dim))
    stack[0] = np.eye(rep.dim)
    done = np.zeros(G.order, dtype=bool)
    done[0] = True
    level = np.zeros(1, dtype=np.int64)
    while level.size:
        reached = right[:, level].T.ravel()
        fresh = np.flatnonzero(~done[reached])
        _, first = np.unique(reached[fresh], return_index=True)
        pairs = fresh[np.sort(first)]
        parents, gen = level[pairs // len(gens)], pairs % len(gens)
        level = reached[pairs]
        done[level] = True
        for i, M in enumerate(gens):
            pick = gen == i
            stack[level[pick]] = stack[parents[pick]] @ M
    assert done.all()
    return stack


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_stacks_match_queue_bfs(n):
    for rep in irreps(symmetric_group(n)):
        built = Irrep(rep.group, rep.label, rep.dim).stack()
        assert built.tobytes() == queue_bfs_stack(rep).tobytes()
        assert built.tobytes() == level_bfs_stack(rep).tobytes()
    if n == 1:
        assert built.tolist() == [[[1.0]]]


@pytest.mark.parametrize("G", [symmetric_group(3), abelian_group((4,))], ids=["S3", "Z4"])
def test_matrix_index_checked_before_and_after_stack(G):
    rep = irreps(G)[-1]
    fresh = Irrep(G, rep.label, rep.dim)
    for built in (False, True):
        if built:
            fresh.stack()
        for bad in (-1, G.order):
            with pytest.raises(DomainError):
                fresh.matrix(bad)
        assert np.array_equal(fresh.matrix(G.order - 1), rep.stack()[G.order - 1])


def test_symmetric_matrices_real_orthogonal():
    for rep in irreps(symmetric_group(5)):
        stack = rep.stack()
        assert stack.dtype == np.float64
        prods = np.einsum("gij,gkj->gik", stack, stack)
        assert np.allclose(prods, np.eye(rep.dim), atol=1e-10)


def test_abelian_characters_are_phases():
    G = abelian_group(2, 4)
    digits = np.array([G.digits(a) for a in G.elements()])
    for rep in irreps(G):
        w = np.array(rep.label)
        expected = np.exp(2j * np.pi * (digits @ (w / np.array([2, 4]))))
        assert np.allclose(rep.stack()[:, 0, 0], expected, atol=1e-12)


@pytest.mark.parametrize("G", [symmetric_group(3), symmetric_group(4)], ids=lambda g: g.descriptor)
def test_schur_orthogonality(G):
    reps = irreps(G)
    N = G.order
    for r1 in reps:
        for r2 in reps:
            stacked = np.einsum("gij,gkl->ijkl", r1.stack(), np.conj(r2.stack()))
            if r1.label != r2.label:
                assert np.max(np.abs(stacked)) < 1e-9
            else:
                d = r1.dim
                expected = (N / d) * np.einsum(
                    "ik,jl->ijkl", np.eye(d), np.eye(d)
                )
                assert np.allclose(stacked, expected, atol=1e-9)


def test_plancherel_exact():
    dist = plancherel(symmetric_group(4))
    assert sum(dist.values()) == 1
    from fractions import Fraction

    assert dist[(3, 1)] == Fraction(9, 24)
    assert dist[(4,)] == Fraction(1, 24)


def test_regular_rep_is_right_translation():
    G = symmetric_group(3)
    for s in G.elements():
        R = regular_rep(G, s)
        s_inv = G.inverse(s)
        for g in G.elements():
            target = G.compose(g, s_inv)
            col = R[:, g]
            assert col[target] == 1.0 and col.sum() == 1.0
    # homomorphism of the regular rep
    for s in G.elements():
        for t in G.elements():
            assert np.array_equal(
                regular_rep(G, s) @ regular_rep(G, t), regular_rep(G, G.compose(s, t))
            )


@pytest.mark.parametrize(
    "G",
    [symmetric_group(3), symmetric_group(4), abelian_group(2, 4)],
    ids=lambda g: g.descriptor,
)
def test_fourier_unitary_and_intertwining(G):
    F = fourier(G)
    N = G.order
    U = F.matrix
    assert np.max(np.abs(U @ U.conj().T - np.eye(N))) < 1e-12
    for s in G.elements():
        lhs = U @ regular_rep(G, s) @ U.conj().T
        blocks = []
        for rep in irreps(G):
            blocks.append(np.kron(np.eye(rep.dim), rep.matrix(s)))
        dim = 0
        worst = 0.0
        for rep, blk in zip(irreps(G), blocks):
            n = blk.shape[0]
            worst = max(worst, np.max(np.abs(lhs[dim : dim + n, dim : dim + n] - blk)))
            dim += n
        assert worst < 1e-9
        # off-block entries vanish
        full = np.zeros_like(lhs)
        dim = 0
        for blk in blocks:
            n = blk.shape[0]
            full[dim : dim + n, dim : dim + n] = blk
            dim += n
        assert np.max(np.abs(lhs - full)) < 1e-9


def test_fourier_row_layout():
    G = symmetric_group(3)
    F = fourier(G)
    rep = irreps(G)[1]
    offset = F.offsets[rep.label]
    stack = rep.stack()
    for i in range(rep.dim):
        for j in range(rep.dim):
            row = F.matrix[offset + i * rep.dim + j]
            expected = np.sqrt(rep.dim / G.order) * np.conj(stack[:, i, j])
            assert np.allclose(row, expected, atol=1e-12)


@pytest.mark.parametrize(
    "G",
    [symmetric_group(3), symmetric_group(6), abelian_group(2, 4)],
    ids=lambda g: g.descriptor,
)
def test_fourier_check_rejects_a_perturbed_matrix(G):
    ft = fourier(G)
    nudged = ft.matrix.copy()
    nudged[G.order // 2, 1] += 1e-6
    # an imaginary nudge to the real S_n matrix must take the complex product
    turned = ft.matrix.copy()
    turned[G.order // 2, 1] += 1e-6j
    swapped = ft.matrix.copy()
    swapped[:, [0, 1]] = swapped[:, [1, 0]]
    # a column swap keeps the matrix unitary; only the translation check sees it
    assert np.max(np.abs(swapped @ swapped.conj().T - np.eye(G.order))) < 1e-12
    for bad, match in ((nudged, "not unitary"), (turned, "not unitary"), (swapped, "intertwining")):
        with pytest.raises(ConsistencyError, match=match):
            _validate_fourier(FourierTransform(G, bad, ft.rows, ft.offsets), irreps(G))


def test_cache_round_trip(tmp_path):
    for n in range(1, 7):
        G = symmetric_group(n)
        records = [(r.name, r.stack()) for r in irreps(G)]
        path = irrep_cache.cache_path(tmp_path, G)
        irrep_cache.write_cache(path, G, records)
        loaded = irrep_cache.read_cache(path, G)
        assert loaded is not None and len(loaded) == len(records)
        for (name0, stack0), (name1, stack1) in zip(records, loaded):
            assert name0 == name1 and type(name1) is str
            assert stack1.dtype == stack0.dtype == np.float64
            assert stack1.tobytes() == stack0.tobytes()
        # rewriting produces identical bytes
        blob0 = open(path, "rb").read()
        irrep_cache.write_cache(path, G, records)
        assert open(path, "rb").read() == blob0


def test_cache_rejects_corruption(tmp_path):
    G = symmetric_group(4)
    records = [(r.name, r.stack()) for r in irreps(G)]
    path = irrep_cache.cache_path(tmp_path, G)
    irrep_cache.write_cache(path, G, records)
    blob = bytearray(open(path, "rb").read())
    blob[5] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    assert irrep_cache.read_cache(path, G) is None
    # wrong group
    irrep_cache.write_cache(path, G, records)
    assert irrep_cache.read_cache(path, symmetric_group(3)) is None
    # missing file
    assert irrep_cache.read_cache(str(tmp_path / "none.irr"), G) is None


@pytest.mark.parametrize("n", [3, 4])
def test_cache_rejects_every_byte_flip_and_truncation(tmp_path, n):
    G = symmetric_group(n)
    path = irrep_cache.cache_path(tmp_path, G)
    irrep_cache.write_cache(path, G, [(r.name, r.stack()) for r in irreps(G)])
    blob = open(path, "rb").read()
    accepted = []
    for i in range(len(blob)):
        flipped = bytearray(blob)
        flipped[i] ^= 0xFF
        for kind, bad in (("flip", bytes(flipped)), ("truncation", blob[:i])):
            with open(path, "wb") as fh:
                fh.write(bad)
            if irrep_cache.read_cache(path, G) is not None:
                accepted.append((kind, i))
    assert accepted == []


def test_cache_write_uses_its_own_temp_file(tmp_path):
    G = symmetric_group(3)
    records = [(r.name, r.stack()) for r in irreps(G)]
    path = irrep_cache.cache_path(tmp_path, G)
    # a leftover temp path of another writer must not block this one
    (tmp_path / "S3.irr.tmp").mkdir()
    irrep_cache.write_cache(path, G, records)
    assert irrep_cache.read_cache(path, G) is not None
    # a failed write leaves no temp file behind
    with pytest.raises(ValueError):
        irrep_cache.write_cache(path, G, [(None, records[0][1])])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["S3.irr", "S3.irr.tmp"]


def test_memoized_irreps_fill_a_new_cache_dir(tmp_path):
    G = symmetric_group(4)
    reps = irreps(G)
    assert irreps(G, cache_dir=tmp_path) is reps
    loaded = irrep_cache.read_cache(irrep_cache.cache_path(tmp_path, G), G)
    assert loaded is not None
    for rep, (name, stack) in zip(reps, loaded):
        assert name == rep.name
        assert np.array_equal(stack, rep.stack())


def test_large_group_stack_guard():
    G = symmetric_group(8)
    reps = irreps(G)
    assert sum(r.dim ** 2 for r in reps) == 40320
    big = max(reps, key=lambda r: r.dim)
    assert big.dim == 90
    with pytest.raises(CapacityError):
        big.stack()
    # single matrices still work and are orthogonal
    M = big.matrix(12345)
    assert np.allclose(M @ M.T, np.eye(90), atol=1e-9)
