"""Group arithmetic, indexing conventions, and subgroup embeddings."""

import numpy as np
import pytest

from hslab.errors import CapacityError, ConsistencyError, DomainError
from hslab.groups import (
    Group,
    SubgroupEmbedding,
    abelian_group,
    abelian_subgroup_of_abelian,
    abelian_subgroup_of_symmetric,
    parse_group,
    partitions,
    symmetric_group,
)
from oracles import compose_perms, invert_perm, perm_rank, perm_unrank

SMALL_GROUPS = [
    symmetric_group(1),
    symmetric_group(2),
    symmetric_group(3),
    symmetric_group(4),
    symmetric_group(5),
    abelian_group(1),
    abelian_group(6),
    abelian_group(2, 4),
    abelian_group(2, 3, 4),
]


def test_permutation_primitives_round_trip():
    n = 5
    seen = set()
    for r in range(120):
        p = perm_unrank(r, n)
        assert perm_rank(p) == r
        seen.add(p)
    assert len(seen) == 120
    assert perm_unrank(0, n) == tuple(range(n))


def test_unrank_is_lexicographic():
    prev = None
    for r in range(24):
        p = perm_unrank(r, 4)
        if prev is not None:
            assert p > prev
        prev = p


def test_compose_perms_is_function_composition():
    g = (2, 0, 1)
    h = (1, 2, 0)
    gh = compose_perms(g, h)
    for i in range(3):
        assert gh[i] == g[h[i]]
    assert invert_perm(g) == (1, 2, 0)
    assert compose_perms(g, invert_perm(g)) == (0, 1, 2)


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.descriptor)
def test_group_axioms_exhaustive(group):
    N = group.order
    table = group.compose_table()
    e = group.identity
    assert list(table[e]) == list(range(N))
    assert list(table[:, e]) == list(range(N))
    inv = group.inverse_vector()
    assert all(table[a, inv[a]] == e for a in range(N))
    assert all(table[inv[a], a] == e for a in range(N))
    for a in range(N):
        # associativity: (a b) c == a (b c) for all b, c at once
        assert np.array_equal(table[table[a]], table[a][table])


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.descriptor)
def test_translate_matches_compose(group):
    # translate and compose_table run the array form of compose; compare
    # both with the scalar form, element by element
    table = group.compose_table()
    for s in group.elements():
        t = group.translate(s)
        assert t.tolist() == table[:, s].tolist()
        for g in group.elements():
            assert t[g] == group.compose(g, s)


def test_symmetric_indexing_matches_images():
    G = symmetric_group(4)
    for a in range(24):
        for b in range(24):
            assert G.perm(G.compose(a, b)) == compose_perms(G.perm(a), G.perm(b))
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        G = symmetric_group(n)
        sample = G.elements() if n < 8 else rng.integers(G.order, size=2000).tolist()
        for a in sample:
            assert G.perm(a) == perm_unrank(a, n)
            assert G.index_of_perm(G.perm(a)) == a
    # seeded pairs in the larger groups, against the tuple primitives
    for n in (6, 7, 8):
        G = symmetric_group(n)
        a, b = rng.integers(G.order, size=(2, 5000))
        ab = G.compose(a, b)
        for x, y, xy in zip(a.tolist(), b.tolist(), ab.tolist()):
            assert G.compose(x, y) == xy
            assert perm_unrank(xy, n) == compose_perms(perm_unrank(x, n), perm_unrank(y, n))
            assert perm_unrank(G.inverse(x), n) == invert_perm(perm_unrank(x, n))


def test_abelian_indexing_digits():
    for moduli in ((4096,), (2, 3, 4)):
        G = abelian_group(moduli)
        for a in G.elements():
            digits, rest = [], a
            for m in reversed(moduli):
                rest, d = divmod(rest, m)
                digits.insert(0, d)
            assert G.digits(a) == tuple(digits)
            assert G.index_of_digits(G.digits(a)) == a
    G = abelian_group(2, 3, 4)
    assert G.order == 24
    # leftmost digit is most significant
    assert G.digits(0) == (0, 0, 0)
    assert G.digits(1) == (0, 0, 1)
    assert G.digits(12) == (1, 0, 0)
    assert G.compose(G.index_of_digits((1, 2, 3)), G.index_of_digits((1, 1, 1))) == G.index_of_digits((0, 0, 0))


def test_element_names():
    G = symmetric_group(3)
    assert G.element_name(G.identity) == "(1,2,3)"
    Z = abelian_group(2, 2)
    assert "1" in Z.element_name(3)


def test_parse_group():
    assert parse_group("s5").descriptor == "S5"
    assert parse_group("Z2xz2XZ3").descriptor == "Z2xZ2xZ3"
    assert parse_group("z9").order == 9
    for bad in ("", "S", "Q8", "Z", "S-1", "ZxZ", "S3xS3"):
        with pytest.raises(DomainError):
            parse_group(bad)


def test_capacity_limits():
    with pytest.raises(CapacityError):
        symmetric_group(9)
    with pytest.raises(CapacityError):
        abelian_group(4097)
    with pytest.raises(DomainError):
        symmetric_group(0)
    with pytest.raises(DomainError):
        abelian_group()


def test_check_index_errors():
    G = symmetric_group(3)
    with pytest.raises(DomainError):
        G.check_index(6)
    with pytest.raises(DomainError):
        G.check_index(-1)


def test_partitions_order_and_count():
    parts4 = partitions(4)
    assert parts4[0] == (4,)
    assert parts4[-1] == (1, 1, 1, 1)
    assert len(parts4) == 5
    assert len(partitions(6)) == 11
    assert all(parts4[i] > parts4[i + 1] for i in range(len(parts4) - 1))


@pytest.mark.parametrize(
    "make",
    [
        lambda: abelian_subgroup_of_symmetric(3, (3,)),
        lambda: abelian_subgroup_of_symmetric(4, (4,)),
        lambda: abelian_subgroup_of_symmetric(4, (2, 2)),
        lambda: abelian_subgroup_of_symmetric(5, (3, 2)),
        lambda: abelian_subgroup_of_abelian(abelian_group(4), (2,)),
        lambda: abelian_subgroup_of_abelian(abelian_group(2, 4), (2, 2)),
    ],
)
def test_subgroup_embeddings(make):
    emb = make()
    G, H = emb.parent, emb.subgroup
    assert G.order % H.order == 0
    m = G.order // H.order
    assert len(emb.transversal) == m
    # injection is an injective homomorphism
    assert len(set(emb.injection)) == H.order
    for a in H.elements():
        for b in H.elements():
            assert emb.injection[H.compose(a, b)] == G.compose(
                emb.injection[a], emb.injection[b]
            )
    # unique factorization g = t * iota(h): the products t * iota(h) list every g once
    products = [G.compose(t, i) for t in emb.transversal for i in emb.injection]
    assert sorted(products) == list(G.elements())


def test_subgroup_cycle_type_validation():
    with pytest.raises(DomainError):
        abelian_subgroup_of_symmetric(4, (3,))
    with pytest.raises(DomainError):
        abelian_subgroup_of_symmetric(4, (5,))
    with pytest.raises(DomainError):
        abelian_subgroup_of_abelian(abelian_group(4), (3,))


def test_group_equality_and_hash():
    assert symmetric_group(3) == symmetric_group(3)
    assert symmetric_group(3) != abelian_group(6)
    assert len({symmetric_group(4), symmetric_group(4), abelian_group(2)}) == 2
