"""Graph tooling, rigid corpora, shift oracles, and oracle-induced states."""

import numpy as np
import pytest

import hslab.iso as hslab_iso

from hslab.errors import CapacityError, ConsistencyError, DomainError
from hslab.groups import symmetric_group
from hslab.iso import (
    Graph,
    ShiftOraclePair,
    _oracle_blocks,
    are_isomorphic,
    automorphism_witness,
    check_oracle_state,
    find_shift_bruteforce,
    format_graph,
    graph,
    graph_act,
    is_rigid,
    make_shift_oracles,
    parse_graph_text,
    rigid_corpus,
    states_from_oracles,
)
from hslab.states import (
    _density_verdicts,
    _pattern_blocks,
    _stack_verdicts,
    maximally_mixed_state,
    shift_state_dense,
)
from oracles import compose_perms


# ---------------------------------------------------------------------------
# graph type


def test_graph_factory_normalizes_edges():
    A = graph(4, [(2, 1), (1, 2), (0, 3)])
    assert A.edges == ((0, 3), (1, 2))
    assert A.colors is None


def test_graph_factory_rejects_bad_input():
    with pytest.raises(DomainError):
        graph(0, [])
    with pytest.raises(DomainError):
        graph(3, [(0, 3)])
    with pytest.raises(DomainError):
        graph(3, [(1, 1)])
    with pytest.raises(DomainError):
        graph(3, [], colors=[1, 2])
    with pytest.raises(DomainError):
        graph(3, [], colors=[1, 2, 300])


def test_graph_act_composes_like_permutations():
    A = graph(4, [(0, 1), (1, 2), (2, 3)], colors=[5, 6, 7, 8])
    p = (2, 0, 3, 1)
    q = (1, 3, 0, 2)
    assert graph_act(p, graph_act(q, A)) == graph_act(compose_perms(p, q), A)
    identity = tuple(range(4))
    assert graph_act(identity, A) == A
    with pytest.raises(DomainError):
        graph_act((0, 0, 1, 2), A)


def test_graph_act_moves_colors_with_vertices():
    A = graph(3, [(0, 1)], colors=[10, 20, 30])
    B = graph_act((2, 0, 1), A)  # vertex 0 -> 2, 1 -> 0, 2 -> 1
    assert B.colors == (20, 30, 10)
    assert B.edges == ((0, 2),)


def test_encoding_distinguishes_graphs():
    plain = graph(3, [(0, 1)])
    colored = graph(3, [(0, 1)], colors=[0, 0, 0])
    other = graph(3, [(0, 2)])
    codes = {plain.encode(), colored.encode(), other.encode()}
    assert len(codes) == 3
    with pytest.raises(CapacityError):
        Graph(9, ()).encode()


def test_automorphism_witness_and_rigidity():
    path = graph(3, [(0, 1), (1, 2)])
    assert automorphism_witness(path) == (2, 1, 0)
    assert not is_rigid(path)
    # distinct colors break every symmetry
    pinned = graph(3, [(0, 1), (1, 2)], colors=[0, 1, 2])
    assert is_rigid(pinned)
    with pytest.raises(CapacityError):
        is_rigid(Graph(9, ()))


def test_are_isomorphic_finds_relabelings():
    A = graph(4, [(0, 1), (1, 2), (2, 3)])
    images = (3, 1, 0, 2)
    B = graph_act(images, A)
    p = are_isomorphic(A, B)
    assert p is not None
    assert graph_act(p, A) == B
    assert are_isomorphic(A, graph(4, [(0, 1)])) is None
    assert are_isomorphic(A, graph(5, [(0, 1)])) is None


# ---------------------------------------------------------------------------
# rigid corpus


def test_rigid_corpus_members_are_rigid_and_distinct():
    corpus = rigid_corpus(6, 8)
    assert len(corpus) == 8
    assert all(is_rigid(A) for A in corpus)
    assert len({A.encode() for A in corpus}) == 8
    with pytest.raises(DomainError):
        rigid_corpus(2, 1)
    assert rigid_corpus(1, 1) == [graph(1, [])]
    for n in (7, 0):
        with pytest.raises(CapacityError, match="rigid corpus covers 1 <= n <= 6"):
            rigid_corpus(n, 1)


# ---------------------------------------------------------------------------
# text format


def test_graph_text_round_trip():
    A = graph(4, [(0, 2), (1, 3)], colors=[9, 8, 7, 6])
    assert parse_graph_text(format_graph(A)) == A
    plain = graph(3, [(0, 1)])
    assert parse_graph_text(format_graph(plain)) == plain


def test_parse_graph_text_features():
    text = """
    # a commented header
    3

    1 2
    colors: 4 5 6
    2 3
    """
    A = parse_graph_text(text)
    assert A == graph(3, [(0, 1), (1, 2)], colors=[4, 5, 6])
    with pytest.raises(DomainError):
        parse_graph_text("")
    with pytest.raises(DomainError):
        parse_graph_text("3\n1 2 3\n")
    with pytest.raises(DomainError):
        parse_graph_text("3\n0 1\n")


@pytest.mark.parametrize(
    "text, bad_line",
    [("x\n1 2", "x"), ("3\n1 a", "1 a"), ("3\ncolors: r g b", "colors: r g b"), ("3 4\n1 2", "3 4")],
)
def test_parse_graph_text_names_the_bad_line(text, bad_line):
    with pytest.raises(DomainError, match=repr(bad_line)):
        parse_graph_text(text)


# ---------------------------------------------------------------------------
# oracles


def colored_triangle(colors):
    return graph(3, [(0, 1), (1, 2)], colors=colors)


def test_make_shift_oracles_requires_rigidity():
    path = graph(3, [(0, 1), (1, 2)])
    with pytest.raises(DomainError, match=r"rigid.*\(2, 1, 0\)"):
        make_shift_oracles(path, path)
    with pytest.raises(DomainError):
        make_shift_oracles(colored_triangle([0, 1, 2]), graph(4, []))


def test_oracle_tables_name_the_first_automorphism():
    # rigidity is read from the oracle tables: the first g > 0 whose value
    # equals the identity's is the automorphism the exhaustive search names
    rigid = graph(4, [(0, 1), (1, 2), (2, 3)], colors=[0, 1, 2, 3])
    two_edges = graph(4, [(0, 1), (2, 3)])
    mirrored = graph(4, [(0, 1), (1, 2), (2, 3)], colors=[0, 1, 1, 0])
    unsorted_path = Graph(3, ((1, 2), (0, 1)))  # built directly, edges not sorted
    for first, second, name, witness in (
        (two_edges, rigid, "first", (0, 1, 3, 2)),
        (rigid, mirrored, "second", (3, 2, 1, 0)),
        (unsorted_path, colored_triangle([0, 1, 2]), "first", (2, 1, 0)),
    ):
        bad = first if name == "first" else second
        assert automorphism_witness(bad) == witness and not is_rigid(bad)
        with pytest.raises(DomainError) as caught:
            make_shift_oracles(first, second)
        assert str(caught.value) == f"{name} graph is not rigid: automorphism {witness} fixes it"


def test_find_planted_shift_small():
    G = symmetric_group(3)
    A = colored_triangle([0, 1, 2])
    for s in G.elements():
        B = graph_act(G.perm(s), A)
        pair = make_shift_oracles(A, B)
        assert find_shift_bruteforce(pair) == s


def test_find_planted_shift_six_vertices():
    G = symmetric_group(6)
    A = rigid_corpus(6, 1)[0]
    for s in (0, 1, 517, 719):
        B = graph_act(G.perm(s), A)
        pair = make_shift_oracles(A, B)
        assert find_shift_bruteforce(pair) == s


def test_find_shift_disjoint_ranges():
    A = colored_triangle([0, 1, 2])
    B = graph(3, [(0, 1)], colors=[0, 1, 2])  # fewer edges, still rigid
    pair = make_shift_oracles(A, B)
    assert find_shift_bruteforce(pair) is None


def test_find_shift_flags_broken_promises():
    G = symmetric_group(3)
    A = colored_triangle([0, 1, 2])
    pair = make_shift_oracles(A, graph_act(G.perm(2), A))
    # swapping two second-table entries makes the implied shift inconsistent
    swapped = list(pair.outputs_second)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(ConsistencyError):
        find_shift_bruteforce(ShiftOraclePair(G, pair.outputs_first, tuple(swapped)))
    # replacing one entry with a foreign value leaves a partial overlap
    partial = list(pair.outputs_second)
    partial[0] = b"\xff\xff"
    with pytest.raises(ConsistencyError):
        find_shift_bruteforce(ShiftOraclePair(G, pair.outputs_first, tuple(partial)))
    # a duplicated first table is rejected outright
    dup = list(pair.outputs_first)
    dup[1] = dup[0]
    with pytest.raises(ConsistencyError):
        find_shift_bruteforce(ShiftOraclePair(G, tuple(dup), pair.outputs_second))


# ---------------------------------------------------------------------------
# oracle-induced states


def test_oracle_state_matches_shift_state():
    G = symmetric_group(3)
    A = colored_triangle([0, 1, 2])
    for s in G.elements():
        pair = make_shift_oracles(A, graph_act(G.perm(s), A))
        state = states_from_oracles(pair)
        assert state.variant == "from-oracles"
        reference = shift_state_dense(G, G.inverse(s))
        assert np.max(np.abs(state.dense - reference.dense)) < 1e-12


def test_oracle_state_two_copies():
    G = symmetric_group(3)
    A = colored_triangle([0, 1, 2])
    s = 4
    pair = make_shift_oracles(A, graph_act(G.perm(s), A))
    state = states_from_oracles(pair, copies=2)
    reference = shift_state_dense(G, G.inverse(s), copies=2)
    assert np.max(np.abs(state.dense - reference.dense)) < 1e-12


def test_oracle_state_for_disjoint_ranges_is_mixed():
    A = colored_triangle([0, 1, 2])
    B = graph(3, [(0, 1)], colors=[0, 1, 2])
    state = states_from_oracles(make_shift_oracles(A, B))
    mixed = maximally_mixed_state(symmetric_group(3))
    assert np.max(np.abs(state.dense - mixed.dense)) < 1e-15


def test_oracle_state_six_vertices():
    G = symmetric_group(6)
    A = rigid_corpus(6, 1)[0]
    s = 123
    pair = make_shift_oracles(A, graph_act(G.perm(s), A))
    state = states_from_oracles(pair)
    reference = shift_state_dense(G, G.inverse(s))
    assert np.max(np.abs(state.dense - reference.dense)) < 1e-12


def _ix_oracle_state(pair, copies):
    """states_from_oracles as first written: np.ix_ adds per oracle value."""
    N = pair.group.order
    positions = {}
    for g, y in enumerate(pair.outputs_first):
        positions.setdefault(y, []).append(g)
    for g, y in enumerate(pair.outputs_second):
        positions.setdefault(y, []).append(N + g)
    M = np.zeros((2 * N, 2 * N))
    for pos in positions.values():
        M[np.ix_(pos, pos)] += 1.0
    M /= 2 * N
    dense = M
    for _ in range(copies - 1):
        dense = np.kron(dense, M)
    return dense


def _dense_reference(G, shift):
    """The dense reference state of the iso check."""
    if shift is None:
        return maximally_mixed_state(G, 1).dense
    return shift_state_dense(G, G.inverse(shift), 1).dense


def _iso_check_pairs():
    """Every rigid_corpus(6, 8) graph against a seeded relabeling and against
    its first non-isomorphic partner in the corpus, then a coloured S3 pair
    both ways."""
    G = symmetric_group(6)
    corpus = rigid_corpus(6, 8)
    rng = np.random.default_rng(6)
    for A in corpus:
        yield make_shift_oracles(A, graph_act(G.perm(int(rng.integers(G.order))), A))
        partner = next(B for B in corpus if are_isomorphic(A, B) is None)
        yield make_shift_oracles(A, partner)
    S3 = symmetric_group(3)
    A = colored_triangle([0, 1, 2])
    yield make_shift_oracles(A, graph_act(S3.perm(4), A))
    yield make_shift_oracles(A, graph(3, [(0, 1)], colors=[0, 1, 2]))


def test_oracle_state_check_matches_dense_path():
    kinds = []
    for pair in _iso_check_pairs():
        G = pair.group
        shift = find_shift_bruteforce(pair)
        kinds.append(shift is None)
        dense = states_from_oracles(pair).dense
        assert dense.tobytes() == _ix_oracle_state(pair, 1).tobytes()
        blocks = _oracle_blocks(pair)
        for (index, stack), (dense_index, dense_stack) in zip(blocks, _pattern_blocks(dense), strict=True):
            assert np.array_equal(index, dense_index)
            assert stack.tobytes() == dense_stack.tobytes()
        assert _stack_verdicts((s for _, s in blocks), 1e-12, 1e-10) == _density_verdicts(dense, 1e-12, 1e-10)
        trace, deviation = check_oracle_state(pair, shift)
        assert trace == np.trace(dense).real
        assert deviation == float(np.max(np.abs(dense - _dense_reference(G, shift)))) == 0.0
        # a wrong reference shows the same nonzero deviation both ways
        for wrong in ({None, 0, 1} - {shift}):
            expected = float(np.max(np.abs(dense - _dense_reference(G, wrong))))
            assert check_oracle_state(pair, wrong)[1] == expected > 0
    assert kinds.count(True) == kinds.count(False) == 9


def test_oracle_state_matches_ix_build_at_two_copies():
    A = colored_triangle([0, 1, 2])
    G = symmetric_group(3)
    for partner in (graph_act(G.perm(4), A), graph(3, [(0, 1)], colors=[0, 1, 2])):
        pair = make_shift_oracles(A, partner)
        for copies in (1, 2):
            want = _ix_oracle_state(pair, copies)
            assert states_from_oracles(pair, copies).dense.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "entries, message",
    [
        ({(0, 0, 1): 0.25}, "is not Hermitian"),
        ({(0, 0, 0): np.nan}, "has a non-finite entry"),
        ({(0, 0, 0): 0.5}, "trace differs from one"),
        ({(0, 0, 1): 0.5, (0, 1, 0): 0.5}, "has a negative eigenvalue"),
    ],
)
def test_oracle_state_check_refuses_a_bad_block(monkeypatch, entries, message):
    A = colored_triangle([0, 1, 2])
    pair = make_shift_oracles(A, graph_act(symmetric_group(3).perm(4), A))
    blocks = _oracle_blocks(pair)
    for entry, value in entries.items():
        blocks[0][1][entry] = value
    dense = np.zeros((12, 12))
    for index, stack in blocks:
        dense[index[:, :, None], index[:, None, :]] = stack
    assert _stack_verdicts((s for _, s in blocks), 1e-12, 1e-10) == _density_verdicts(dense, 1e-12, 1e-10)
    monkeypatch.setattr(hslab_iso, "_oracle_blocks", lambda _: blocks)
    with pytest.raises(ConsistencyError, match=f"oracle state {message}"):
        check_oracle_state(pair, find_shift_bruteforce(pair))


def test_oracle_state_capacity_and_domain_errors():
    A = rigid_corpus(6, 1)[0]
    G = symmetric_group(6)
    pair = make_shift_oracles(A, graph_act(G.perm(1), A))
    with pytest.raises(CapacityError):
        states_from_oracles(pair, copies=2)
    with pytest.raises(DomainError):
        states_from_oracles(pair, copies=0)
