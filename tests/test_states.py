"""State constructions: dense vs block forms, spectra, ranks, factorizations."""

import json
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import combinations_with_replacement, product
from math import factorial, prod

import numpy as np
import pytest

from hslab.errors import CapacityError, ConsistencyError, DomainError
from hslab.groups import (
    abelian_group,
    abelian_subgroup_of_abelian,
    abelian_subgroup_of_symmetric,
    parse_group,
    symmetric_group,
)
from hslab.irreps import Irrep, irreps, kron_stack
from hslab.iso import graph, graph_act, make_shift_oracles, states_from_oracles
from hslab.measurements import helstrom, weak_sampling_distribution
from hslab.states import (
    COUNT_ENTRY_WORK,
    COUNT_MULTISET_WORK,
    GRID_ENTRY_WORK,
    InteriorEigenvalueReport,
    MULTISET_WORK,
    PATTERN_STEP_WORK,
    ShiftState,
    _average_product,
    _build_block,
    _cluster,
    _dense_bytes,
    _density_verdicts,
    _guard_block_scan,
    _guard_counted_rank,
    _guard_dense,
    _guard_multiset_scan,
    _multiset_spectra,
    _one_factor_averages,
    _pattern_blocks,
    _scan_blocks,
    _schur_pair_averages,
    averaged_shift_state_dense,
    block_basis_permutation,
    block_shift_state,
    dense_from_blocks,
    interior_eigenvalue_check,
    maximally_mixed_state,
    one_copy_state,
    rank_closed_form,
    shift_state_dense,
    spectrum,
    spectrum_rows,
    state_block,
    state_rank,
    state_spectrum,
    subgroup_restriction_check,
    to_block_basis,
)
from hslab.subset_sums import subset_sum_rank

from oracles import (
    averaged_block_per_pattern,
    averaged_shift_state_dense_kron,
    cluster_per_eigenvalue,
    mixed_state_blocks,
    regular_rep,
    shift_pair_vector,
    shift_state_dense_kron,
    single_copy_dense,
)


def test_shift_pair_vector_entries():
    G = abelian_group(4)
    v = shift_pair_vector(G, s=1, g=2)
    expect = np.zeros(8)
    expect[2] = expect[4 + 3] = 1 / np.sqrt(2)
    assert np.allclose(v, expect)


def test_single_copy_dense_is_pair_mixture():
    for G in (symmetric_group(3), abelian_group(2, 2)):
        for s in G.elements():
            direct = np.zeros((2 * G.order, 2 * G.order))
            for g in G.elements():
                v = shift_pair_vector(G, s, g)
                direct += np.outer(v, v) / G.order
            state = shift_state_dense(G, s)
            assert np.allclose(state.dense, direct, atol=1e-12)
            state.validate()
            # the pair vectors are orthonormal, so purity is 1/|G|
            assert abs(np.trace(state.dense @ state.dense) - 1 / G.order) < 1e-12


def test_z2_single_copy_exact_matrix():
    G = abelian_group(2)
    state = shift_state_dense(G, 1)
    expect = np.array(
        [
            [1, 0, 0, 1],
            [0, 1, 1, 0],
            [0, 1, 1, 0],
            [1, 0, 0, 1],
        ]
    ) / 4.0
    assert np.array_equal(state.dense, expect)


def test_averaged_state_is_shift_mixture():
    G = abelian_group(3)
    acc = np.zeros((6, 6))
    for s in G.elements():
        acc += shift_state_dense(G, s).dense
    avg = averaged_shift_state_dense(G)
    assert np.allclose(avg.dense, acc / 3, atol=1e-14)
    avg.validate()


def test_multi_copy_dense_is_tensor_power():
    G = abelian_group(3)
    one = shift_state_dense(G, 2).dense
    two = shift_state_dense(G, 2, copies=2).dense
    assert np.allclose(two, np.kron(one, one), atol=1e-14)
    # averaging happens after the tensor power, not before
    avg2 = averaged_shift_state_dense(G, 2).dense
    per_shift = [shift_state_dense(G, s).dense for s in G.elements()]
    expect = sum(np.kron(m, m) for m in per_shift) / 3
    assert np.allclose(avg2, expect, atol=1e-14)
    product_of_averages = np.kron(
        averaged_shift_state_dense(G).dense, averaged_shift_state_dense(G).dense
    )
    assert np.max(np.abs(avg2 - product_of_averages)) > 1e-3


DENSE_BLOCK_CASES = [
    (symmetric_group(3), 1),
    (symmetric_group(3), 2),
    (symmetric_group(4), 1),
    (abelian_group(4), 2),
    (abelian_group(2, 4), 1),
    (abelian_group(2, 2), 2),
]


@pytest.mark.parametrize("G,k", DENSE_BLOCK_CASES, ids=lambda v: str(v))
def test_dense_and_block_agree(G, k):
    for shift in (None, 1 % G.order):
        dense = (
            averaged_shift_state_dense(G, k)
            if shift is None
            else shift_state_dense(G, shift, k)
        )
        rotated = to_block_basis(dense.dense, G, k)
        blocks = block_shift_state(G, k, shift)
        blocks.validate()
        assembled = dense_from_blocks(blocks)
        assert np.max(np.abs(rotated - assembled)) < 1e-10


def test_block_basis_permutation_is_permutation():
    for G, k in ((symmetric_group(3), 2), (abelian_group(2, 2), 2)):
        P = block_basis_permutation(G, k)
        assert np.array_equal(np.sort(P), np.arange((2 * G.order) ** k))


def test_fixed_shift_blocks_are_projector_like():
    G = symmetric_group(4)
    for rep in irreps(G):
        for s in (0, 5, 17):
            blk = state_block((rep,), s).matrix
            # half the block is a rank-d projector
            assert np.allclose(blk @ blk, 2 * blk, atol=1e-10)
            w = np.linalg.eigvalsh(blk)
            assert np.allclose(np.sort(w)[::-1][: rep.dim], 2.0, atol=1e-10)
            assert np.allclose(np.sort(w)[: rep.dim], 0.0, atol=1e-10)


def test_averaged_single_copy_blocks():
    for G in (symmetric_group(3), symmetric_group(4), abelian_group(2, 4)):
        for rep in irreps(G):
            blk = state_block((rep,), None).matrix
            if rep.is_trivial:
                assert np.allclose(blk, [[1, 1], [1, 1]], atol=1e-12)
            else:
                assert np.max(np.abs(blk - np.eye(2 * rep.dim))) < 1e-10


def _clustered(values, tol=1e-8):
    out = []
    for v in np.sort(values):
        if out and abs(v - out[-1][0]) <= tol:
            out[-1][1] += 1
        else:
            out.append([float(v), 1])
    return [(round(v, 9), c) for v, c in out]


def expected_two_copy_pattern(d, coupled):
    """Eigenvalue multiset of the averaged same-irrep two-copy block.

    coupled means the group average of rho (x) rho has rank one; the block
    then picks up an extra {2, 0} pair at the expense of two eigenvalues 1.
    """
    values = [1 + 1 / d] * (d * d) + [1 - 1 / d] * (d * d)
    if coupled:
        values += [2.0, 0.0] + [1.0] * (2 * d * d - 2)
    else:
        values += [1.0] * (2 * d * d)
    return _clustered(values)


def test_two_copy_same_irrep_patterns_symmetric():
    # all nontrivial irreps of S3 and S4 are real, so rho (x) rho always
    # contains the trivial once and the coupled pattern applies
    for G in (symmetric_group(3), symmetric_group(4)):
        for rep in irreps(G):
            if rep.is_trivial:
                continue
            avg_kron = kron_stack(rep.stack(), rep.stack()).mean(axis=0)
            coupled = np.linalg.matrix_rank(avg_kron, tol=1e-10)
            assert coupled == 1
            w = np.linalg.eigvalsh(state_block((rep, rep), None).matrix)
            assert _clustered(w) == expected_two_copy_pattern(rep.dim, True)


def test_two_copy_same_irrep_pattern_abelian_uncoupled():
    # order-4 character of Z4: chi^2 is nontrivial, so no coupling
    G = abelian_group(4)
    rep = irreps(G)[1]
    avg_kron = kron_stack(rep.stack(), rep.stack()).mean(axis=0)
    assert np.max(np.abs(avg_kron)) < 1e-12
    w = np.linalg.eigvalsh(state_block((rep, rep), None).matrix)
    assert _clustered(w) == expected_two_copy_pattern(1, False)


def test_two_copy_conjugate_pair_block_abelian():
    G = abelian_group(4)
    chi = irreps(G)[1]
    chibar = irreps(G)[3]
    w = np.linalg.eigvalsh(state_block((chi, chibar), None).matrix)
    assert _clustered(w) == [(0.0, 1), (1.0, 2), (2.0, 1)]


def test_two_copy_cross_blocks_identity():
    G = symmetric_group(4)
    reps = irreps(G)
    pairs = [(reps[1], reps[2]), (reps[2], reps[3]), (reps[1], reps[3])]
    for a, b in pairs:
        blk = state_block((a, b), None).matrix
        assert np.max(np.abs(blk - np.eye(4 * a.dim * b.dim))) < 1e-10


def test_all_trivial_tuple_block_is_all_ones():
    G = symmetric_group(3)
    triv = irreps(G)[0]
    blk = state_block((triv, triv, triv), None).matrix
    assert np.allclose(blk, np.ones((8, 8)), atol=1e-12)


def test_trivial_with_nontrivial_block():
    G = symmetric_group(3)
    triv, std = irreps(G)[0], irreps(G)[1]
    blk = state_block((triv, std), None).matrix
    w = np.linalg.eigvalsh(blk)
    assert _clustered(w) == [(0.0, 2 * std.dim), (2.0, 2 * std.dim)]


RANK_CASES = [
    (abelian_group(2), 1, 3),
    (abelian_group(2), 2, 7),
    (abelian_group(3), 2, 21),
    (abelian_group(4), 2, 43),
    (abelian_group(2, 2), 2, 43),
    (symmetric_group(3), 2, 115),
    (symmetric_group(4), 1, 47),
    (symmetric_group(4), 2, 2185),
]


@pytest.mark.parametrize("G,k,expected", RANK_CASES, ids=lambda v: str(v))
def test_state_ranks_frozen_values(G, k, expected):
    assert state_rank(G, k) == expected
    assert rank_closed_form(G, k) == expected


def test_rank_closed_form_inputs():
    with pytest.raises(DomainError):
        rank_closed_form(symmetric_group(3), 3)
    assert rank_closed_form(abelian_group(5), 1) == 9


def test_fixed_shift_rank_is_group_order_power():
    for G in (symmetric_group(3), abelian_group(4)):
        for k in (1, 2):
            assert state_rank(G, k, shift=1) == G.order ** k


SCAN_GROUPS = [symmetric_group(3), symmetric_group(4), abelian_group(4), abelian_group(2, 2)]


@pytest.mark.parametrize("shift", [None, 1], ids=["averaged", "shift1"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("G", SCAN_GROUPS, ids=lambda G: G.descriptor)
def test_block_scan_consumers_agree(G, k, shift):
    state = block_shift_state(G, k, shift)
    assert state_rank(G, k, shift) == state_spectrum(state).rank

    names = {
        tuple(r.label for r in reps): "|".join(r.name for r in reps)
        for reps in product(irreps(G), repeat=k)
    }
    rows = spectrum_rows(G, k, shift)
    assert sum(r["multiplicity"] for r in rows) == (2 * G.order) ** k
    expected = [
        (names[labels], value, mult * blk.multiplicity)
        for labels, blk in state.blocks.items()
        for value, mult in spectrum(blk.matrix).clusters
    ]
    assert [(r["tuple_label"], r["eigenvalue"], r["multiplicity"]) for r in rows] == expected

    if shift is None:
        margin = 1e-8
        first = None
        for labels, blk in state.blocks.items():
            w = np.linalg.eigvalsh(blk.matrix)
            if np.any((w > margin) & (w < 1.0 - margin)):
                first = labels
                break
        report = interior_eigenvalue_check(G, k)
        assert report.found == (first is not None)
        assert report.labels == first


def test_spectrum_report_fields():
    M = np.diag([3.0, 1.0, 1.0, 0.0])
    rep = spectrum(M)
    assert rep.dim == 4
    assert rep.clusters == ((3.0, 1), (1.0, 2), (0.0, 1))
    assert rep.rank == 3
    assert rep.max_eigenvalue == 3.0
    assert rep.min_nonzero == 1.0
    with pytest.raises(DomainError):
        spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        spectrum(np.zeros((2, 3)))
    # an empty matrix has no largest eigenvalue, and a nan entry would
    # report rank 0 without any error
    for bad in (np.zeros((0, 0)), np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0])):
        with pytest.raises(DomainError):
            spectrum(bad)


def test_state_spectrum_dense_vs_block():
    G = symmetric_group(3)
    k = 2
    dense_eigs = state_spectrum(averaged_shift_state_dense(G, k)).eigenvalues
    block_eigs = state_spectrum(block_shift_state(G, k)).eigenvalues
    assert np.max(np.abs(dense_eigs - block_eigs)) < 1e-12
    assert abs(dense_eigs.sum() - 1.0) < 1e-10


def test_maximally_mixed_state_forms():
    G = abelian_group(2, 2)
    dense = maximally_mixed_state(G, 2)
    assert np.array_equal(dense.dense, np.eye(64) / 64)
    block = mixed_state_blocks(G, 2)
    block.validate()
    assembled = dense_from_blocks(block)
    assert np.allclose(assembled, np.eye(64) / 64, atol=1e-14)
    # the package builds the no-shift state dense only: it takes no form
    for form in ("Dense", "BLOCK", "", "sparse"):
        with pytest.raises(TypeError, match="form"):
            maximally_mixed_state(G, 2, form=form)


def _tilted(M, delta):
    """M with delta moved from a null direction to its top one: trace kept, lowest = -delta."""
    w, V = np.linalg.eigh(M)
    assert abs(w[0]) < 1e-12
    low, top = V[:, :1], V[:, -1:]
    return M + delta * (top @ top.conj().T - low @ low.conj().T)


def test_validate_rejects_a_negative_eigenvalue():
    # eigenvalues down to -1e-10 pass, lower ones fail, in both forms
    G = symmetric_group(3)
    dense = shift_state_dense(G, 1, 1).dense
    ShiftState(G, 1, "fixed", "dense", 1, dense=_tilted(dense, 5e-11)).validate()
    with pytest.raises(ConsistencyError, match="dense state has a negative eigenvalue"):
        ShiftState(G, 1, "fixed", "dense", 1, dense=_tilted(dense, 1e-9)).validate()

    state = block_shift_state(G, 1, 1)
    blk = next(iter(state.blocks.values()))
    original = blk.matrix
    blk.matrix = _tilted(original, 5e-11)
    state.validate()
    blk.matrix = _tilted(original, 1e-9)
    with pytest.raises(ConsistencyError, match=r"block .* has a negative eigenvalue"):
        state.validate()


def _oracle_validate(state):
    """The message ShiftState.validate raised as first written, or None: a
    full-matrix Hermitian check, the trace, then the blockwise Cholesky test."""

    def psd(M, tol):
        for _, stack in _pattern_blocks(M):
            shifted = stack.copy()
            np.einsum("...ii->...i", shifted)[...] += tol
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                return False
        return True

    if state.form == "dense":
        M = state.dense
        if np.max(np.abs(M - M.conj().T)) > 1e-12:
            return "dense state is not Hermitian"
        if abs(np.trace(M).real - 1.0) > 1e-10:
            return "dense state trace differs from one"
        if not psd(M, 1e-10):
            return "dense state has a negative eigenvalue"
        return None
    total = 0.0
    for blk in state.blocks.values():
        B = blk.matrix
        if np.max(np.abs(B - B.conj().T)) > 1e-12:
            return f"block {blk.labels} is not Hermitian"
        if not psd(B, 1e-10):
            return f"block {blk.labels} has a negative eigenvalue"
        total += blk.multiplicity * np.trace(B).real
    if abs(total * state.scale() - 1.0) > 1e-10:
        return "block traces do not sum to one"
    return None


def _validate_message(state):
    try:
        state.validate()
    except ConsistencyError as exc:
        return str(exc)
    return None


def _accepted_s3_states():
    S3 = symmetric_group(3)
    path = graph(3, [(0, 1), (1, 2)], colors=[0, 1, 2])
    pairs = [(path, graph_act((2, 0, 1), path)), (path, graph(3, [(0, 2)], colors=[0, 1, 2]))]
    for k in (1, 2, 3):
        yield averaged_shift_state_dense(S3, k)
        yield maximally_mixed_state(S3, k)
        yield mixed_state_blocks(S3, k)
        yield block_shift_state(S3, k)
        for s in S3.elements():
            yield shift_state_dense(S3, s, k)
            yield block_shift_state(S3, k, s)
        for A, B in pairs:
            yield states_from_oracles(make_shift_oracles(A, B), k)


def _tampered_s3_states():
    """S3 states with one flaw each, or two whose order of report matters."""
    S3 = symmetric_group(3)

    def dense(M):
        return ShiftState(S3, 1, "fixed", "dense", 1, dense=M)

    mixed = maximally_mixed_state(S3, 1).dense
    for value in (1e-9, 1e-13):
        # one asymmetric entry linking two otherwise separate 1 x 1 blocks
        M = mixed.copy()
        M[0, 5] = value
        yield dense(M)
    fixed = shift_state_dense(S3, 1, 1).dense
    i, j = np.flatnonzero(fixed[0])[-1], 0
    for imag in (1e-9, 1e-13):
        # a complex pair inside a 2 x 2 block, equal where it should be conjugate
        M = fixed.astype(complex)
        M[i, j] = M[j, i] = fixed[i, j] + 1j * imag
        yield dense(M)
    for delta, factor in ((1e-9, 1.0), (1e-9, 1.1), (5e-11, 1.1), (1e-9, 1.0 + 5e-11)):
        # a negative eigenvalue, a wrong trace, or both: the trace is reported first
        yield dense(factor * _tilted(fixed, delta))
    # not Hermitian as well, which is reported before both
    M = 1.1 * _tilted(fixed, 1e-9)
    M[0, 1] += 1e-6
    yield dense(M)
    for flaw in ("tilt", "asymmetric", "trace"):
        state = block_shift_state(S3, 2, 1)
        blk = list(state.blocks.values())[-1]
        if flaw == "tilt":
            blk.matrix = _tilted(blk.matrix, 1e-9)
        elif flaw == "asymmetric":
            blk.matrix = blk.matrix.copy()
            blk.matrix[0, -1] += 1e-9
        else:
            blk.matrix = 1.01 * blk.matrix
        yield state


def test_validate_matches_the_full_matrix_checks():
    accepted = list(_accepted_s3_states())
    assert len(accepted) == 3 * (4 + 2 * 6 + 2)
    for state in accepted:
        assert _validate_message(state) is None
        assert _oracle_validate(state) is None
    messages = []
    for state in _tampered_s3_states():
        messages.append(_validate_message(state))
        assert messages[-1] == _oracle_validate(state)
    last = list(block_shift_state(symmetric_group(3), 2).blocks)[-1]
    assert messages == [
        "dense state is not Hermitian",
        None,
        "dense state is not Hermitian",
        None,
        "dense state has a negative eigenvalue",
        "dense state trace differs from one",
        "dense state trace differs from one",
        "dense state has a negative eigenvalue",
        "dense state is not Hermitian",
        f"block {last} has a negative eigenvalue",
        f"block {last} is not Hermitian",
        "block traces do not sum to one",
    ]


def test_validate_rejects_non_finite_entries():
    # the old checks accepted I/4 with a nan pair: max |M - M^H| and the
    # trace come out nan, nan > tol is False, and this Cholesky does not fail
    Z2 = abelian_group(2)
    M = np.eye(4) / 4
    M[0, 1] = M[1, 0] = np.nan
    state = ShiftState(Z2, 1, "no-shift", "dense", dense=M)
    assert _oracle_validate(state) is None
    with pytest.raises(ConsistencyError, match="dense state has a non-finite entry"):
        state.validate()
    S3 = symmetric_group(3)
    mixed = maximally_mixed_state(S3, 1).dense
    M = mixed.copy()
    M[0, 1] = M[1, 0] = np.inf
    with pytest.raises(ConsistencyError, match="dense state has a non-finite entry"):
        ShiftState(S3, 1, "no-shift", "dense", dense=M).validate()
    # reported before an asymmetric entry in a block walked earlier (a
    # smaller one)
    M = mixed.copy()
    M[2, 3] = 1e-6
    M[7, 8] = M[8, 7] = np.nan
    M[8, 9] = M[9, 8] = 0.01
    assert _density_verdicts(M, 1e-12, 1e-10) == (False, False, False)
    with pytest.raises(ConsistencyError, match="non-finite entry"):
        ShiftState(S3, 1, "no-shift", "dense", dense=M).validate()
    state = block_shift_state(S3, 1)
    blk = list(state.blocks.values())[-1]
    blk.matrix = blk.matrix.copy()
    blk.matrix[0, 0] = np.nan
    with pytest.raises(ConsistencyError, match=r"block .* has a non-finite entry"):
        state.validate()


def test_interior_eigenvalue_witnesses():
    assert not interior_eigenvalue_check(abelian_group(2), 1).found
    assert not interior_eigenvalue_check(symmetric_group(3), 1).found
    rep2 = interior_eigenvalue_check(symmetric_group(3), 2)
    assert rep2.found and 0 < rep2.block_eigenvalue < 1
    rep3 = interior_eigenvalue_check(symmetric_group(4), 3)
    assert rep3.found
    scale = (2 * 24) ** 3
    assert 1e-8 < rep3.witness * scale < 1 - 1e-8


@pytest.mark.parametrize(
    "emb",
    [
        abelian_subgroup_of_symmetric(3, (3,)),
        abelian_subgroup_of_abelian(abelian_group(4), (2,)),
        abelian_subgroup_of_symmetric(4, (2, 2)),
        abelian_subgroup_of_symmetric(4, (4,)),
    ],
    ids=lambda e: f"{e.parent.descriptor}>{e.subgroup.descriptor}",
)
def test_subgroup_restriction_factorization(emb):
    assert subgroup_restriction_check(emb)


def test_capacity_guards():
    with pytest.raises(CapacityError):
        shift_state_dense(symmetric_group(5), 0, 2)
    with pytest.raises(CapacityError):
        block_shift_state(symmetric_group(6), 2)
    with pytest.raises(CapacityError):
        state_rank(symmetric_group(6), 3)
    with pytest.raises(CapacityError):
        spectrum_rows(symmetric_group(6), 2)
    with pytest.raises(CapacityError):
        interior_eigenvalue_check(symmetric_group(6), 3)
    # the 90-dimensional irrep of S8 passes the block size limit (a 180 x 180
    # block) but not the budget of the 40320-element average it needs
    big = next(r for r in irreps(symmetric_group(8)) if r.dim == 90)
    with pytest.raises(CapacityError, match="averaging a 90-dimensional product over 40320 elements"):
        state_block((big,), None)


# tracemalloc peaks of the scans the block-scan guard admits, each taken on
# its second run, once its stacks are built, with one _average_product per
# pattern (bytes); the stacked inverse of the 35-dimensional S7 irrep is
# 47 MiB of the first
PER_PATTERN_SCAN_PEAKS = {
    ("spectrum_rows", "S7", 1): 49420830,
    ("spectrum_rows", "S6", 1): 1481572,
    ("spectrum_rows", "S5", 2): 1569265,
    ("spectrum_rows", "S4", 3): 1996038,
    ("spectrum_rows", "S3", 4): 2757352,
    ("state_rank", "S6", 2): 23181096,
    ("state_rank", "S3", 5): 19278112,
}

_SCAN_PEAKS_SCRIPT = """
import json, sys, tracemalloc
from hslab.groups import parse_group
from hslab import states
peaks = []
for fn, name, k in json.loads(sys.argv[1]):
    G = parse_group(name)
    getattr(states, fn)(G, k)
    tracemalloc.start()
    getattr(states, fn)(G, k)
    peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
print(json.dumps(peaks))
"""


def test_block_scan_peaks_stay_near_the_per_pattern_build():
    # a batch holds 2^k |G| D^2 entries and the prefix memo at most
    # 2^(k-1) |G|^k: within 4 MiB of the per-pattern build on these scans,
    # and the S7 one-copy scan, which batches nothing, within 5%; measured in
    # a child process, so the S7 stacks (203 MB) do not outlive the test
    cases = list(PER_PATTERN_SCAN_PEAKS)
    proc = subprocess.run(
        [sys.executable, "-c", _SCAN_PEAKS_SCRIPT, json.dumps(cases)],
        capture_output=True, text=True, check=True,
    )
    for case, peak in zip(cases, json.loads(proc.stdout)):
        before = PER_PATTERN_SCAN_PEAKS[case]
        bound = 1.05 * before if case[1] == "S7" else before + 4 * 2 ** 20
        assert peak <= bound, (case, peak, before)


def test_state_block_batch_stays_within_the_average_budget(monkeypatch):
    # one average of this S5 tuple fits the budget, the batch of all 2^k = 8
    # does not: the block is built one pattern at a time, within the budget's
    # bytes, and is the same block
    G = parse_group("S5")
    four, four_sign = [r for r in irreps(G) if r.dim == 4]
    reps = (four, four_sign, four)
    limit = 2 * G.order * 64 ** 2
    monkeypatch.setattr("hslab.states.AVERAGE_STACK_LIMIT", limit)
    tracemalloc.start()
    blk = state_block(reps)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 8 * limit, peak
    assert blk.matrix.tobytes() == averaged_block_per_pattern(reps, {}).tobytes()


def test_spectrum_rows_contents():
    rows = spectrum_rows(abelian_group(2), 1)
    by_label = {(r["tuple_label"], r["eigenvalue"]): r["multiplicity"] for r in rows}
    assert by_label[("0", 2.0)] == 1
    assert by_label[("0", 0.0)] == 1
    assert by_label[("1", 1.0)] == 2
    total = sum(r["eigenvalue"] * r["multiplicity"] for r in rows)
    # unit trace at state scale means the block-scale total is (2|G|)^k
    assert abs(total - 4.0) < 1e-12


def _peak_of(fn):
    """(fn(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _refused(fn):
    with pytest.raises(CapacityError):
        fn()


# ---------------------------------------------------------------------------
# the block build against the power_block assembly it replaced


def _oracle_power_block(reps, exponents, shift):
    """power_block as first written: every factor, identity factors included,
    stacked over the group and averaged, or a Kronecker chain for a shift."""
    group = reps[0].group
    if shift is not None:
        mats = []
        for r, e in zip(reps, exponents):
            if e == 0:
                mats.append(np.eye(r.dim))
            elif e == 1:
                mats.append(r.matrix(shift))
            else:
                mats.append(r.matrix(group.inverse(shift)))
        return reduce(np.kron, mats)
    inv = group.inverse_vector()
    cur = None
    for r, e in zip(reps, exponents):
        if e == 0:
            part = np.broadcast_to(np.eye(r.dim), (group.order, r.dim, r.dim))
        elif e == 1:
            part = r.stack()
        else:
            part = r.stack()[inv]
        cur = part if cur is None else kron_stack(cur, part)
    return cur.mean(axis=0)


def _oracle_state_block(reps, shift):
    """state_block as first written: 3^k power blocks copied cell by cell."""
    k = len(reps)
    D = prod(r.dim for r in reps)
    parts = {z: _oracle_power_block(reps, z, shift) for z in product((-1, 0, 1), repeat=k)}
    dtype = np.result_type(np.float64, *(p.dtype for p in parts.values()))
    B = np.zeros(((2 ** k) * D, (2 ** k) * D), dtype=dtype)
    bits = list(product((0, 1), repeat=k))
    for xi, x in enumerate(bits):
        for yi, y in enumerate(bits):
            z = tuple(b - a for a, b in zip(x, y))
            B[xi * D : (xi + 1) * D, yi * D : (yi + 1) * D] = parts[z]
    return B


def _oracle_scan_rank(G, k, shift=None):
    """state_rank as first written, on the oracle blocks."""
    spectra = [
        (prod(r.dim for r in reps), np.linalg.eigvalsh(_oracle_state_block(reps, shift)))
        for reps in product(irreps(G), repeat=k)
    ]
    top = max(float(np.max(np.abs(w))) for _, w in spectra)
    return sum(mult * int(np.sum(w > 1e-8 * top)) for mult, w in spectra)


ORACLE_CASES = (
    [(f"S{n}", k) for n in range(1, 6) for k in (1, 2)]
    + [("S3", 3), ("S4", 3)]
    + [(name, k) for name in ("Z4", "Z2xZ2", "Z8") for k in (1, 2, 3)]
)


@pytest.mark.parametrize("name,k", ORACLE_CASES, ids=[f"{n}-k{k}" for n, k in ORACLE_CASES])
def test_block_build_matches_power_block_assembly(name, k):
    G = parse_group(name)
    for shift in dict.fromkeys((None, 1 % G.order, G.order - 1)):
        tuples = list(product(irreps(G), repeat=k))
        oracle = [_oracle_state_block(reps, shift) for reps in tuples]
        scanned = block_shift_state(G, k, shift).blocks
        assert list(scanned) == [tuple(r.label for r in reps) for reps in tuples]
        for reps, want, got in zip(tuples, oracle, scanned.values()):
            alone = state_block(reps, shift).matrix
            for built in (got.matrix, alone):
                assert built.dtype == want.dtype
                assert built.tobytes() == want.tobytes()
        # spectrum_rows prints these values, so they must be the very same floats
        expected = [
            {
                "group": G.descriptor,
                "k": k,
                "tuple_label": "|".join(r.name for r in reps),
                "eigenvalue": value,
                "multiplicity": mult * prod(r.dim for r in reps),
            }
            for reps, want in zip(tuples, oracle)
            for value, mult in spectrum(want).clusters
        ]
        assert spectrum_rows(G, k, shift) == expected


# the batched sign averages against one _average_product per pattern

BATCH_ORDERED = [("S1", 8), ("S2", 5), ("S3", 4), ("S4", 3), ("S5", 2), ("Z8", 3), ("Z2xZ4", 3)]
BATCH_ORDERED_CASES = [(name, k) for name, top in BATCH_ORDERED for k in range(1, top + 1)]
BATCH_MULTISET_CASES = [("S2", 7), ("S3", 5), ("S4", 3), ("S5", 2), ("S4", 1), ("S5", 1)]


@pytest.mark.parametrize("name,k", BATCH_ORDERED_CASES, ids=[f"{n}-k{k}" for n, k in BATCH_ORDERED_CASES])
def test_ordered_scan_blocks_match_per_pattern_build(name, k):
    # spectrum_rows prints the rounding noise of these blocks, so every
    # block of the scan must be the very same bytes
    G = parse_group(name)
    memo: dict = {}
    for reps, blk in _scan_blocks(G, k, None):
        want = averaged_block_per_pattern(reps, memo)
        assert blk.matrix.dtype == want.dtype
        assert blk.matrix.tobytes() == want.tobytes(), blk.labels


@pytest.mark.parametrize("name,k", BATCH_MULTISET_CASES, ids=[f"{n}-k{k}" for n, k in BATCH_MULTISET_CASES])
def test_multiset_scan_blocks_match_per_pattern_build(name, k, monkeypatch):
    # both builds start from the memo _multiset_spectra seeds; at k <= 2 all
    # of its patterns come from that memo, so no stack may be read
    G = parse_group(name)
    reps = irreps(G)

    def seeded():
        memo = _one_factor_averages(reps)
        if k > 1:
            memo.update(_schur_pair_averages(reps))
        return memo

    ours, theirs = seeded(), seeded()
    combos = list(combinations_with_replacement(reps, k))
    if k <= 2:
        monkeypatch.setattr(Irrep, "stack", lambda self: pytest.fail(f"stack of {self.name} read"))
    built = [_build_block(combo, None, ours).matrix for combo in combos]
    monkeypatch.undo()
    for combo, got in zip(combos, built):
        want = averaged_block_per_pattern(combo, theirs)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), [r.label for r in combo]


def test_clusters_match_per_eigenvalue_cuts():
    # steps just above, at and below CLUSTER_TOL, a single value, and the
    # block spectra that spectrum_rows prints
    cases = [
        np.array([2.0]),
        np.array([3.0, 3.0 - 2e-8, 3.0 - 4e-8, 1.0, 1.0, -1e-16]),
        np.array([1.0, 1.0 - 1e-8, 1.0 - 2e-8, 0.5]),
        np.linspace(1.0, 0.0, 200),
    ]
    rng = np.random.default_rng(7)
    cases.append(np.sort(rng.choice([0.0, 1.0, 2.0], 300) + 1e-9 * rng.random(300))[::-1])
    for reps, blk in _scan_blocks(parse_group("S3"), 3, None):
        cases.append(np.linalg.eigh(blk.matrix)[0][::-1])
    for desc in cases:
        got, want = _cluster(desc), cluster_per_eigenvalue(desc)
        assert [(float(v).hex(), n) for v, n in got] == [(float(v).hex(), n) for v, n in want]


# every abelian group of order at most 16, up to isomorphism
ABELIAN_TO_16 = [f"Z{n}" for n in range(1, 17)] + [
    "Z2xZ2", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3", "Z2xZ6",
    "Z2xZ8", "Z4xZ4", "Z2xZ2xZ4", "Z2xZ2xZ2xZ2",
]


@pytest.mark.parametrize("name", ABELIAN_TO_16)
def test_abelian_rank_matches_scan_and_counting(name):
    # the averaged rank at every k the counted guard admits (6 for Z16, 13
    # for Z4, 21 for Z1), against subset-sum counting wherever the table
    # takes at most 10^8 steps (2|G|)^k, under a second each, which every
    # k <= 3 fits, or holds at most 2^22 cells, which every admitted k of Z1
    # to Z3 fits; the oracle scan and the fixed shifts, which take seconds
    # beyond 512 tuples or three copies, up to k = 3
    G = parse_group(name)
    k = 1
    while k <= 3 or _admitted(G, k):
        rank = state_rank(G, k)
        if (2 * G.order) ** k <= 10 ** 8 or G.order ** (k + 1) <= 2 ** 22:
            assert rank == subset_sum_rank(G, k)
        if k <= 3 and G.order ** k <= 512:
            assert rank == _oracle_scan_rank(G, k)
        for shift in dict.fromkeys((1 % G.order, G.order - 1)) if k <= 3 else ():
            assert state_rank(G, k, shift) == G.order ** k
        k += 1


def _admitted(G, k):
    try:
        _guard_counted_rank(G, k)
    except CapacityError:
        return False
    return True


def test_ten_copy_rank_holds_no_exponent_grid():
    # the k 4^k int64 exponents of the one 1024 x 1024 block would take
    # 84 MB: the cell indices must come from the 2^k bit tuples
    rank, peak = _peak_of(lambda: state_rank(parse_group("Z1"), 10))
    assert rank == subset_sum_rank(parse_group("Z1"), 10) == 1
    assert peak < 30 * 2 ** 20


def test_twelve_copy_rank_by_counting():
    # refused while the one 4096 x 4096 block was solved; counted, it is the
    # class sizes of 4096 sums
    rank, peak = _peak_of(lambda: state_rank(parse_group("Z1"), 12))
    assert rank == subset_sum_rank(parse_group("Z1"), 12) == 1
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize(
    "name,k",
    [
        ("S6", 3), ("S5", 3), ("S4", 4), ("S7", 2),
        ("Z1", 22), ("Z2", 18), ("Z4", 14), ("Z1365", 2), ("Z4096", 2),
    ],
)
def test_state_rank_refusals(name, k):
    G = parse_group(name)
    _, peak = _peak_of(lambda: _refused(lambda: state_rank(G, k)))
    assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("name,k", [("S8", 1)])
def test_state_rank_admissions(name, k):
    # once refused by a stack pre-check, |G| max(d)^2 > 8e6, though a one-copy
    # averaged block reads no stack; admitted, it is the closed form within
    # the refusals' memory bound
    G = parse_group(name)
    irreps(G)
    rank, peak = _peak_of(lambda: state_rank(G, k))
    assert rank == rank_closed_form(G, k)
    assert peak < 10 * 2 ** 20
    assert interior_eigenvalue_check(G, k).found is False


@pytest.mark.parametrize("name,k", [("Z4096", 2), ("Z1", 22)])
def test_abelian_interior_check_admissions(name, k):
    # once refused by the counted-rank guard, though the answer counts
    # nothing: every averaged abelian block eigenvalue is a class size or 0
    G = parse_group(name)
    report, peak = _peak_of(lambda: interior_eigenvalue_check(G, k))
    assert report == InteriorEigenvalueReport(found=False)
    assert peak < 2 ** 20
    with pytest.raises(DomainError, match="copies"):
        interior_eigenvalue_check(G, 0)


@pytest.mark.parametrize("k", [10 ** 4, 10 ** 6])
def test_absurd_scan_copy_counts_are_refused_quickly(k):
    # the multiset guard compares k with a bit length before any power of k,
    # and both callers take 2^k or (2|G|)^k only after it has run
    G = symmetric_group(1)
    for check in (state_rank, interior_eigenvalue_check):
        start = time.perf_counter()
        _refused(lambda: check(G, k))
        assert time.perf_counter() - start < 1.0, check


def test_abelian_ranks_past_twelve_copies():
    # refused by the block-width check of the multiset guard at k = 13,
    # though no block is built: counted, the last admitted k are 21 for Z1,
    # 17 for Z2 and 13 for Z4. Z4 k=13 was checked against a subset-sum table
    # built a slice at a time, since the whole one is 1 GiB
    rank, peak = _peak_of(lambda: state_rank(parse_group("Z1"), 13))
    assert rank == 1 and peak < 4 * 2 ** 20
    rank, peak = _peak_of(lambda: state_rank(parse_group("Z1"), 21))
    assert rank == subset_sum_rank(parse_group("Z1"), 21) == 1
    assert peak < 400 * 2 ** 20
    assert state_rank(parse_group("Z2"), 17) == subset_sum_rank(parse_group("Z2"), 17)
    assert state_rank(parse_group("Z4"), 13) == 268418707


@pytest.mark.parametrize("name,k", [("S8", 6), ("S8", 10 ** 9), ("S6", 8), ("Z1", 22), ("Z4096", 2)])
def test_fixed_shift_rank_refusals(name, k):
    # the counted price compares k with a bit length before any power, so
    # even an absurd k is refused before anything is allocated
    G = parse_group(name)
    irreps(G)
    _, peak = _peak_of(lambda: _refused(lambda: state_rank(G, k, G.order - 1)))
    assert peak < 2 ** 20


def test_fixed_shift_ranks_are_counted_exactly():
    # 40320^5 and every weight D^2 k!/prod(m!) of S8 k=5 pass int64, as does
    # 21! for Z1 k=21: both are summed as Python ints
    G = parse_group("S8")
    rank, peak = _peak_of(lambda: state_rank(G, 5, 3))
    assert rank == 40320 ** 5 == 106562062388507443200000
    assert peak < 8 * 2 ** 20
    assert state_rank(G, 2, 3) == 1625702400
    assert state_rank(parse_group("Z1"), 21, 0) == 1
    with pytest.raises(DomainError):
        state_rank(G, 10 ** 9, G.order)


def test_two_copy_abelian_rank_by_counting():
    # refused while every multiset cost Python; counted per chunk, the guard
    # admits up to Z1364 (0.26 s) and refuses Z1365
    for name in ("Z359", "Z1024"):
        G = parse_group(name)
        rank, peak = _peak_of(lambda: state_rank(G, 2))
        assert rank == rank_closed_form(G, 2)
        assert peak < 8 * 2 ** 20
    _guard_counted_rank(parse_group("Z1364"), 2)


def test_counted_rank_holds_no_bit_table():
    # a 21 x 2^21 int64 table of bit tuples would take 336 MiB; f is the sum
    # of the values over the first 9 copies and over the last 12, and its
    # 2^21 int64 keys (16 MiB) are sorted in place; Z2xZ2 k=13 is the rank
    # the whole 13 x 8192 table gave
    rank, peak = _peak_of(lambda: state_rank(parse_group("Z1"), 21))
    assert rank == 1
    assert peak < 64 * 2 ** 20
    rank, peak = _peak_of(lambda: state_rank(parse_group("Z2"), 17))
    assert rank == subset_sum_rank(parse_group("Z2"), 17)
    assert peak < 8 * 2 ** 20
    assert state_rank(parse_group("Z2xZ2"), 13) == 268386307


def test_counted_rank_holds_no_spectra():
    # the 12,870 multisets of 256 bit tuples each are counted a chunk at a
    # time: no list of their spectra (25 MiB) is kept
    G = parse_group("Z3xZ3")
    rank, peak = _peak_of(lambda: state_rank(G, 8))
    assert rank == 385956801
    assert peak < 8 * 2 ** 20


def test_largest_abelian_three_copy_rank():
    # Z64 k=3 was refused by the ordered-tuple guard; the multiset estimate
    # admits it, and since the blocks are counted it admits up to Z165 and
    # refuses Z166
    G = parse_group("Z64")
    rank, peak = _peak_of(lambda: state_rank(G, 3))
    assert rank == subset_sum_rank(G, 3)
    assert peak < 32 * 2 ** 20
    G = parse_group("Z65")
    assert state_rank(G, 3) == subset_sum_rank(G, 3)
    _guard_counted_rank(parse_group("Z165"), 3)
    with pytest.raises(CapacityError):
        state_rank(parse_group("Z166"), 3)


def test_two_copy_s6_interior_witness():
    # refused by the ordered-tuple guard; the first witness is the block
    # eigenvalue 1 - 1/5 of the pair of five-dimensional irreps
    report, peak = _peak_of(lambda: interior_eigenvalue_check(parse_group("S6"), 2))
    assert report.found and report.labels == ((5, 1), (5, 1))
    assert abs(report.block_eigenvalue - 0.8) < 1e-12
    assert abs(report.witness - 0.8 / 1440 ** 2) < 1e-12
    assert peak < 16 * 2 ** 20


def test_two_copy_s6_rank_equals_closed_form():
    G = parse_group("S6")
    rank, peak = _peak_of(lambda: state_rank(G, 2))
    assert rank == rank_closed_form(G, 2) == 2070001
    assert peak < 64 * 2 ** 20


def test_largest_abelian_four_copy_rank():
    # Z17 k=4 was refused by the ordered-tuple guard; the multiset estimate
    # admitted up to Z25, and since the blocks are counted it admits up to
    # Z58 and refuses Z59
    G = parse_group("Z17")
    rank, peak = _peak_of(lambda: state_rank(G, 4))
    assert rank == subset_sum_rank(G, 4)
    assert peak < 16 * 2 ** 20
    G = parse_group("Z26")
    assert state_rank(G, 4) == subset_sum_rank(G, 4)
    _guard_counted_rank(parse_group("Z58"), 4)
    with pytest.raises(CapacityError):
        state_rank(parse_group("Z59"), 4)


# ---------------------------------------------------------------------------
# connected blocks of a dense matrix, and the byte estimates of the guards


def _pattern_cases():
    S3 = symmetric_group(3)
    yield averaged_shift_state_dense(S3, 2).dense
    yield maximally_mixed_state(S3, 3).dense
    for s, t in ((1, 2), (0, 1)):
        yield shift_state_dense(S3, s, 3).dense - shift_state_dense(S3, t, 3).dense
    # complex blocks of unequal sizes under a hidden permutation
    rng = np.random.default_rng(11)
    sizes = (1, 3, 3, 5, 2, 7)
    M = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    off = 0
    for n in sizes:
        M[off : off + n, off : off + n] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        off += n
    p = rng.permutation(len(M))
    yield M[np.ix_(p, p)]


def test_pattern_blocks_rebuild_the_matrix():
    for M in _pattern_cases():
        out = np.zeros_like(M)
        covered = np.zeros(len(M), dtype=int)
        for index, stack in _pattern_blocks(M):
            count, size = index.shape
            assert stack.shape == (count, size, size)
            assert np.all(np.diff(index, axis=1) > 0)
            out[index[:, :, None], index[:, None, :]] = stack
            covered[index.ravel()] += 1
        assert np.all(covered == 1)
        assert out.dtype == M.dtype and out.tobytes() == M.tobytes()


def test_pattern_blocks_of_s3_three_copy_states():
    S3 = symmetric_group(3)

    def shapes(M):
        return [index.shape for index, _ in _pattern_blocks(M)]

    def pair(s, t):
        return shift_state_dense(S3, s, 3).dense - shift_state_dense(S3, t, 3).dense

    assert shapes(maximally_mixed_state(S3, 3).dense) == [(1728, 1)]
    assert shapes(pair(1, 2)) == [(8, 216)]
    assert shapes(pair(0, 1)) == [(27, 64)]
    # the averaged state is connected: one block, which is the matrix itself
    averaged = averaged_shift_state_dense(S3, 3).dense
    ((index, stack),) = _pattern_blocks(averaged)
    assert np.array_equal(index[0], np.arange(1728)) and np.shares_memory(stack, averaged)


@pytest.mark.parametrize("name,k", [("S3", 2), ("Z4", 3), ("S3", 3)])
def test_dense_estimate_covers_the_helstrom_peak(name, k):
    G = parse_group(name)

    def run():
        first = averaged_shift_state_dense(G, k).dense
        second = maximally_mixed_state(G, k).dense
        return helstrom(first, second)

    _, peak = _peak_of(run)
    estimate = _dense_bytes((2 * G.order) ** k)
    assert estimate / 2 < peak <= estimate


def test_dense_guard_counts_bytes():
    # Z4 k=4 (the ROADMAP's dense timing), the largest dense inputs the tests
    # and the benchmark use (S6 k=1 in the graph oracles), then the largest
    # orders admitted at k = 2 and k = 3
    for name, k in [("Z4", 4), ("S4", 2), ("S3", 3), ("S6", 1), ("Z40", 2), ("Z9", 3)]:
        _guard_dense(parse_group(name), k)
    # dimensions 10,000, 8,000, 10,000 and 7,776: six 800 MB matrices for Z50 k=2
    refusals = [("Z50", 2), ("Z10", 3), ("Z5", 4), ("Z3", 5)]
    for name, k in refusals:
        G = parse_group(name)
        for build in (
            lambda: shift_state_dense(G, 0, k),
            lambda: averaged_shift_state_dense(G, k),
            lambda: maximally_mixed_state(G, k),
        ):
            _, peak = _peak_of(lambda: _refused(build))
            assert peak < 2 ** 20


# ---------------------------------------------------------------------------
# the multiset rank scan against the ordered-tuple scan it replaced


def _tuple_scan_rank(G, k, shift):
    """state_rank as the ordered-tuple scan: every block of _scan_blocks."""
    spectra = [
        (blk.multiplicity, np.linalg.eigvalsh(blk.matrix)) for _, blk in _scan_blocks(G, k, shift)
    ]
    top = max(float(np.max(np.abs(w))) for _, w in spectra)
    return sum(mult * int(np.sum(w > 1e-8 * top)) for mult, w in spectra)


def _tuple_scan_copies(G, guard=_guard_block_scan):
    """Every k that the guard admits, by default that of the ordered-tuple scan."""
    k = 1
    while True:
        try:
            guard(G, k)
        except CapacityError:
            return range(1, k)
        k += 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_multiset_rank_matches_tuple_scan(n):
    G = symmetric_group(n)
    seeded = int(np.random.default_rng(n).integers(G.order))
    for k in _tuple_scan_copies(G):
        for shift in dict.fromkeys((None, 1 % G.order, G.order - 1, seeded)):
            assert state_rank(G, k, shift) == _tuple_scan_rank(G, k, shift), (k, shift)


@pytest.mark.parametrize("name", ["S3", "S4", "S5"])
def test_schur_pair_averages_match_stack_means(name):
    reps = irreps(parse_group(name))
    by_label = {r.label: r for r in reps}
    memo = _schur_pair_averages(reps)
    assert len(memo) == 4 * len(reps) ** 2
    ones = _one_factor_averages(reps)
    assert len(ones) == 2 * len(reps)
    for key, avg in {**memo, **ones}.items():
        pair = [by_label[label] for label, _ in key]
        want = _average_product(pair, [e for _, e in key])
        assert avg.shape == want.shape
        assert np.max(np.abs(avg - want)) < 1e-12, key


def test_complex_stacks_fall_back_to_stack_averages():
    # S3's irreps conjugated by a complex unitary: still irreps, but
    # avg rho (x) rho is (U (x) U)|Phi><Phi|(U (x) U)^dagger/d, not |Phi><Phi|/d
    G = symmetric_group(3)
    rng = np.random.default_rng(5)
    reps = []
    for r in irreps(G):
        U, _ = np.linalg.qr(rng.standard_normal((r.dim, r.dim)) + 1j * rng.standard_normal((r.dim, r.dim)))
        rep = Irrep(G, r.label, r.dim)
        rep._stack = U @ r.stack() @ U.conj().T
        reps.append(rep)
    std = reps[1]
    phi = np.eye(2).reshape(4)
    assert np.max(np.abs(_average_product([std, std], [1, 1]) - np.outer(phi, phi) / 2)) > 1e-3
    assert _schur_pair_averages(tuple(reps)) == {}
    assert _schur_pair_averages(irreps(parse_group("Z4"))) == {}
    for combo in ((std, std), (reps[0], std), (std, reps[2])):
        seeded = _build_block(combo, None, _schur_pair_averages(tuple(reps))).matrix
        assert seeded.tobytes() == _build_block(combo, None, {}).matrix.tobytes()


def test_multiset_scan_work_counts_every_pattern():
    # the estimate of _guard_multiset_scan against every irrep multiset and
    # every pattern counted one by one, and that of _guard_counted_rank
    # against every irrep multiset
    for name, k in [("Z4", 3), ("Z3xZ3", 8), ("S4", 3), ("S8", 2)]:
        G = parse_group(name)
        want = len(list(combinations_with_replacement(irreps(G), k)))
        assert _guard_counted_rank(G, k) == want * (COUNT_MULTISET_WORK + COUNT_ENTRY_WORK * k * 2 ** k)
    for name, k in [("S3", 3), ("S3", 5), ("S4", 3), ("S5", 2)]:
        G = parse_group(name)
        want = 0
        for combo in combinations_with_replacement(irreps(G), k):
            ds = [r.dim for r in combo]
            want += ((2 ** k) * prod(ds)) ** 3 + MULTISET_WORK + GRID_ENTRY_WORK * k * 4 ** k
            for z in product((-1, 0, 1), repeat=k):
                want += PATTERN_STEP_WORK
                nz = [d for d, e in zip(ds, z) if e]
                if len(nz) >= 3:
                    want += G.order * prod(nz) ** 2
        assert _guard_multiset_scan(G, k) == want


# ---------------------------------------------------------------------------
# the multiset spectra against the ordered-tuple interior scan they replaced


def _tuple_scan_interior(G, k, margin=1e-8):
    """interior_eigenvalue_check as the ordered-tuple scan: the first block of
    _scan_blocks with an eigenvalue in (margin, 1 - margin)."""
    for _, blk in _scan_blocks(G, k, None):
        w = np.linalg.eigvalsh(blk.matrix)
        inside = w[(w > margin) & (w < 1.0 - margin)]
        if len(inside):
            return blk.labels, float(inside.min())
    return None, None


@pytest.mark.parametrize("name", [f"S{n}" for n in range(1, 6)] + ABELIAN_TO_16)
def test_interior_check_matches_tuple_scan(name):
    # no abelian group reports an interior value: its averaged blocks are
    # all-ones blocks on the classes of f(x) = sum_j x_j w_j, so their
    # eigenvalues are integers, and the check answers without a scan
    G = parse_group(name)
    for k in _tuple_scan_copies(G)[:3]:
        labels, value = _tuple_scan_interior(G, k)
        report = interior_eigenvalue_check(G, k)
        assert report.found == (labels is not None), k
        assert report.labels == labels, k
        if report.found:
            assert abs(report.block_eigenvalue - value) < 1e-12
            assert abs(report.witness - value / (2 * G.order) ** k) < 1e-12


@pytest.mark.parametrize("name", ABELIAN_TO_16)
def test_abelian_counted_spectra_match_eigvalsh(name):
    # the counted ranks against the eigensolved blocks that state_block builds
    # from the stacks, each multiset weighted by its k!/prod(m!) orderings,
    # with the state's cutoff: 1e-8 of the largest block eigenvalue
    G = parse_group(name)
    for k in (1, 2, 3):
        for shift in dict.fromkeys((None, 1 % G.order, G.order - 1)):
            spectra = [
                (
                    factorial(k) // prod(map(factorial, Counter(combo).values())),
                    np.linalg.eigvalsh(state_block(combo, shift).matrix),
                )
                for combo in combinations_with_replacement(irreps(G), k)
            ]
            top = max(float(np.max(w)) for _, w in spectra)
            want = sum(weight * int(np.sum(w > 1e-8 * top)) for weight, w in spectra)
            assert state_rank(G, k, shift) == want, (k, shift)


# S1-S6, Z2-Z16 and every product of order at most 16
WEIGHT_GROUPS = [f"S{n}" for n in range(1, 7)] + [f"Z{n}" for n in range(2, 17)] + ABELIAN_TO_16[16:]


@pytest.mark.parametrize("name", WEIGHT_GROUPS)
def test_multiset_weights_count_every_dimension(name):
    # a fixed-shift block is 2^k times a projector of rank D, so the counted
    # rank is the sum of the weights D^2 k!/prod(m!), which must be |G|^k
    # at every k the counted guard admits; the averaged weights D k!/prod(m!)
    # times the block sizes 2^k D fill (2|G|)^k, for every k that the scan's
    # own guard admits
    G = parse_group(name)
    for k in _tuple_scan_copies(G, _guard_counted_rank):
        for shift in dict.fromkeys((1 % G.order, G.order - 1)):
            assert state_rank(G, k, shift) == G.order ** k, (k, shift)
    if G.is_abelian:
        return
    for k in _tuple_scan_copies(G, _guard_multiset_scan):
        spectra = list(_multiset_spectra(G, k))
        assert [combo for combo, _, _ in spectra] == list(
            combinations_with_replacement(irreps(G), k)
        )
        total = sum(weight * len(w) for _, weight, w in spectra)
        assert total == (2 * G.order) ** k, k


@pytest.mark.parametrize("name", [f"S{n}" for n in range(1, 7)] + ABELIAN_TO_16)
def test_one_copy_state_matches_stack_averaged_state(name):
    # the Schur-seeded one-copy blocks against the stack-averaged ones: the
    # same dtype and diagonal floats, exact zeros for the averages' noise
    G = parse_group(name)
    for shift in dict.fromkeys((None, 1 % G.order, G.order - 1)):
        want = block_shift_state(G, 1, shift)
        got = one_copy_state(G, shift)
        got.validate()
        assert (got.variant, got.shift) == (want.variant, want.shift)
        assert list(got.blocks) == list(want.blocks)
        for a, b in zip(got.blocks.values(), want.blocks.values()):
            assert (a.labels, a.multiplicity, a.matrix.dtype) == (b.labels, b.multiplicity, b.matrix.dtype)
            assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12
            assert np.diagonal(a.matrix).tobytes() == np.diagonal(b.matrix).tobytes()
        assert weak_sampling_distribution(got) == weak_sampling_distribution(want)


def test_one_copy_outputs_read_no_stack(monkeypatch):
    # whatever stacks an earlier test left in the irreps memo, none is read
    def refuse(self):
        raise AssertionError(f"stack of {self!r} was read")

    monkeypatch.setattr(Irrep, "stack", refuse)
    G = symmetric_group(7)
    dist = weak_sampling_distribution(one_copy_state(G))
    assert max(abs(dist[r.label] - r.dim ** 2 / G.order) for r in irreps(G)) <= 1e-15
    assert state_rank(G, 1) == rank_closed_form(G, 1)
    assert interior_eigenvalue_check(G, 1).found is False
    # S8 one copy, averaged and at a shift, its counted fixed-shift rank, and
    # its averaged rank and interior check, whose blocks are all seeded
    G = symmetric_group(8)
    for shift in (None, 5):
        dist = weak_sampling_distribution(one_copy_state(G, shift))
        assert max(abs(dist[r.label] - r.dim ** 2 / G.order) for r in irreps(G)) <= 1e-15
    assert state_rank(G, 1, 5) == G.order
    assert state_rank(G, 1) == rank_closed_form(G, 1) == 80639
    assert interior_eigenvalue_check(G, 1).found is False


def test_s7_fixed_shift_block_ignores_a_built_stack():
    # above _EAGER_STACK_ORDER a matrix is the word product whether or not
    # the stack exists; a fresh irrep, so no other test's stack is reused
    G = symmetric_group(7)
    rep = Irrep(G, (5, 2), 14)
    before = state_block((rep,), 2500).matrix.tobytes()
    rep.stack()
    assert state_block((rep,), 2500).matrix.tobytes() == before


def _oracle_single_copy_dense(group, s):
    """_single_copy_dense as first written, from two regular representations."""
    N = group.order
    R = regular_rep(group, s)
    Rinv = regular_rep(group, group.inverse(s))
    top = np.hstack([np.eye(N), R])
    bot = np.hstack([Rinv, np.eye(N)])
    return np.vstack([top, bot]) / (2.0 * N)


@pytest.mark.parametrize("name", [f"S{n}" for n in range(1, 6)] + ABELIAN_TO_16)
def test_dense_builds_match_the_stacked_construction(name):
    G = parse_group(name)
    for s in G.elements():
        assert single_copy_dense(G, s).tobytes() == _oracle_single_copy_dense(G, s).tobytes(), s
    for k in (1, 2, 3):
        d = (2 * G.order) ** k
        if d > 1728:
            continue
        for s in G.elements():
            got = shift_state_dense(G, s, k).dense
            assert got.tobytes() == shift_state_dense_kron(G, s, k).tobytes(), (k, s)
        got = averaged_shift_state_dense(G, k).dense
        assert got.tobytes() == averaged_shift_state_dense_kron(G, k).tobytes(), k
        assert maximally_mixed_state(G, k).dense.tobytes() == (np.eye(d) / d).tobytes()
