"""Discrimination, POVM machinery, weak sampling, and sweep reproducibility."""

import tracemalloc

import numpy as np
import pytest

import hslab.measurements
from hslab.errors import CapacityError, ConsistencyError, DomainError
from hslab.groups import abelian_group, parse_group, symmetric_group
from hslab.irreps import irreps
from hslab.measurements import (
    Povm,
    _check_density,
    _guard_outcomes,
    _random_rank_one,
    _stream,
    helstrom,
    indistinguishability_sweep,
    random_povm,
    single_register_distributions,
    tv_distance,
    variance_bound_rows,
    weak_sampling_distribution,
    weighted_variance_sum,
)
from hslab.states import (
    _density_verdicts,
    _pattern_blocks,
    averaged_shift_state_dense,
    block_shift_state,
    maximally_mixed_state,
    shift_state_dense,
)

from oracles import mixed_state_blocks, refine_povm


# ---------------------------------------------------------------------------
# Helstrom


def test_helstrom_same_state_is_coin_flip():
    rho = np.eye(4) / 4
    res = helstrom(rho, rho)
    assert res.success == pytest.approx(0.5, abs=1e-12)
    assert res.trace_norm == pytest.approx(0.0, abs=1e-12)


def test_helstrom_orthogonal_pure_states():
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    b = np.zeros((3, 3))
    b[1, 1] = 1.0
    res = helstrom(a, b)
    assert res.success == pytest.approx(1.0, abs=1e-12)
    assert res.trace_norm == pytest.approx(2.0, abs=1e-12)


def test_helstrom_success_matches_trace_norm():
    G = symmetric_group(3)
    rho = averaged_shift_state_dense(G).dense
    sigma = maximally_mixed_state(G).dense
    res = helstrom(rho, sigma)
    assert res.success == pytest.approx(0.5 + res.trace_norm / 4.0, abs=1e-12)
    # swapping the arguments keeps the rates; its favored subspace is
    # orthogonal to the original one (they are opposite-sign eigenspaces)
    swapped = helstrom(sigma, rho)
    assert swapped.success == pytest.approx(res.success, abs=1e-12)
    assert swapped.trace_norm == pytest.approx(res.trace_norm, abs=1e-12)
    assert np.max(np.abs(res.projector_first @ swapped.projector_first)) < 1e-9
    contained = swapped.projector_second @ res.projector_first
    assert np.allclose(contained, res.projector_first, atol=1e-9)


def test_helstrom_outputs_form_a_measurement():
    G = abelian_group(4)
    res = helstrom(averaged_shift_state_dense(G).dense, maximally_mixed_state(G).dense)
    e1, e2 = res.projector_first, res.projector_second
    assert np.allclose(e1 + e2, np.eye(8), atol=1e-12)
    assert np.allclose(e1 @ e1, e1, atol=1e-10)
    assert np.allclose(e2 @ e2, e2, atol=1e-10)
    # the second projector is derived on access, not stored
    assert [type(v) for v in vars(res).values()].count(np.ndarray) == 1


def test_helstrom_rejects_bad_input():
    good = np.eye(2) / 2
    with pytest.raises(DomainError):
        helstrom(np.ones((2, 3)), good)
    with pytest.raises(DomainError):
        helstrom(np.array([[0.5, 1.0], [0.0, 0.5]]), good)  # not Hermitian
    with pytest.raises(DomainError):
        helstrom(np.eye(2), good)  # trace 2
    with pytest.raises(DomainError):
        helstrom(np.diag([1.5, -0.5]), good)  # negative eigenvalue
    with pytest.raises(DomainError):
        helstrom(np.eye(3) / 3, good)  # dimension mismatch


def rotated_density(dim, lowest, seed):
    """Seeded random density whose smallest eigenvalue is `lowest`."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, _ = np.linalg.qr(Z)
    w = rng.uniform(0.5, 1.5, dim)
    w[0] = 0.0
    w *= (1.0 - lowest) / w.sum()
    w[0] = lowest
    M = (Q * w) @ Q.conj().T
    return (M + M.conj().T) / 2


@pytest.mark.parametrize("dim", [4, 216])
def test_helstrom_positivity_threshold(dim):
    mixed = np.eye(dim) / dim
    for seed in range(2):
        bad = rotated_density(dim, -2e-8, seed)
        assert np.linalg.eigvalsh(bad).min() < -1e-8
        with pytest.raises(DomainError, match="positive semidefinite"):
            helstrom(bad, mixed)
        with pytest.raises(DomainError, match="positive semidefinite"):
            helstrom(mixed, bad)
        good = rotated_density(dim, -5e-9, seed)
        assert np.linalg.eigvalsh(good).min() > -1e-8
        helstrom(good, mixed)
        helstrom(mixed, good)


def _helstrom_cases():
    S3, Z4 = symmetric_group(3), abelian_group(4)
    yield averaged_shift_state_dense(S3, 2).dense, maximally_mixed_state(S3, 2).dense
    yield averaged_shift_state_dense(Z4, 3).dense, maximally_mixed_state(Z4, 3).dense
    for s in range(S3.order):
        for t in range(s + 1, S3.order):
            yield shift_state_dense(S3, s, 2).dense, shift_state_dense(S3, t, 2).dense


def test_helstrom_matches_matrix_product_traces():
    for r1, r2 in _helstrom_cases():
        res = helstrom(r1, r2)
        e1, e2 = res.projector_first, res.projector_second
        success = 0.5 * (np.trace(e1 @ r1) + np.trace(e2 @ r2)).real
        assert abs(res.success - success) <= 1e-12
        assert abs(res.trace_norm - np.abs(np.linalg.eigvalsh(r1 - r2)).sum()) <= 1e-12
        assert np.allclose(e1 + e2, np.eye(len(r1)), atol=1e-12)
        assert np.allclose(e1 @ e1, e1, atol=1e-10)


def block_density(sizes, seed, lowest=None):
    """Seeded random density, block diagonal with blocks of the given sizes
    under a hidden permutation (drawn from seed 0, so shared by every call
    with the same sizes). With `lowest`, the first block holds the smallest
    eigenvalue, equal to `lowest`."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    w = rng.uniform(0.5, 1.5, n)
    if lowest is None:
        w /= w.sum()
    else:
        w[0] = 0.0
        w *= (1.0 - lowest) / w.sum()
        w[0] = lowest
    M = np.zeros((n, n), dtype=complex)
    off = 0
    for size in sizes:
        Z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        Q, _ = np.linalg.qr(Z)
        M[off : off + size, off : off + size] = (Q * w[off : off + size]) @ Q.conj().T
        off += size
    M = (M + M.conj().T) / 2
    p = np.random.default_rng(0).permutation(n)
    return M[np.ix_(p, p)]


@pytest.mark.parametrize("sizes", [(4, 4, 4), (3, 1, 8, 2, 5)])
def test_block_positivity_threshold(sizes):
    n = sum(sizes)
    mixed = np.eye(n) / n
    for seed in range(2):
        bad = block_density(sizes, seed, -2e-8)
        found = sorted(size for index, _ in _pattern_blocks(bad) for size in [index.shape[1]] * len(index))
        assert found == sorted(sizes)
        assert np.linalg.eigvalsh(bad).min() < -1e-8
        assert _density_verdicts(bad, 1e-10, 1e-8) == (True, True, False)
        with pytest.raises(DomainError, match="positive semidefinite"):
            helstrom(bad, mixed)
        good = block_density(sizes, seed, -5e-9)
        assert np.linalg.eigvalsh(good).min() > -1e-8
        assert _density_verdicts(good, 1e-10, 1e-8) == (True, True, True)
        helstrom(good, mixed)


def _oracle_check_density(M, who):
    """The message _check_density raised as first written, or None: a
    full-matrix Hermitian check, the trace, then the blockwise Cholesky test."""
    if np.max(np.abs(M - (M.T if np.isrealobj(M) else M.conj().T))) > 1e-10:
        return f"{who} must be Hermitian"
    if abs(np.trace(M).real - 1.0) > 1e-8:
        return f"{who} must have unit trace"
    for _, stack in _pattern_blocks(M):
        shifted = stack.copy()
        np.einsum("...ii->...i", shifted)[...] += 1e-8
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return f"{who} must be positive semidefinite"
    return None


def _density_cases():
    """(matrix, expected message) pairs: S3 states, then one flaw each, or two
    whose order of report matters."""
    S3 = symmetric_group(3)
    for k in (1, 2, 3):
        yield averaged_shift_state_dense(S3, k).dense, None
        yield maximally_mixed_state(S3, k).dense, None
        for s in S3.elements():
            yield shift_state_dense(S3, s, k).dense, None
    mixed = np.eye(12) / 12
    for value, message in ((1e-9, "Hermitian"), (1e-11, None)):
        # one asymmetric entry linking two otherwise separate 1 x 1 blocks
        M = mixed.copy()
        M[0, 5] = value
        yield M, message
    fixed = shift_state_dense(S3, 1, 1).dense
    i = np.flatnonzero(fixed[0])[-1]
    for imag, message in ((1e-9, "Hermitian"), (1e-11, None)):
        # a complex pair inside a 2 x 2 block, equal where it should be conjugate
        M = fixed.astype(complex)
        M[i, 0] = M[0, i] = fixed[i, 0] + 1j * imag
        yield M, message
    bad = block_density((4, 4, 4), 0, -2e-8)
    yield bad, "positive semidefinite"
    yield 1.1 * bad, "unit trace"
    yield (1.0 + 5e-9) * bad, "positive semidefinite"
    M = 1.1 * bad
    M[0, 1] += 1e-6
    yield M, "Hermitian"


def test_density_check_matches_the_full_matrix_checks():
    expected = {None: None, "Hermitian": "state must be Hermitian",
                "unit trace": "state must have unit trace",
                "positive semidefinite": "state must be positive semidefinite"}
    cases = list(_density_cases())
    assert len(cases) == 3 * 8 + 8
    for M, message in cases:
        try:
            _check_density(M, "state")
            got = None
        except DomainError as exc:
            got = str(exc)
        assert got == _oracle_check_density(M, "state") == expected[message]


def test_helstrom_rejects_non_finite_entries():
    # the old checks passed this: helstrom gave success 0.5 and trace norm nan
    mixed = np.eye(4) / 4
    M = mixed.copy()
    M[0, 1] = M[1, 0] = np.nan
    assert _oracle_check_density(M, "first state") is None
    with pytest.raises(DomainError, match="first state must have finite entries"):
        helstrom(M, mixed)
    M[0, 1] = M[1, 0] = np.inf
    with pytest.raises(DomainError, match="second state must have finite entries"):
        helstrom(mixed, M)
    # reported before an asymmetric entry in a block walked earlier (a
    # smaller one)
    mixed = np.eye(6) / 6
    M = mixed.copy()
    M[0, 1] = 1e-6
    M[2, 3] = M[3, 2] = -np.inf
    M[3, 4] = M[4, 3] = 0.01
    with pytest.raises(DomainError, match="first state must have finite entries"):
        helstrom(M, mixed)


def _oracle_helstrom_message(r1, r2):
    """The message helstrom raised as first written, or None: all checks of
    the first state, then all of the second (square, finite, then
    _oracle_check_density), then the shapes."""
    for M, who in ((r1, "first state"), (r2, "second state")):
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            return f"{who} must be a square matrix"
        if not np.isfinite(M).all():
            return f"{who} must have finite entries"
        message = _oracle_check_density(M, who)
        if message is not None:
            return message
    return None if r1.shape == r2.shape else "states must share one dimension"


def real_density(dim, lowest, seed):
    """Seeded random real density whose smallest eigenvalue is `lowest`."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    w = rng.uniform(0.5, 1.5, dim)
    w[0] = 0.0
    w *= (1.0 - lowest) / w.sum()
    w[0] = lowest
    M = (Q * w) @ Q.T
    return (M + M.T) / 2


def _scalar_side_cases():
    """(first, second, whether a side is a unit-trace real c I of the other's
    shape): non-PSD, near-PSD and flawed states next to such a side, and next
    to scalar sides that miss one condition."""
    d = 24
    scalar = np.eye(d) / d
    states = []
    for lowest in (-2e-8, -5e-9):
        states += [rotated_density(d, lowest, 0), real_density(d, lowest, 1)]
    flawed = real_density(d, 1e-3, 2)
    flawed[0, 1] = np.nan
    states.append(flawed)
    states.append(real_density(d, 1e-3, 2) + np.triu(np.full((d, d), 1e-6), 1))
    states.append(1.1 * real_density(d, -2e-8, 3))
    for M in states:
        yield M, scalar, True
        yield scalar, M, True
        for other in (1.1 * scalar, np.eye(d + 1) / (d + 1), scalar.astype(complex)):
            yield M, other, False
            yield other, M, False
    yield scalar, scalar, True
    yield scalar.astype(complex), scalar, True


def test_scalar_side_positivity_matches_the_cholesky_checks(monkeypatch):
    tolerances = []

    def spy(M, herm_tol, psd_tol):
        tolerances.append(psd_tol)
        return _density_verdicts(M, herm_tol, psd_tol)

    monkeypatch.setattr(hslab.measurements, "_density_verdicts", spy)
    messages = set()
    for r1, r2, spectral in _scalar_side_cases():
        tolerances.clear()
        try:
            helstrom(r1, r2)
            got = None
        except DomainError as exc:
            got = str(exc)
        assert got == _oracle_helstrom_message(r1, r2)
        # a side is read from the spectrum exactly when the other is c I
        assert (None in tolerances) == spectral
        messages.add(got)
    assert messages == {
        None, "first state must be positive semidefinite", "second state must be positive semidefinite",
        "first state must have finite entries", "second state must have finite entries",
        "first state must be Hermitian", "second state must be Hermitian",
        "first state must have unit trace", "second state must have unit trace",
        "states must share one dimension",
    }


def _oracle_helstrom(r1, r2):
    """helstrom as first written: one eigh of the whole difference, the
    first projector from its eigenvectors, the success from projector traces."""
    w, V = np.linalg.eigh(r1 - r2)
    Vp = V[:, w > 1e-10]
    e1 = Vp @ Vp.conj().T
    e2 = np.eye(r1.shape[0]) - e1
    success = 0.5 * ((e1 * r1.T).sum(axis=1).sum() + (e2 * r2.T).sum(axis=1).sum()).real
    return e1, float(success), float(np.abs(w).sum())


def _differential_cases():
    S3, Z4 = symmetric_group(3), abelian_group(4)
    cases = {}
    for s in range(S3.order):
        for t in range(s + 1, S3.order):
            cases[f"S3-k2-shifts-{s}-{t}"] = lambda s=s, t=t: (
                shift_state_dense(S3, s, 2).dense, shift_state_dense(S3, t, 2).dense
            )
    for G, k in ((S3, 2), (Z4, 3), (S3, 3)):
        cases[f"{G.descriptor}-k{k}-averaged-mixed"] = lambda G=G, k=k: (
            averaged_shift_state_dense(G, k).dense, maximally_mixed_state(G, k).dense
        )
    for s, t in ((1, 2), (0, 1)):
        cases[f"S3-k3-shifts-{s}-{t}"] = lambda s=s, t=t: (
            shift_state_dense(S3, s, 3).dense, shift_state_dense(S3, t, 3).dense
        )
    for sizes in ((5, 5, 5, 5), (1, 2, 9, 4, 4, 6)):
        cases[f"hidden-blocks-{'-'.join(map(str, sizes))}"] = lambda sizes=sizes: (
            block_density(sizes, 1), block_density(sizes, 2)
        )
    cases["dense-random"] = lambda: (rotated_density(30, 1e-3, 0), rotated_density(30, 1e-3, 1))
    return cases


DIFFERENTIAL_CASES = _differential_cases()


@pytest.mark.parametrize("name", list(DIFFERENTIAL_CASES))
def test_helstrom_matches_full_eigh_oracle(name):
    r1, r2 = DIFFERENTIAL_CASES[name]()
    e1, success, trace_norm = _oracle_helstrom(r1, r2)
    res = helstrom(r1, r2)
    assert np.array_equal(res.difference, r1 - r2)
    assert abs(res.success - success) <= 1e-12
    assert abs(res.trace_norm - trace_norm) <= 1e-12
    assert np.max(np.abs(res.projector_first - e1)) <= 1e-10


# ---------------------------------------------------------------------------
# POVMs


def test_random_povm_is_deterministic_per_seed():
    a = random_povm(4, 9, seed=7)
    b = random_povm(4, 9, seed=7)
    c = random_povm(4, 9, seed=8)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.vectors, b.vectors)
    assert not np.array_equal(a.vectors, c.vectors)


def test_random_povm_resolves_identity():
    for seed in range(5):
        povm = random_povm(6, 14, seed=seed)
        povm.validate()
        assert povm.dim == 6
        assert povm.outcomes == 14
        assert povm.completeness_residual() < 1e-12
        assert np.allclose(np.linalg.norm(povm.vectors, axis=1), 1.0, atol=1e-12)


def test_random_povm_square_case_is_a_basis():
    povm = random_povm(5, 5, seed=3)
    assert np.allclose(povm.weights, 1.0, atol=1e-10)
    gram = povm.vectors.conj() @ povm.vectors.T
    assert np.allclose(gram, np.eye(5), atol=1e-10)


def test_random_povm_rejects_too_few_outcomes():
    with pytest.raises(DomainError):
        random_povm(4, 3, seed=0)
    with pytest.raises(DomainError):
        random_povm(0, 4, seed=0)
    with pytest.raises(DomainError):
        random_povm(2, 4, seed=-1)


def test_refine_povm_splits_projectors():
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    w = np.array([1.0, -1.0]) / np.sqrt(2)
    effects = [np.outer(v, v), np.outer(w, w)]
    povm = refine_povm(effects, labels=["plus", "minus"])
    povm.validate()
    assert povm.outcomes == 2
    assert povm.labels == (("plus", 0), ("minus", 0))
    assert np.allclose(povm.weights, 1.0)


def test_refine_povm_splits_mixed_rank_effects():
    # identity/2 twice: each effect contributes dim rank-one pieces
    effects = [np.eye(3) / 2, np.eye(3) / 2]
    povm = refine_povm(effects)
    povm.validate()
    assert povm.outcomes == 6
    assert np.allclose(povm.weights, 0.5)


def test_refine_povm_rejects_bad_effects():
    with pytest.raises(DomainError):
        refine_povm([])
    with pytest.raises(DomainError):
        refine_povm([np.eye(2), np.eye(3)])
    with pytest.raises(DomainError):
        refine_povm([np.eye(2) * 0.7, np.eye(2) * 0.7])  # sums past identity
    with pytest.raises(DomainError):
        refine_povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])  # negative effect
    # not 2-D, or empty: no dimension to read
    for bad in ([np.array(1.0)], [np.ones(2)], [np.eye(2), np.array(0.0)], [np.zeros((0, 0))]):
        with pytest.raises(DomainError):
            refine_povm(bad)
    # nan compares false, so a nan entry would pass the identity-sum check
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            refine_povm([np.diag([bad, 1.0]), np.diag([0.0, 0.0])])
        with pytest.raises(DomainError):
            refine_povm([np.diag([bad, 1.0])])


# ---------------------------------------------------------------------------
# weak sampling


def test_weak_sampling_equals_squared_dimension_profile():
    G = symmetric_group(3)
    expected = {r.label: r.dim ** 2 / G.order for r in irreps(G)}
    for shift in range(G.order):
        dist = weak_sampling_distribution(block_shift_state(G, 1, shift=shift))
        assert set(dist) == set(expected)
        for label, p in dist.items():
            assert p == pytest.approx(expected[label], abs=1e-12)
    averaged = weak_sampling_distribution(block_shift_state(G, 1))
    mixed = weak_sampling_distribution(mixed_state_blocks(G))
    for label in expected:
        assert averaged[label] == pytest.approx(expected[label], abs=1e-12)
        assert mixed[label] == pytest.approx(expected[label], abs=1e-12)


def test_weak_sampling_rejects_other_forms():
    G = abelian_group(3)
    with pytest.raises(DomainError):
        weak_sampling_distribution(shift_state_dense(G, 1))
    with pytest.raises(DomainError):
        weak_sampling_distribution(block_shift_state(G, copies=2))


# ---------------------------------------------------------------------------
# single-register conditional distributions


def test_conditional_distributions_normalize_and_average_to_mixed():
    G = symmetric_group(3)
    rep = [r for r in irreps(G) if r.dim == 2][0]
    povm = random_povm(2 * rep.dim, 8, seed=11)
    dists = single_register_distributions(rep, povm)
    assert dists.per_shift.shape == (G.order, 8)
    assert np.allclose(dists.per_shift.sum(axis=1), 1.0, atol=1e-10)
    assert np.all(dists.per_shift >= -1e-12)
    # averaging over shifts erases the shift for a nontrivial irrep
    assert np.max(np.abs(dists.averaged - dists.mixed)) < 1e-12
    # but individual shifts remain visible
    spread = max(
        tv_distance(dists.per_shift[s], dists.mixed).tv for s in range(G.order)
    )
    assert spread > 1e-3


def test_conditional_distribution_against_direct_born_rule():
    G = abelian_group(5)
    rep = irreps(G)[2]
    povm = random_povm(2, 4, seed=5)
    dists = single_register_distributions(rep, povm)
    for s in range(G.order):
        blk = np.zeros((2, 2), dtype=np.complex128)
        chi = rep.matrix(s)[0, 0]
        blk[0, 0] = blk[1, 1] = 1.0
        blk[0, 1] = chi
        blk[1, 0] = np.conj(chi)
        blk /= 2.0
        for j in range(povm.outcomes):
            v = povm.vectors[j]
            p = povm.weights[j] * np.real(v.conj() @ blk @ v)
            assert dists.per_shift[s, j] == pytest.approx(p, abs=1e-12)


def test_povm_dimension_must_match_block():
    G = symmetric_group(3)
    rep = [r for r in irreps(G) if r.dim == 2][0]
    with pytest.raises(DomainError):
        single_register_distributions(rep, random_povm(2, 4, seed=0))


def test_trivial_irrep_leaks_at_most_half():
    G = symmetric_group(3)
    trivial = irreps(G)[0]
    # the parity basis on the bit register extracts the shift bit fully
    vecs = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    best = Povm(np.array([1.0, 1.0]), vecs.astype(np.complex128), ("plus", "minus"))
    best.validate()
    dists = single_register_distributions(trivial, best)
    assert np.allclose(dists.per_shift, [[1.0, 0.0]] * G.order, atol=1e-12)
    assert tv_distance(dists.per_shift[0], dists.mixed).tv == pytest.approx(0.5)
    # no POVM can beat one half on this block
    for seed in range(30):
        povm = random_povm(2, 4, seed=seed)
        d = single_register_distributions(trivial, povm)
        worst = max(tv_distance(d.per_shift[s], d.mixed).tv for s in range(G.order))
        assert worst <= 0.5 + 1e-10


def test_tv_distance_definition():
    rep = tv_distance([0.5, 0.5], [1.0, 0.0])
    assert rep.l1 == pytest.approx(1.0)
    assert rep.tv == pytest.approx(0.5)
    with pytest.raises(DomainError):
        tv_distance([0.5, 0.5], [1.0])


# ---------------------------------------------------------------------------
# variance bound


def test_weighted_variance_sum_matches_direct_computation():
    G = symmetric_group(3)
    rep = [r for r in irreps(G) if r.dim == 2][0]
    povm = random_povm(4, 9, seed=21)
    value = weighted_variance_sum(rep, povm)
    dists = single_register_distributions(rep, povm)
    direct = 0.0
    for j in range(povm.outcomes):
        col = dists.per_shift[:, j]
        direct += float(np.var(col)) / povm.weights[j]
    assert value == pytest.approx(direct, abs=1e-12)
    assert value <= 1.0 / rep.dim ** 2 + 1e-9


def test_weighted_variance_sum_rejects_trivial():
    G = abelian_group(3)
    with pytest.raises(DomainError):
        weighted_variance_sum(irreps(G)[0], random_povm(2, 4, seed=0))


def test_variance_bound_rows_cover_nontrivial_irreps():
    G = symmetric_group(3)
    rows = variance_bound_rows(G, trials=5, seed=2)
    assert len(rows) == len(irreps(G)) - 1
    for row in rows:
        assert row["within_bound"]
        assert row["max_weighted_variance_sum"] <= row["bound"] + 1e-10
    with pytest.raises(DomainError):
        variance_bound_rows(G, trials=0, seed=2)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_is_reproducible_and_summarized():
    G = symmetric_group(3)
    a = indistinguishability_sweep(G, trials=40, seed=123)
    b = indistinguishability_sweep(G, trials=40, seed=123)
    assert a.rows() == b.rows()
    c = indistinguishability_sweep(G, trials=40, seed=124)
    assert a.rows() != c.rows()

    summary = a.summary()
    assert summary["trials"] == 40
    assert set(summary["tv_quantiles_percent"]) == {0, 25, 50, 75, 100}
    assert summary["tv_quantiles_percent"][100] <= 0.5 + 1e-10
    assert sum(summary["samples_by_block_dim"].values()) == 40
    labels = {r.name for r in irreps(G)}
    assert {s.irrep_label for s in a.samples} <= labels


def test_sweep_respects_outcome_override():
    G = abelian_group(4)
    report = indistinguishability_sweep(G, trials=10, seed=9, outcomes=6)
    assert all(s.povm_outcomes == 6 for s in report.samples)
    assert all(0 <= s.shift_index < G.order for s in report.samples)
    with pytest.raises(DomainError):
        indistinguishability_sweep(G, trials=0, seed=9)


@pytest.mark.parametrize("name", ["S3", "S4", "S5"])
def test_sweep_row_equals_the_full_table_row(name):
    # the sweep builds only the drawn shift's row; replay each trial's draws
    # and read the same row from the whole per-shift table
    G = parse_group(name)
    by_name = {r.name: r for r in irreps(G)}
    for seed in (0, 7, 123):
        for sample in indistinguishability_sweep(G, trials=30, seed=seed).samples:
            rng = _stream(seed, sample.trial)
            rng.random()
            assert int(rng.integers(G.order)) == sample.shift_index
            rep = by_name[sample.irrep_label]
            povm = _random_rank_one(rng, 2 * rep.dim, sample.povm_outcomes)
            dists = single_register_distributions(rep, povm)
            dist = tv_distance(dists.per_shift[sample.shift_index], dists.mixed)
            assert (dist.tv, dist.l1) == (sample.tv, sample.l1)


@pytest.mark.parametrize("name", ["Z2", "S3", "S4", "Z16"])
def test_outcome_guard_prices_one_trial_from_above(monkeypatch, name):
    # a budget just under one trial's measured peak refuses it, and one 6%
    # above the peak admits it: the price is an upper bound, and a close one
    G, m = parse_group(name), 20000

    def trial(rep):
        weighted_variance_sum(rep, _random_rank_one(_stream(0, 0), 2 * rep.dim, m))

    for rep in irreps(G)[1:]:
        trial(rep)  # the stack, and what a first call allocates once
        tracemalloc.start()
        try:
            trial(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(hslab.measurements, "POVM_BYTES_LIMIT", peak - 1)
        with pytest.raises(CapacityError, match=f"{m} outcomes on a {2 * rep.dim}-dimensional block"):
            _guard_outcomes(G, [rep], m)
        monkeypatch.setattr(hslab.measurements, "POVM_BYTES_LIMIT", int(1.06 * peak))
        _guard_outcomes(G, [rep], m)
