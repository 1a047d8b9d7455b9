"""Measurements on hidden-shift states.

Covers optimal two-state discrimination (Helstrom), exact weak sampling of
the irrep label, seeded random rank-one POVMs, the per-irrep conditional
outcome distributions of a single register, their shift-averaged
indistinguishability from the mixed-state distribution, and random POVM
sweeps quantifying that indistinguishability empirically.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ConsistencyError, DomainError
from .groups import Group
from .irreps import Irrep, irreps, plancherel
from .states import ShiftState, _density_verdicts, _pattern_blocks

# budget of one random-POVM trial of sweep and variance-bound
POVM_BYTES_LIMIT = 2 ** 31


# ---------------------------------------------------------------------------
# Helstrom discrimination


@dataclass
class HelstromResult:
    """Optimal two-outcome measurement for equal-prior state discrimination.

    Holds the difference rho_first - rho_second; the projectors are derived
    from it on access, block by block.
    """

    difference: np.ndarray
    success: float
    trace_norm: float

    @property
    def projector_first(self) -> np.ndarray:
        """Projector onto the eigenvectors of the difference with eigenvalue above 1e-10."""
        D = self.difference
        out = np.zeros(D.shape, dtype=np.result_type(D, 1.0))
        for index, stack in _pattern_blocks(D):
            w, V = np.linalg.eigh(stack)
            Vp = V * (w > 1e-10)[:, None, :]
            out[index[:, :, None], index[:, None, :]] = Vp @ V.conj().transpose(0, 2, 1)
        return out

    @property
    def projector_second(self) -> np.ndarray:
        """The complementary effect I - projector_first."""
        e1 = self.projector_first
        return np.eye(len(e1)) - e1


def _check_density(M: np.ndarray, who: str, psd_tol: float | None = 1e-8) -> np.ndarray:
    """Raise DomainError on the first failed check: square, finite, Hermitian,
    unit trace, then (unless psd_tol is None) no eigenvalue below -psd_tol."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"{who} must be a square matrix")
    finite, hermitian, positive = _density_verdicts(M, 1e-10, psd_tol)
    if not finite:
        raise DomainError(f"{who} must have finite entries")
    if not hermitian:
        raise DomainError(f"{who} must be Hermitian")
    if abs(np.trace(M).real - 1.0) > 1e-8:
        raise DomainError(f"{who} must have unit trace")
    if not positive:
        raise DomainError(f"{who} must be positive semidefinite")
    return M


def _unit_scalar(M, other) -> float | None:
    """c when M is a real array c I with unit trace and the shape of the array
    other, else None. Such an M passes every check of _check_density."""
    if not (isinstance(M, np.ndarray) and isinstance(other, np.ndarray)):
        return None
    if M.dtype.kind != "f" or M.ndim != 2 or M.shape != other.shape or M.shape[0] != M.shape[1]:
        return None
    if not abs(np.trace(M) - 1.0) <= 1e-8:
        return None
    c = M[0, 0]
    if not (np.diagonal(M) == c).all() or np.count_nonzero(M) != len(M):
        return None
    return float(c)


def helstrom(rho_first: np.ndarray, rho_second: np.ndarray) -> HelstromResult:
    """Measure the positive part of the difference of two density matrices.

    The first projector collects eigenvectors of D = rho_first - rho_second
    with eigenvalue above 1e-10; null directions go to the second outcome.
    Only the eigenvalues w of D are computed, one connected block of D at a
    time: the trace norm is sum |w| and the equal-prior success
    (tr e1 rho_first + tr e2 rho_second) / 2 is (tr rho_second + sum_{w > 1e-10} w) / 2.

    When one state is c I (real, unit trace, the other's shape), it passes
    every check, and the other state's eigenvalues are c + w (c - w when
    c I comes first): its positivity is read from w, with the same -1e-8
    threshold, instead of from a Cholesky factorization. The checks run and
    fail in the same order either way.
    """
    c_second = _unit_scalar(rho_second, rho_first)
    c_first = None if c_second is not None else _unit_scalar(rho_first, rho_second)
    r1 = _check_density(rho_first, "first state", None if c_second is not None else 1e-8)
    r2 = _check_density(rho_second, "second state", None if c_first is not None else 1e-8)
    if r1.shape != r2.shape:
        raise DomainError("states must share one dimension")
    D = r1 - r2
    w = np.concatenate([np.linalg.eigvalsh(stack).ravel() for _, stack in _pattern_blocks(D)])
    if c_second is not None and c_second + w.min() <= -1e-8:
        raise DomainError("first state must be positive semidefinite")
    if c_first is not None and c_first - w.max() <= -1e-8:
        raise DomainError("second state must be positive semidefinite")
    success = 0.5 * (np.trace(r2).real + w[w > 1e-10].sum())
    return HelstromResult(D, float(success), float(np.abs(w).sum()))


# ---------------------------------------------------------------------------
# POVMs with rank-one effects


@dataclass
class Povm:
    """Weighted rank-one POVM: effects weights[j] * |vectors[j]><vectors[j]|."""

    weights: np.ndarray
    vectors: np.ndarray
    labels: tuple

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def outcomes(self) -> int:
        return self.vectors.shape[0]

    def completeness_residual(self) -> float:
        gram = (self.vectors.conj().T * self.weights) @ self.vectors
        return float(np.max(np.abs(gram - np.eye(self.dim))))

    def validate(self) -> None:
        if np.any(self.weights <= 0):
            raise ConsistencyError("POVM weights must be positive")
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ConsistencyError("POVM vectors must be unit length")
        resid = self.completeness_residual()
        if resid > 1e-10:
            raise ConsistencyError(f"POVM effects do not sum to identity ({resid:.3e})")


def random_povm(dim: int, outcomes: int, seed: int) -> Povm:
    """Seeded random rank-one POVM with `outcomes` effects on C^dim.

    Draws a dim x outcomes complex Gaussian matrix from a counter-based
    Philox stream keyed by the seed, then symmetrizes with the inverse
    square root of the column Gram total so the effects resolve the
    identity. outcomes == dim reduces to a Haar-like orthonormal basis
    measurement with all weights equal to one.
    """
    rng = _stream(seed, 0)
    return _random_rank_one(rng, dim, outcomes)


def _stream(seed: int, index: int) -> np.random.Generator:
    if not 0 <= int(seed) < 2 ** 64 or not 0 <= int(index) < 2 ** 64:
        raise DomainError("seed and stream index must fit in 64 bits")
    key = np.array([int(seed), int(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _random_rank_one(rng: np.random.Generator, dim: int, outcomes: int) -> Povm:
    if dim < 1:
        raise DomainError("dimension must be positive")
    if outcomes < dim:
        raise DomainError("a rank-one resolution needs at least dim outcomes")
    Z = (
        rng.standard_normal((dim, outcomes)) + 1j * rng.standard_normal((dim, outcomes))
    ) / np.sqrt(2.0)
    gram_total = Z @ Z.conj().T
    w, V = np.linalg.eigh(gram_total)
    if w.min() <= 1e-12 * w.max():
        raise ConsistencyError("degenerate Gaussian draw; choose another seed")
    inv_sqrt = (V * (w ** -0.5)) @ V.conj().T
    C = inv_sqrt @ Z
    norms = np.linalg.norm(C, axis=0)
    vectors = (C / norms).T
    weights = norms ** 2
    return Povm(weights, vectors, tuple(range(outcomes)))


# ---------------------------------------------------------------------------
# weak sampling and single-register distributions


def weak_sampling_distribution(state: ShiftState) -> dict[tuple, float]:
    """Distribution of the irrep label measured on one register.

    Computed exactly from block traces: the label rho occurs with weight
    d_rho * tr(block) / (2|G|). For every variant of the single-copy state
    this equals d_rho^2 / |G|.
    """
    if state.copies != 1 or state.form != "block":
        raise DomainError("weak sampling expects a single-copy block-form state")
    group = state.group
    dims = {r.label: r.dim for r in irreps(group)}
    out = {}
    for labels, blk in state.blocks.items():
        label = labels[0]
        out[label] = dims[label] * float(np.trace(blk.matrix).real) / (2 * group.order)
    total = sum(out.values())
    if abs(total - 1.0) > 1e-10:
        raise ConsistencyError("weak sampling weights do not sum to one")
    return out


@dataclass
class SingleRegisterDistributions:
    """Outcome distributions of one POVM on the irrep-label-conditioned block.

    per_shift[s] is the distribution given shift s; averaged mixes the
    shifts uniformly; mixed is the distribution under the no-shift state.
    For any nontrivial irrep the averaged and mixed rows agree exactly.
    """

    rep: Irrep
    povm: Povm
    per_shift: np.ndarray
    averaged: np.ndarray
    mixed: np.ndarray


def single_register_distributions(rep: Irrep, povm: Povm) -> SingleRegisterDistributions:
    return _distributions(rep, povm, slice(None))


def _distributions(rep: Irrep, povm: Povm, shifts: slice) -> SingleRegisterDistributions:
    """single_register_distributions for the shifts rep.stack()[shifts] only:
    per_shift holds one row for each of them, and every row must sum to one."""
    d = rep.dim
    if povm.dim != 2 * d:
        raise DomainError(f"POVM dimension {povm.dim} does not match block size {2 * d}")
    v0 = povm.vectors[:, :d]
    v1 = povm.vectors[:, d:]
    cross = np.einsum("ji,sil,jl->sj", v0.conj(), rep.stack()[shifts], v1)
    quad = 1.0 + 2.0 * cross.real
    per_shift = (povm.weights / (2 * d)) * quad
    sums = per_shift.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-8:
        raise ConsistencyError("conditional distributions failed to normalize")
    averaged = per_shift.mean(axis=0)
    mixed = np.broadcast_to(povm.weights / (2 * d), (povm.outcomes,)).copy()
    return SingleRegisterDistributions(rep, povm, per_shift, averaged, mixed)


@dataclass
class DistanceReport:
    l1: float
    tv: float


def tv_distance(p: np.ndarray, q: np.ndarray) -> DistanceReport:
    """L1 distance and total variation (half the L1) of two distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DomainError("distributions must share outcome sets")
    l1 = float(np.abs(p - q).sum())
    return DistanceReport(l1=l1, tv=l1 / 2.0)


def weighted_variance_sum(rep: Irrep, povm: Povm) -> float:
    """Sum over outcomes of (variance of p(j|s) under uniform s) / weight_j.

    Defined for nontrivial irreps, where the shift-averaged distribution
    equals the mixed one and the sum is bounded by 1/d^2.
    """
    if rep.is_trivial:
        raise DomainError("variance sum is defined for nontrivial irreps")
    dists = single_register_distributions(rep, povm)
    mean = dists.per_shift.mean(axis=0)
    second = (dists.per_shift ** 2).mean(axis=0)
    variances = second - mean ** 2
    return float(np.sum(variances / povm.weights))


def _table_price(group: Group, dim: int) -> int:
    """Bytes per outcome of a variance-bound trial. Its tracemalloc peak,
    measured on Z2, S3, S4, S5, Z16 and S6 at 2 10^4 and 10^5 outcomes, is
    16 dim + 32 |G| + 72, mostly the |G| x outcomes per-shift table and its
    complex cross terms; priced at 80."""
    return 16 * dim + 32 * group.order + 80


def _row_price(group: Group, dim: int) -> int:
    """Bytes per outcome of a sweep trial, which builds the drawn shift's row
    of that table only. Its tracemalloc peak, measured on the same groups and
    outcome counts, is 48 dim + 56, mostly the dim x outcomes Gaussian draw
    and the POVM vectors; priced at 64."""
    return 48 * dim + 64


def _guard_outcomes(group: Group, reps, outcomes: int | None, price=_table_price) -> None:
    """Refuse a trial on any of reps whose POVM would not fit POVM_BYTES_LIMIT,
    at price(group, dim) bytes per outcome."""
    for rep in reps:
        dim = 2 * rep.dim
        m = outcomes if outcomes is not None else 2 * dim
        need = m * price(group, dim)
        if need > POVM_BYTES_LIMIT:
            raise CapacityError(
                f"{m} outcomes on a {dim}-dimensional block of {group.descriptor} need about "
                f"{need / 2 ** 30:.1f} GiB per trial, over the {POVM_BYTES_LIMIT / 2 ** 30:.0f} GiB budget"
            )


def variance_bound_rows(
    group: Group, trials: int, seed: int, outcomes: int | None = None
) -> list[dict]:
    """Max weighted variance sum over seeded random POVMs, per nontrivial irrep."""
    if trials < 1:
        raise DomainError("trials must be positive")
    _guard_outcomes(group, (r for r in irreps(group) if not r.is_trivial), outcomes)
    rows = []
    for rep_index, rep in enumerate(irreps(group)):
        if rep.is_trivial:
            continue
        dim = 2 * rep.dim
        m = outcomes if outcomes is not None else 2 * dim
        worst = 0.0
        for t in range(trials):
            povm = _random_rank_one(_stream(seed, rep_index * trials + t), dim, m)
            worst = max(worst, weighted_variance_sum(rep, povm))
        bound = 1.0 / (rep.dim ** 2)
        rows.append(
            {
                "group": group.descriptor,
                "irrep_label": rep.name,
                "d_rho": rep.dim,
                "trials": trials,
                "povm_outcomes": m,
                "max_weighted_variance_sum": worst,
                "bound": bound,
                "within_bound": worst <= bound + 1e-10,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# indistinguishability sweep


@dataclass
class SweepSample:
    trial: int
    irrep_label: str
    d_rho: int
    shift_index: int
    tv: float
    l1: float
    povm_outcomes: int
    seed: int


@dataclass
class SweepReport:
    group: Group
    trials: int
    seed: int
    samples: list[SweepSample]

    def rows(self) -> list[dict]:
        return [asdict(s) for s in self.samples]

    def summary(self) -> dict:
        tvs = np.array([s.tv for s in self.samples])
        quantiles = {
            q: float(np.quantile(tvs, q / 100.0)) for q in (0, 25, 50, 75, 100)
        }
        exceeding = {
            f"{t:.0e}": float(np.mean(tvs > t)) for t in (1e-12, 1e-9, 1e-6, 1e-3, 1e-2, 1e-1)
        }
        by_dim: dict[int, int] = {}
        for s in self.samples:
            by_dim[s.d_rho] = by_dim.get(s.d_rho, 0) + 1
        return {
            "group": self.group.descriptor,
            "trials": self.trials,
            "seed": self.seed,
            "tv_quantiles_percent": quantiles,
            "fraction_exceeding": exceeding,
            "samples_by_block_dim": {str(k): v for k, v in sorted(by_dim.items())},
        }


def indistinguishability_sweep(
    group: Group, trials: int, seed: int, outcomes: int | None = None
) -> SweepReport:
    """Sample (irrep, shift, POVM) triples and measure shift detectability.

    Irreps are drawn from the exact Plancherel weights, shifts uniformly,
    POVMs from random_povm's construction. Each trial uses its own Philox
    stream keyed (seed, trial), so results are reproducible and trials are
    independent of each other. tv/l1 compare the conditional distribution
    at the drawn shift against the mixed-state distribution.
    """
    if trials < 1:
        raise DomainError("trials must be positive")
    reps = irreps(group)
    _guard_outcomes(group, reps, outcomes, _row_price)
    weights = plancherel(group)
    cumulative = []
    acc = Fraction(0)
    for rep in reps:
        acc += weights[rep.label]
        cumulative.append(float(acc))
    samples = []
    for t in range(trials):
        rng = _stream(seed, t)
        idx = bisect_right(cumulative, float(rng.random()))
        rep = reps[min(idx, len(reps) - 1)]
        shift = int(rng.integers(group.order))
        dim = 2 * rep.dim
        m = outcomes if outcomes is not None else 2 * dim
        povm = _random_rank_one(rng, dim, m)
        dists = _distributions(rep, povm, slice(shift, shift + 1))
        dist = tv_distance(dists.per_shift[0], dists.mixed)
        samples.append(
            SweepSample(
                trial=t,
                irrep_label=rep.name,
                d_rho=rep.dim,
                shift_index=shift,
                tv=dist.tv,
                l1=dist.l1,
                povm_outcomes=m,
                seed=seed,
            )
        )
    return SweepReport(group, trials, seed, samples)
