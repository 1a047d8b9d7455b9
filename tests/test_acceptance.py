"""Release gate: fourteen numbered checks, one printed verdict line each.

Every test computes its own pass/fail verdict with measured evidence,
appends a "[PASS] nn ..." / "[FAIL] nn ..." line to the session report
(replayed in the terminal summary), prints it, and then asserts it.
"""

import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from hslab.groups import (
    abelian_group,
    abelian_subgroup_of_abelian,
    abelian_subgroup_of_symmetric,
    symmetric_group,
)
from hslab.irreps import fourier, irreps, kron_stack, plancherel
from hslab.iso import (
    are_isomorphic,
    find_shift_bruteforce,
    graph_act,
    make_shift_oracles,
    rigid_corpus,
    states_from_oracles,
)
from hslab.measurements import (
    Povm,
    helstrom,
    random_povm,
    single_register_distributions,
    tv_distance,
    variance_bound_rows,
    weak_sampling_distribution,
    weighted_variance_sum,
)
from hslab.states import (
    averaged_shift_state_dense,
    block_shift_state,
    interior_eigenvalue_check,
    maximally_mixed_state,
    rank_closed_form,
    shift_state_dense,
    state_block,
    state_rank,
    subgroup_restriction_check,
)
from hslab.subset_sums import moments, subset_sum_rank

from oracles import mixed_state_blocks, refine_povm, regular_rep


def record(report, number, ok, detail, started, budget=None):
    elapsed = time.perf_counter() - started
    if budget is not None and elapsed >= budget:
        ok = False
        detail += f"; exceeded the {budget:.0f}s budget"
    line = f"[{'PASS' if ok else 'FAIL'}] {number:02d} {detail} ({elapsed:.2f}s)"
    report.append(line)
    print(line)
    assert ok, line


def seven_groups():
    return [
        abelian_group(2),
        abelian_group(3),
        abelian_group(4),
        abelian_group(2, 2),
        abelian_group(2, 4),
        symmetric_group(3),
        symmetric_group(4),
    ]


def test_01_rank_closed_forms(acceptance_report):
    t0 = time.perf_counter()
    bad = []
    for G in seven_groups():
        N = G.order
        ones = sum(1 for r in irreps(G) if r.dim == 1)
        want = {1: 2 * N - 1, 2: 4 * N * N - 5 * N + 3 - ones}
        for k in (1, 2):
            checks = [state_rank(G, k) == want[k], rank_closed_form(G, k) == want[k]]
            if G.is_abelian:
                checks.append(subset_sum_rank(G, k) == want[k])
            if not all(checks):
                bad.append((G.descriptor, k))
    record(
        acceptance_report,
        1,
        not bad,
        "numeric ranks (1e-8 relative cutoff) and abelian solution counting both "
        "reproduce 2|G|-1 and 4|G|^2-5|G|+3-#(1-dim irreps) for "
        "Z2, Z3, Z4, Z2xZ2, Z2xZ4, S3, S4"
        + (f"; mismatches: {bad}" if bad else ""),
        t0,
        budget=60,
    )


def test_02_two_copy_rank_s3(acceptance_report):
    t0 = time.perf_counter()
    numeric = state_rank(symmetric_group(3), 2)
    closed = rank_closed_form(symmetric_group(3), 2)
    ok = numeric == closed == 115
    record(
        acceptance_report,
        2,
        ok,
        f"two-copy S3 state has rank 115 (numeric {numeric}, closed form {closed})",
        t0,
        budget=10,
    )


def test_03_single_copy_averaged_blocks(acceptance_report):
    t0 = time.perf_counter()
    worst_identity = 0.0
    worst_trivial = 0.0
    for G in (symmetric_group(3), symmetric_group(4)):
        state = block_shift_state(G, 1)
        dims = {r.label: r.dim for r in irreps(G)}
        trivial_label = irreps(G)[0].label
        for labels, blk in state.blocks.items():
            d = dims[labels[0]]
            if labels[0] == trivial_label:
                w = np.linalg.eigvalsh(blk.matrix)
                worst_trivial = max(worst_trivial, float(np.max(np.abs(w - [0.0, 2.0]))))
            else:
                dev = float(np.max(np.abs(blk.matrix - np.eye(2 * d))))
                worst_identity = max(worst_identity, dev)
    ok = worst_trivial <= 1e-10 and worst_identity <= 1e-10
    record(
        acceptance_report,
        3,
        ok,
        "averaged single-copy blocks of S3 and S4: trivial-label spectrum {2, 0} "
        f"(dev {worst_trivial:.1e}) and identity elsewhere (dev {worst_identity:.1e})",
        t0,
    )


def _clustered(values, tol=1e-8):
    out = []
    for v in np.sort(values):
        if out and abs(v - out[-1][0]) <= tol:
            out[-1][1] += 1
        else:
            out.append([float(v), 1])
    return [(round(v, 9), c) for v, c in out]


def _two_copy_pattern(d, coupled):
    values = [1 + 1 / d] * (d * d) + [1 - 1 / d] * (d * d)
    if coupled:
        values += [2.0, 0.0] + [1.0] * (2 * d * d - 2)
    else:
        values += [1.0] * (2 * d * d)
    return _clustered(values)


def test_04_two_copy_same_irrep_patterns(acceptance_report):
    t0 = time.perf_counter()
    bad = []
    for G in (symmetric_group(3), symmetric_group(4)):
        for rep in irreps(G):
            if rep.is_trivial:
                continue
            avg = kron_stack(rep.stack(), rep.stack()).mean(axis=0)
            rank = int(np.linalg.matrix_rank(avg, tol=1e-8))
            trace = int(round(float(np.trace(avg).real)))
            block = state_block((rep, rep), None)
            got = _clustered(np.linalg.eigvalsh(block.matrix))
            predicted = _two_copy_pattern(rep.dim, rank == 1)
            if rank not in (0, 1) or rank != trace or got != predicted:
                bad.append((G.descriptor, rep.name, rank, got))
    record(
        acceptance_report,
        4,
        not bad,
        "same-irrep two-copy block spectra for S3 and S4 follow the pattern "
        "selected by the rank (0 or 1) of the group average of rho (x) rho"
        + (f"; mismatches: {bad}" if bad else ""),
        t0,
        budget=60,
    )


def test_05_three_copy_interior_eigenvalue(acceptance_report):
    t0 = time.perf_counter()
    report = interior_eigenvalue_check(symmetric_group(4), 3)
    ok = (
        report.found
        and 1e-8 < report.block_eigenvalue < 1 - 1e-8
        and abs(report.witness * 48 ** 3 - report.block_eigenvalue) < 1e-12
    )
    where = report.labels if report.found else "none"
    value = report.block_eigenvalue if report.found else float("nan")
    record(
        acceptance_report,
        5,
        ok,
        "three-copy averaged S4 state has an eigenvalue strictly between 0 and "
        f"48^-3, so support projection is not the optimal test (block value "
        f"{value:.6f} at tuple {where})",
        t0,
        budget=300,
    )


ABELIAN_MODULI_UP_TO_16 = [
    (1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,),
    (8,), (2, 4), (2, 2, 2), (9,), (3, 3), (10,), (11,),
    (12,), (2, 6), (13,), (14,), (15,),
    (16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2),
]


def test_06_moment_formulas_all_small_abelian(acceptance_report):
    t0 = time.perf_counter()
    bad = []
    for moduli in ABELIAN_MODULI_UP_TO_16:
        G = abelian_group(moduli)
        N = G.order
        for k in range(1, 11):
            rep = moments(G, k)
            mean = Fraction(2 ** k, N)
            second = mean + Fraction(2 ** k * (2 ** k - 1), N * N)
            if not (
                rep.agree()
                and rep.mean_counted == mean
                and rep.second_counted == second
            ):
                bad.append((G.descriptor, k))
    record(
        acceptance_report,
        6,
        not bad,
        "exact subset-count moments equal 2^k/|G| and 2^k/|G| + 2^k(2^k-1)/|G|^2 "
        f"as rationals for all {len(ABELIAN_MODULI_UP_TO_16)} abelian groups of "
        "order <= 16, k <= 10" + (f"; mismatches: {bad}" if bad else ""),
        t0,
        budget=60,
    )


def test_07_success_formula_and_simple_ceiling(acceptance_report):
    # Proven ceiling: Cauchy-Schwarz on the subset-sum counts eta(x, w) gives
    # rank >= |G|^(k+1) mu^2 / E[eta^2] with the moments of check 06, hence
    # success <= 1 - |G| / (2(|G| + 2^k - 1)).  The simple ceiling
    # (1 + |G|/2^k)/2 follows from it only where
    # |G|/2^k + |G|/(|G| + 2^k - 1) >= 1; elsewhere it is exceeded.
    t0 = time.perf_counter()
    formula_bad = []
    proven_bad = []
    simple_bad = []
    simple_exceeded = []
    for N in (2, 3, 4):
        G = abelian_group(N)
        for k in (1, 2, 3):
            hel = helstrom(
                averaged_shift_state_dense(G, k).dense,
                maximally_mixed_state(G, k).dense,
            )
            rank = subset_sum_rank(G, k)
            predicted = 1 - Fraction(rank, 2 * (2 * N) ** k)
            if abs(hel.success - float(predicted)) > 1e-9:
                formula_bad.append((N, k))
            proven = 1 - Fraction(N, 2 * (N + 2 ** k - 1))
            if predicted > proven or hel.success > float(proven) + 1e-9:
                proven_bad.append((N, k, str(predicted), str(proven)))
            simple = Fraction(1, 2) * (1 + Fraction(N, 2 ** k))
            implied = Fraction(N, 2 ** k) + Fraction(N, N + 2 ** k - 1) >= 1
            if predicted > simple:
                simple_exceeded.append((N, k, str(predicted), str(simple)))
            if implied and (
                predicted > simple or hel.success > float(simple) + 1e-9
            ):
                simple_bad.append((N, k, str(predicted), str(simple)))
    detail = (
        "dense Helstrom success equals 1 - rank/(2(2|G|)^k) within 1e-9 for "
        "Z2, Z3, Z4 with k <= 3, stays below the proven ceiling "
        "1 - |G|/(2(|G| + 2^k - 1)) (exactly, and within 1e-9 densely), and "
        "below (1 + |G|/2^k)/2 wherever that follows from it"
    )
    if formula_bad:
        detail += f"; formula mismatches: {formula_bad}"
    if proven_bad:
        detail += (
            "; proven ceiling exceeded at (|G|, k, success, ceiling) = "
            f"{proven_bad}"
        )
    if simple_bad:
        detail += (
            "; (1 + |G|/2^k)/2 exceeded where it should hold, at "
            f"(|G|, k, success, ceiling) = {simple_bad}"
        )
    detail += (
        "; (1 + |G|/2^k)/2 is exceeded outside that regime at "
        f"(|G|, k, success, ceiling) = {simple_exceeded}"
    )
    record(
        acceptance_report,
        7,
        not formula_bad and not proven_bad and not simple_bad,
        detail,
        t0,
    )


def test_08_weak_sampling_every_shift(acceptance_report):
    t0 = time.perf_counter()
    G = symmetric_group(4)
    reference = {lab: float(p) for lab, p in plancherel(G).items()}
    mixed = weak_sampling_distribution(mixed_state_blocks(G, 1))
    worst_tv = 0.0
    worst_mixed_gap = 0.0
    for s in G.elements():
        dist = weak_sampling_distribution(block_shift_state(G, 1, s))
        tv = 0.5 * sum(abs(dist[lab] - reference[lab]) for lab in reference)
        worst_tv = max(worst_tv, tv)
        worst_mixed_gap = max(
            worst_mixed_gap, max(abs(dist[lab] - mixed[lab]) for lab in reference)
        )
    ok = worst_tv <= 1e-12 and worst_mixed_gap <= 1e-12
    record(
        acceptance_report,
        8,
        ok,
        "irrep-label sampling of every shifted S4 state equals the Plancherel "
        f"weights d^2/|G| (tv {worst_tv:.1e}) and the no-shift state's "
        f"distribution (gap {worst_mixed_gap:.1e})",
        t0,
    )


def adversarial_povms(block_dim):
    eye = np.eye(block_dim, dtype=np.complex128)
    yield Povm(np.ones(block_dim), eye.copy(), tuple(range(block_dim)))
    half = block_dim // 2
    paired = []
    for i in range(half):
        paired.append((eye[i] + eye[half + i]) / np.sqrt(2.0))
        paired.append((eye[i] - eye[half + i]) / np.sqrt(2.0))
    yield Povm(np.ones(block_dim), np.array(paired), tuple(range(block_dim)))
    for eps in (1e-6, 1e-8):
        u = np.ones(block_dim, dtype=np.complex128) / np.sqrt(block_dim)
        tiny = eps * np.outer(u, u.conj())
        yield refine_povm([tiny, np.eye(block_dim) - tiny], labels=["tiny", "rest"])


def test_09_variance_bound_battery(acceptance_report):
    t0 = time.perf_counter()
    bad = []
    for G in (symmetric_group(3), symmetric_group(4)):
        for row in variance_bound_rows(G, trials=100, seed=0):
            if not row["within_bound"]:
                bad.append((row["group"], row["irrep_label"], "random"))
        for rep in irreps(G):
            if rep.is_trivial:
                continue
            bound = 1.0 / rep.dim ** 2 + 1e-9
            for povm in adversarial_povms(2 * rep.dim):
                povm.validate()
                if weighted_variance_sum(rep, povm) > bound:
                    bad.append((G.descriptor, rep.name, "adversarial"))
    record(
        acceptance_report,
        9,
        not bad,
        "weighted variance sums stay within 1/d^2 + 1e-9 for 100 seeded random "
        "POVMs per nontrivial irrep of S3 and S4 plus basis and near-singular "
        "POVMs" + (f"; violations: {bad}" if bad else ""),
        t0,
    )


def test_10_averaged_versus_mixed_distributions(acceptance_report):
    t0 = time.perf_counter()
    worst_nontrivial = 0.0
    worst_trivial = 0.0
    for G in (symmetric_group(3), symmetric_group(4)):
        for rep in irreps(G):
            povms = [random_povm(2 * rep.dim, 4 * rep.dim, seed) for seed in range(25)]
            povms.extend(adversarial_povms(2 * rep.dim))
            for povm in povms:
                dists = single_register_distributions(rep, povm)
                tv = tv_distance(dists.averaged, dists.mixed).tv
                if rep.is_trivial:
                    worst_trivial = max(worst_trivial, tv)
                else:
                    worst_nontrivial = max(worst_nontrivial, tv)
    ok = worst_nontrivial <= 1e-12 and worst_trivial <= 0.5 + 1e-12
    record(
        acceptance_report,
        10,
        ok,
        "shift-averaged and no-shift outcome distributions coincide on every "
        f"nontrivial irrep block (tv {worst_nontrivial:.1e}) and differ by at "
        f"most 1/2 on the trivial block (tv {worst_trivial:.3f})",
        t0,
    )


def test_11_subgroup_factorizations(acceptance_report):
    t0 = time.perf_counter()
    cases = [
        ("S3 over its 3-cycle subgroup", abelian_subgroup_of_symmetric(3, (3,))),
        ("Z4 over its index-2 subgroup", abelian_subgroup_of_abelian(abelian_group(4), (2,))),
        ("S4 over two commuting transpositions", abelian_subgroup_of_symmetric(4, (2, 2))),
    ]
    bad = [name for name, emb in cases if not subgroup_restriction_check(emb)]
    record(
        acceptance_report,
        11,
        not bad,
        "states with shifts confined to a subgroup factor as (subgroup state) "
        "(x) (mixed transversal) within 1e-9 for Z3 < S3, Z2 < Z4, "
        "Z2xZ2 < S4" + (f"; failures: {bad}" if bad else ""),
        t0,
    )


def test_12_rigid_graph_oracle_reduction(acceptance_report):
    t0 = time.perf_counter()
    G = symmetric_group(6)
    corpus = rigid_corpus(6, 6)
    table = G.compose_table()
    bad = []

    def unique_shift(pair):
        ids = {}
        for y in pair.outputs_first + pair.outputs_second:
            ids.setdefault(y, len(ids))
        first = np.array([ids[y] for y in pair.outputs_first])
        second = np.array([ids[y] for y in pair.outputs_second])
        matches = (first[table] == second[:, None]).all(axis=0)
        return [int(s) for s in np.nonzero(matches)[0]]

    for idx, A in enumerate(corpus):
        for s in (7, 389):
            B = graph_act(G.perm(s), A)
            pair = make_shift_oracles(A, B)
            if find_shift_bruteforce(pair) != s:
                bad.append(("recovery", idx, s))
            if are_isomorphic(A, B) is None:
                bad.append(("independent-iso", idx, s))
            if unique_shift(pair) != [s]:
                bad.append(("uniqueness", idx, s))
        s = 7
        pair = make_shift_oracles(A, graph_act(G.perm(s), A))
        reference = shift_state_dense(G, G.inverse(s)).dense
        dev = float(np.max(np.abs(states_from_oracles(pair).dense - reference)))
        if dev > 1e-12:
            bad.append(("state", idx, dev))

    mixed = maximally_mixed_state(G).dense
    checked_disjoint = 0
    for i in range(len(corpus)):
        for j in range(i + 1, len(corpus)):
            pair = make_shift_oracles(corpus[i], corpus[j])
            found = find_shift_bruteforce(pair)
            relabeling = are_isomorphic(corpus[i], corpus[j])
            if (found is None) != (relabeling is None):
                bad.append(("equivalence", i, j))
            if found is None and checked_disjoint < 2:
                checked_disjoint += 1
                dev = float(np.max(np.abs(states_from_oracles(pair).dense - mixed)))
                if dev > 1e-12:
                    bad.append(("mixed-state", i, j, dev))
    record(
        acceptance_report,
        12,
        not bad,
        "over a corpus of six rigid 6-vertex graphs: a hidden shift exists "
        "exactly when the graphs are isomorphic (confirmed by exhaustive "
        "relabeling search), the shift is unique, and oracle-built states "
        "match direct constructions within 1e-12"
        + (f"; failures: {bad}" if bad else ""),
        t0,
        budget=120,
    )


def _direct_sum(mats):
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=np.complex128)
    off = 0
    for m in mats:
        n = m.shape[0]
        out[off : off + n, off : off + n] = m
        off += n
    return out


def test_13_representation_bedrock(acceptance_report):
    t0 = time.perf_counter()
    worst_schur = 0.0
    worst_unitary = 0.0
    worst_intertwine = 0.0
    for G in (symmetric_group(3), symmetric_group(4), abelian_group(2, 4)):
        reps = irreps(G)
        N = G.order
        for r1 in reps:
            s1 = r1.stack()
            for r2 in reps:
                T = np.einsum("gij,gkl->ijkl", s1, np.conj(r2.stack())) / N
                if r1.label == r2.label:
                    d = r1.dim
                    target = np.einsum("ik,jl->ijkl", np.eye(d), np.eye(d)) / d
                    worst_schur = max(worst_schur, float(np.max(np.abs(T - target))))
                else:
                    worst_schur = max(worst_schur, float(np.max(np.abs(T))))
        F = fourier(G).matrix
        worst_unitary = max(
            worst_unitary, float(np.max(np.abs(F @ F.conj().T - np.eye(N))))
        )
        for s in G.elements():
            lhs = F @ regular_rep(G, s) @ F.conj().T
            rhs = _direct_sum([np.kron(np.eye(r.dim), r.matrix(s)) for r in reps])
            worst_intertwine = max(worst_intertwine, float(np.max(np.abs(lhs - rhs))))
    ok = max(worst_schur, worst_unitary, worst_intertwine) <= 1e-9
    record(
        acceptance_report,
        13,
        ok,
        "Schur orthogonality, Fourier unitarity and the translation "
        "block-diagonalization hold within 1e-9 for every element of S3, S4 "
        f"and Z2xZ4 (residuals {worst_schur:.1e}, {worst_unitary:.1e}, "
        f"{worst_intertwine:.1e})",
        t0,
    )


def test_14_cli_byte_identical_reruns(acceptance_report, tmp_path):
    t0 = time.perf_counter()

    def run(argv, out):
        proc = subprocess.run(
            [sys.executable, "-m", "hslab.cli", *argv, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    ok = True
    invocations = [
        ["sweep", "--group", "S4", "--trials", "200", "--seed", "7"],
        ["spectrum", "--group", "S3", "--k", "2"],
        ["variance-bound", "--group", "S3", "--trials", "20", "--seed", "3", "--format", "json"],
        ["subset-sum", "--group", "Z2xZ4", "--k", "3", "--format", "json"],
    ]
    for i, argv in enumerate(invocations):
        a = run(argv, tmp_path / f"a{i}")
        b = run(argv, tmp_path / f"b{i}")
        ok = ok and a == b
    differs = run(
        ["sweep", "--group", "S4", "--trials", "200", "--seed", "8"], tmp_path / "c0"
    ) != run(["sweep", "--group", "S4", "--trials", "200", "--seed", "7"], tmp_path / "c1")
    ok = ok and differs
    record(
        acceptance_report,
        14,
        ok,
        "repeated CLI invocations with one seed produce byte-identical files "
        "across four subcommands, and changing the seed changes the bytes",
        t0,
    )
