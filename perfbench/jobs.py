"""Workload definitions: seeded inputs, jobs and their output checks.

Importing this module does not import hslab.  Library jobs receive the
`hslab` package as an argument, so a traced pass sees the wrapped
functions.  Every check returns None when the output is right and a short
message otherwise; a wrong or missing answer fails the job.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Seeded CLI inputs (`--seed` values, iso instances) come from pools of this
# size, so that a reference stdout digest exists for every value drawn.
POOL = 8

WORKLOADS = ("scan", "discriminate", "cli")

# Groups whose irreps set-up builds, per workload (see setup_s).
SETUP_GROUPS = {
    "scan": ("S5", "S4", "Z8", "Z2xZ4"),
    "discriminate": ("S3", "Z4", "Z8", "Z2xZ4", "Z16"),
    "cli": ("S3", "S4", "S5", "S6", "S7", "Z2xZ4"),
}

REL_TOL = 1e-9
SUCCESS_TOL = 1e-10


def draw(seed: int) -> dict:
    """The generated inputs of one run; the same seed gives the same inputs."""
    rng = random.Random(seed)
    return {
        "s4_shift": rng.randrange(24),
        "s3_pair": rng.sample(range(6), 2),
        "variance_seed": rng.randrange(POOL),
        "sweep_seed": rng.randrange(POOL),
        "iso_case": rng.randrange(POOL),
    }


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def _same(out, ref, what: str):
    return None if out == ref else f"{what}: got {out}, reference {ref}"


# ---------------------------------------------------------------------------
# scan: block scans over irrep tuples


def _rank(group: str, k: int, shift_key: str | None = None):
    def run(h, inp):
        shift = None if shift_key is None else inp[shift_key]
        return h.state_rank(h.parse_group(group), k, shift)

    return run


def _check_closed_form(group: str, k: int):
    def check(h, inp, out, ref):
        return _same(out, h.rank_closed_form(h.parse_group(group), k), "rank vs closed form")

    return check


def _check_fixed_rank(group: str, k: int):
    def check(h, inp, out, ref):
        return _same(out, h.parse_group(group).order ** k, "fixed-shift rank vs |G|^k")

    return check


def _check_abelian_rank(group: str, k: int, name: str):
    def check(h, inp, out, ref):
        counted = h.subset_sum_rank(h.parse_group(group), k)
        return _same(out, counted, "rank vs subset_sum_rank") or _same(out, ref[name], "rank")

    return check


def _check_reference(name: str):
    def check(h, inp, out, ref):
        return _same(out, ref[name], name)

    return check


def _spectrum_rows(h, inp):
    rows = h.spectrum_rows(h.parse_group("S4"), 3)
    return [[r["tuple_label"], r["eigenvalue"], r["multiplicity"]] for r in rows]


def _check_spectrum_rows(h, inp, out, ref):
    want = ref["spectrum_rows S4 k=3"]
    if len(out) != len(want):
        return f"{len(out)} rows, reference has {len(want)}"
    for (label, value, mult), (rlabel, rvalue, rmult) in zip(out, want):
        if label != rlabel or mult != rmult or abs(value - rvalue) > REL_TOL:
            return f"row {label} {value} x{mult} differs from {rlabel} {rvalue} x{rmult}"
    return None


def _interior(h, inp):
    rep = h.interior_eigenvalue_check(h.parse_group("S5"), 2)
    labels = None if rep.labels is None else [list(lab) for lab in rep.labels]
    return {"found": rep.found, "labels": labels, "witness": rep.witness,
            "block_eigenvalue": rep.block_eigenvalue}


def _check_interior(h, inp, out, ref):
    want = ref["interior_eigenvalue_check S5 k=2"]
    if out["found"] != want["found"] or out["labels"] != want["labels"]:
        return f"witness {out['labels']} differs from {want['labels']}"
    for key in ("witness", "block_eigenvalue"):
        if not _close(out[key], want[key]):
            return f"{key} {out[key]} differs from {want[key]}"
    return None


def _state_spectrum(h, inp):
    rep = h.state_spectrum(h.block_shift_state(h.parse_group("S4"), 2))
    return {"dim": rep.dim, "rank": rep.rank, "clusters": [list(c) for c in rep.clusters]}


def _check_state_spectrum(h, inp, out, ref):
    closed = h.rank_closed_form(h.parse_group("S4"), 2)
    want = ref["state_spectrum S4 k=2"]
    problem = _same(out["rank"], closed, "rank vs closed form") or _same(out["dim"], want["dim"], "dim")
    if problem:
        return problem
    if [m for _, m in out["clusters"]] != [m for _, m in want["clusters"]]:
        return "cluster multiplicities differ from the reference"
    for (value, _), (rvalue, _) in zip(out["clusters"], want["clusters"]):
        # state-scale eigenvalues are below 1/dim; compare on the block scale
        if abs(value - rvalue) * out["dim"] > REL_TOL:
            return f"cluster value {value} differs from {rvalue}"
    return None


SCAN = [
    ("state_rank S5 k=2", _rank("S5", 2), _check_closed_form("S5", 2)),
    ("state_rank S4 k=3", _rank("S4", 3), _check_reference("state_rank S4 k=3")),
    ("state_rank S4 k=3 shift", _rank("S4", 3, "s4_shift"), _check_fixed_rank("S4", 3)),
    ("state_rank Z8 k=3", _rank("Z8", 3), _check_abelian_rank("Z8", 3, "state_rank Z8 k=3")),
    ("state_rank Z2xZ4 k=3", _rank("Z2xZ4", 3),
     _check_abelian_rank("Z2xZ4", 3, "state_rank Z2xZ4 k=3")),
    ("spectrum_rows S4 k=3", _spectrum_rows, _check_spectrum_rows),
    ("interior_eigenvalue_check S5 k=2", _interior, _check_interior),
    ("state_spectrum S4 k=2", _state_spectrum, _check_state_spectrum),
]


# ---------------------------------------------------------------------------
# discriminate: "some shift" vs "no shift", numerically and by counting


def _helstrom(group: str, k: int, pair_key: str | None = None):
    def run(h, inp):
        G = h.parse_group(group)
        if pair_key is None:
            first = h.averaged_shift_state_dense(G, k)
            second = h.maximally_mixed_state(G, k)
        else:
            s1, s2 = inp[pair_key]
            first = h.shift_state_dense(G, s1, k)
            second = h.shift_state_dense(G, s2, k)
        res = h.helstrom(first.dense, second.dense)
        return {"success": res.success, "trace_norm": res.trace_norm}

    return run


def _check_trace_norm(out):
    if abs(out["success"] - (0.5 + 0.25 * out["trace_norm"])) > SUCCESS_TOL:
        return "success differs from 1/2 + trace norm / 4"
    return None


def _check_helstrom_rank(group: str, k: int):
    def check(h, inp, out, ref):
        G = h.parse_group(group)
        rank = h.subset_sum_rank(G, k) if G.is_abelian else h.state_rank(G, k)
        exact = float(h.success_from_rank(rank, G.order, k))
        if abs(out["success"] - exact) > SUCCESS_TOL:
            return f"success {out['success']} differs from success_from_rank {exact}"
        return _check_trace_norm(out)

    return check


def _check_helstrom_pair(h, inp, out, ref):
    key = ",".join(map(str, inp["s3_pair"]))
    want = ref["helstrom S3 k=3 pairs"][key]
    if abs(out["success"] - want) > SUCCESS_TOL:
        return f"success {out['success']} for shifts {key} differs from {want}"
    return _check_trace_norm(out)


def _table_rank(group: str, k: int):
    def run(h, inp):
        return h.subset_sum_table(h.parse_group(group), k).rank()

    return run


def _moments(h, inp):
    rep = h.moments(h.parse_group("Z16"), 8)
    return {"agree": rep.agree(), "method": rep.method,
            "mean": str(rep.mean_counted), "second": str(rep.second_counted)}


def _check_moments(h, inp, out, ref):
    if not out["agree"]:
        return "counted moments disagree with the closed forms"
    return _same(out, ref["moments Z16 k=8"], "moments")


DISCRIMINATE = [
    ("helstrom S3 k=3 averaged", _helstrom("S3", 3), _check_helstrom_rank("S3", 3)),
    ("helstrom Z4 k=3 averaged", _helstrom("Z4", 3), _check_helstrom_rank("Z4", 3)),
    ("helstrom S3 k=3 shift pair", _helstrom("S3", 3, "s3_pair"), _check_helstrom_pair),
    ("subset_sum_table Z8 k=6", _table_rank("Z8", 6), _check_reference("subset_sum_table Z8 k=6")),
    ("subset_sum_table Z2xZ4 k=5", _table_rank("Z2xZ4", 5),
     _check_reference("subset_sum_table Z2xZ4 k=5")),
    ("moments Z16 k=8", _moments, _check_moments),
]

LIBRARY = {"scan": SCAN, "discriminate": DISCRIMINATE}


# ---------------------------------------------------------------------------
# cli: whole `python -m hslab.cli` invocations


def cli_jobs(inp: dict, iso_cases: list[dict], cold: str, warm: str) -> list[tuple[str, str, list[str]]]:
    """(name, reference key, argv) per job, in pass order.

    The cold job gets an empty cache directory and writes it; the warm job
    after it reads the same directory.  All other jobs that take a cache
    directory read one that set-up filled.
    """
    vseed, sseed, case = inp["variance_seed"], inp["sweep_seed"], inp["iso_case"]
    iso = iso_cases[case]
    cache = ["--cache-dir", warm]
    return [
        ("version", "version", ["--version"]),
        ("weak-sample S6 cold", "weak-sample S6", ["weak-sample", "--group", "S6", "--cache-dir", cold]),
        ("weak-sample S6 warm", "weak-sample S6", ["weak-sample", "--group", "S6", "--cache-dir", cold]),
        ("weak-sample S7", "weak-sample S7", ["weak-sample", "--group", "S7", *cache]),
        ("rank S5 k=2", "rank S5 k=2", ["rank", "--group", "S5", "--k", "2", *cache]),
        ("spectrum S4 k=2", "spectrum S4 k=2", ["spectrum", "--group", "S4", "--k", "2", *cache]),
        ("helstrom S3 k=2", "helstrom S3 k=2", ["helstrom", "--group", "S3", "--k", "2", *cache]),
        ("subset-sum Z2xZ4 k=4", "subset-sum Z2xZ4 k=4",
         ["subset-sum", "--group", "Z2xZ4", "--k", "4", "--format", "json", *cache]),
        ("variance-bound S6", f"variance-bound S6 seed={vseed}",
         ["variance-bound", "--group", "S6", "--seed", str(vseed), *cache]),
        ("sweep S5", f"sweep S5 seed={sseed}",
         ["sweep", "--group", "S5", "--trials", "200", "--seed", str(sseed), *cache]),
        ("iso", f"iso case={case}", ["iso", "--inline", "--first", iso["first"], "--second", iso["second"]]),
        ("verify-all", "verify-all", ["verify-all", *cache]),
    ]


def check_cli(name: str, stdout: bytes, digest: str, want: str) -> str | None:
    """Check one CLI job's stdout against its reference digest and content."""
    text = stdout.decode("utf-8", "replace")
    lines = text.splitlines()
    if lines and lines[0].startswith("# hslab "):
        for row in csv.DictReader(lines[1:]):
            if row.get("agrees") not in (None, "true", ""):
                return f"agrees is {row['agrees']!r}"
    elif text.startswith("{"):
        for row in json.loads(text).get("rows", []):
            if row.get("agrees") is False:
                return "agrees is false"
    if name == "verify-all" and lines[-1:] != ["all checks passed"]:
        return "verify-all did not pass every check"
    if digest != want:
        return f"stdout digest {digest[:12]} differs from reference {want[:12]}"
    return None
