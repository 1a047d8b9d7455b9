"""End-to-end command line checks via subprocess."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import hslab.cli
import hslab.iso
import hslab.subset_sums
from hslab.groups import symmetric_group
from hslab.irrep_cache import read_cache
from hslab.iso import format_graph, graph_act, rigid_corpus

TRIANGLE = "3;1 2;2 3;colors: 0 1 2"
RELABELED = "3;1 2;1 3;colors: 1 0 2"  # image of the triangle under 0<->1
SPARSER = "3;1 2;colors: 0 1 2"


def run_cli(*argv, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "hslab.cli", *argv],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cache"


def read_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# hslab 0.1.0 ")
    config = json.loads(lines[0].split(" ", 3)[3])
    rows = list(csv.DictReader(lines[1:]))
    return config, rows


def test_version_flag():
    proc = run_cli("--version")
    assert proc.stdout.strip() == "hslab 0.1.0"
    # help still prints usage on stdout and exits 0
    proc = run_cli("rank", "--help")
    assert proc.stdout.startswith("usage: hslab rank")
    assert proc.stderr == ""


def test_spectrum_golden_rows():
    proc = run_cli("spectrum", "--group", "S3")
    config, rows = read_csv(proc.stdout)
    assert config["command"] == "spectrum"
    assert config["group"] == "S3"
    seen = {(round(float(r["eigenvalue"]), 9), int(r["multiplicity"])) for r in rows}
    assert seen == {(2.0, 1), (0.0, 1), (1.0, 2), (1.0, 8)}
    # identity clusters are exactly one, and land in the CSV as a bare "1"
    assert any(r["eigenvalue"] == "1" for r in rows)
    # block-scale trace equals the state dimension
    total = sum(float(r["eigenvalue"]) * int(r["multiplicity"]) for r in rows)
    assert total == 12.0


def test_rank_json_payload():
    proc = run_cli(
        "rank", "--group", "S4", "--format", "json"
    )
    payload = json.loads(proc.stdout)
    assert payload["version"] == "0.1.0"
    assert payload["config"]["command"] == "rank"
    (row,) = payload["rows"]
    assert row["rank"] == 47
    assert row["closed_form"] == 47
    assert row["agrees"] is True
    assert row["dimension"] == 48


def test_rank_fixed_shift():
    proc = run_cli(
        "rank", "--group", "Z4", "--k", "2", "--shift", "3",
        "--format", "json",
    )
    (row,) = json.loads(proc.stdout)["rows"]
    assert row["variant"] == "fixed"
    assert row["rank"] == 16
    assert row["closed_form"] == 16


def test_subset_sum_exact_fractions():
    proc = run_cli(
        "subset-sum", "--group", "Z4", "--k", "2", "--format", "json",
    )
    (row,) = json.loads(proc.stdout)["rows"]
    assert row["rank"] == 43
    assert row["success"] == "85/128"
    assert row["mean"] == "1"
    assert row["second_moment"] == "7/4"
    assert row["bound"] == "1"
    proc = run_cli("subset-sum", "--group", "Z4", "--k", "2")
    _, rows = read_csv(proc.stdout)
    assert rows[0]["success"] == "85/128"
    assert rows[0]["success_float"] == "0.6640625"


def test_weak_sample_matches_plancherel():
    proc = run_cli(
        "weak-sample", "--group", "S3", "--shift", "2"
    )
    _, rows = read_csv(proc.stdout)
    assert len(rows) == 3
    assert all(r["deviation"] == "0" for r in rows)
    assert sum(float(r["probability"]) for r in rows) == pytest.approx(1.0)


def test_helstrom_known_value():
    proc = run_cli(
        "helstrom", "--group", "Z2", "--format", "json"
    )
    (row,) = json.loads(proc.stdout)["rows"]
    assert row["success"] == pytest.approx(1 - 3 / 8, abs=1e-12)
    assert row["first"] == "averaged"
    assert row["second"] == "mixed"
    proc = run_cli(
        "helstrom", "--group", "Z2", "--shift", "0", "--shift2", "1",
        "--format", "json",
    )
    (row,) = json.loads(proc.stdout)["rows"]
    assert 0.5 <= row["success"] <= 1.0


# the whole default CSV stdout of `hslab helstrom`, as the dense solver printed it
HELSTROM_GOLDEN = [
    ("--group S3 --k 1", [
        '# hslab 0.1.0 {"command": "helstrom", "group": "S3", "k": 1, "shift": null, "shift2": null}',
        "group,k,first,second,success,trace_norm",
        "S3,1,averaged,mixed,0.541666666666667,0.166666666666667",
    ]),
    ("--group S3 --k 2", [
        '# hslab 0.1.0 {"command": "helstrom", "group": "S3", "k": 2, "shift": null, "shift2": null}',
        "group,k,first,second,success,trace_norm",
        "S3,2,averaged,mixed,0.628472222222222,0.513888888888889",
    ]),
    ("--group S3 --k 3", [
        '# hslab 0.1.0 {"command": "helstrom", "group": "S3", "k": 3, "shift": null, "shift2": null}',
        "group,k,first,second,success,trace_norm",
        "S3,3,averaged,mixed,0.721354166666667,0.885416666666667",
    ]),
    ("--group S3 --k 2 --shift 1 --shift2 2", [
        '# hslab 0.1.0 {"command": "helstrom", "group": "S3", "k": 2, "shift": 1, "shift2": 2}',
        "group,k,first,second,success,trace_norm",
        "S3,2,shift 1,shift 2,0.907615831185843,1.63046332474337",
    ]),
    ("--group S3 --k 2 --shift 0 --shift2 5", [
        '# hslab 0.1.0 {"command": "helstrom", "group": "S3", "k": 2, "shift": 0, "shift2": 5}',
        "group,k,first,second,success,trace_norm",
        "S3,2,shift 0,shift 5,0.875,1.5",
    ]),
    ("--group S3 --k 3 --shift 3 --shift2 4", [
        '# hslab 0.1.0 {"command": "helstrom", "group": "S3", "k": 3, "shift": 3, "shift2": 4}',
        "group,k,first,second,success,trace_norm",
        "S3,3,shift 3,shift 4,0.958376970268938,1.83350788107575",
    ]),
    ("--group Z4 --k 3", [
        '# hslab 0.1.0 {"command": "helstrom", "group": "Z4", "k": 3, "shift": null, "shift2": null}',
        "group,k,first,second,success,trace_norm",
        "Z4,3,averaged,mixed,0.7900390625,1.16015625",
    ]),
    ("--group S4 --k 2 --shift 5 --shift2 7", [
        '# hslab 0.1.0 {"command": "helstrom", "group": "S4", "k": 2, "shift": 5, "shift2": 7}',
        "group,k,first,second,success,trace_norm",
        "S4,2,shift 5,shift 7,0.915391523121373,1.66156609248549",
    ]),
]


@pytest.mark.parametrize("argv,lines", HELSTROM_GOLDEN, ids=[a for a, _ in HELSTROM_GOLDEN])
def test_helstrom_golden_csv(argv, lines):
    proc = run_cli("helstrom", *argv.split())
    assert proc.stdout == "".join(line + "\n" for line in lines)


def test_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["sweep", "--group", "S3", "--trials", "25", "--seed", "5"]
    run_cli(*argv, "--out", str(out1))
    run_cli(*argv, "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()

    out3 = tmp_path / "c.csv"
    run_cli(
        "sweep", "--group", "S3", "--trials", "25", "--seed", "6",
        "--out", str(out3),
    )
    assert out1.read_bytes() != out3.read_bytes()

    j1 = tmp_path / "a.json"
    j2 = tmp_path / "b.json"
    for path in (j1, j2):
        run_cli(
            "variance-bound", "--group", "S3", "--trials", "5", "--seed", "3",
            "--format", "json", "--out", str(path),
        )
    assert j1.read_bytes() == j2.read_bytes()


def test_sweep_summary_in_json():
    proc = run_cli(
        "sweep", "--group", "Z4", "--trials", "12", "--seed", "1",
        "--format", "json",
    )
    payload = json.loads(proc.stdout)
    assert len(payload["rows"]) == 12
    assert payload["summary"]["trials"] == 12
    assert "tv_quantiles_percent" in payload["summary"]


def test_exit_code_domain_error():
    proc = run_cli("rank", "--group", "Q8", check=False)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "DomainError"

    proc = run_cli(
        "spectrum", "--group", "S3", "--shift", "99", check=False
    )
    assert proc.returncode == 2

    proc = run_cli(
        "rank", "--group", "S3", "--k", "0", check=False
    )
    assert proc.returncode == 2

    # malformed value, unknown option (the removed --threads), missing --group
    for argv in (
        ("rank", "--group", "S3", "--k", "x"),
        ("rank", "--group", "S3", "--k", "2", "--threads", "2"),
        ("rank", "--k", "2"),
    ):
        proc = run_cli(*argv, check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        err = json.loads(proc.stderr)
        assert set(err) == {"error"}
        assert set(err["error"]) == {"type", "message"}
        assert err["error"]["type"] == "DomainError"


# the printed configuration of each emitting subcommand: its parsed options
# but --out, --format, --cache-dir and --inline, the group by its descriptor
CONFIGS = [
    (
        ["spectrum", "--group", "S3", "--k", "2", "--shift", "1"],
        {"command": "spectrum", "group": "S3", "k": 2, "shift": 1,
         "eigenvalue_scale": "block", "state_scale_factor": "(2*6)^-2"},
    ),
    (["rank", "--group", "s3"], {"command": "rank", "group": "S3", "k": 1, "shift": None}),
    (
        ["subset-sum", "--group", "Z4", "--k", "2", "--method", "convolution"],
        {"command": "subset-sum", "group": "Z4", "k": 2, "method": "convolution"},
    ),
    (
        ["helstrom", "--group", "Z2", "--shift", "0", "--shift2", "1"],
        {"command": "helstrom", "group": "Z2", "k": 1, "shift": 0, "shift2": 1},
    ),
    (["weak-sample", "--group", "S3"], {"command": "weak-sample", "group": "S3", "shift": None}),
    (
        ["variance-bound", "--group", "S3", "--trials", "2", "--seed", "4", "--outcomes", "6"],
        {"command": "variance-bound", "group": "S3", "trials": 2, "seed": 4, "outcomes": 6},
    ),
    (
        ["sweep", "--group", "Z4", "--trials", "3", "--seed", "1"],
        {"command": "sweep", "group": "Z4", "trials": 3, "seed": 1, "outcomes": None},
    ),
]


@pytest.mark.parametrize("argv,config", CONFIGS, ids=[argv[0] for argv, _ in CONFIGS])
def test_printed_config(capsys, tmp_path, argv, config):
    for fmt in ("csv", "json"):
        assert hslab.cli.main([*argv, "--format", fmt, "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        printed = read_csv(out)[0] if fmt == "csv" else json.loads(out)["config"]
        assert printed == config, fmt


def test_iso_printed_config(capsys):
    assert hslab.cli.main(["iso", "--inline", "--first", TRIANGLE, "--second", RELABELED]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config == {"command": "iso", "first": TRIANGLE, "second": RELABELED}


@pytest.mark.parametrize(
    "argv,code,message",
    [
        # k is checked first, then the group, then --shift, --shift2, and their pairing
        ("rank --group S9 --k 0", 2, "k must be at least 1"),
        ("spectrum --group Q8 --shift 99", 2, "cannot parse group descriptor 'Q8'"),
        ("spectrum --group S9 --shift 100", 3, "symmetric degree 9 exceeds"),
        ("helstrom --group S3 --shift 7 --shift2 9", 2, "element index 7 out of range for S3"),
        ("helstrom --group S3 --shift2 9", 2, "element index 9 out of range for S3"),
        ("helstrom --group S3 --shift2 1", 2, "--shift2 requires --shift"),
    ],
)
def test_input_error_precedence(capsys, argv, code, message):
    assert hslab.cli.main(argv.split()) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["message"].startswith(message)


# sha256 of `hslab spectrum --group G --k K --format json` with one BLAS
# thread: JSON prints every float in full, so these pin the rounding noise of
# the stack-averaged blocks that spectrum prints
SPECTRUM_JSON_SHA256 = {
    ("S4", "3"): "f8507e465529714a1f8fbc54746b2bb66cebf682aceb91852a391f18fdb85667",
    ("S3", "4"): "f8cdbb7eaafe6f23ac8613794f8e8f7bccd994471521671a7fce52acfef2e7d4",
    ("S2", "5"): "0089954ba6c3ab6c50b79ba37eb44badd89ff5eef9adab6ab026493cc1b165b5",
    ("S1", "8"): "665084c8e99470fcfa81a46fb9685ff8e0d165f35b8322e8f327e52257fce6f8",
    ("Z2xZ4", "3"): "86ebc26df4ae1b91689bc86d726638e96edfea604fc52229d4cb5b7565ce7807",
}


@pytest.mark.parametrize("group,k", list(SPECTRUM_JSON_SHA256))
def test_spectrum_json_golden_digest(group, k):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "hslab.cli", "spectrum", "--group", group, "--k", k, "--format", "json"],
        capture_output=True, env=env, check=True,
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == SPECTRUM_JSON_SHA256[group, k]


def test_rank_s6_two_copies_golden():
    proc = run_cli("rank", "--group", "S6", "--k", "2")
    assert proc.stdout == (
        '# hslab 0.1.0 {"command": "rank", "group": "S6", "k": 2, "shift": null}\n'
        "group,k,variant,shift,dimension,rank,closed_form,agrees\n"
        "S6,2,averaged,,2073600,2070001,2070001,true\n"
    )


def test_weak_sample_s7_golden():
    proc = run_cli("weak-sample", "--group", "S7")
    assert proc.stdout == (
        '# hslab 0.1.0 {"command": "weak-sample", "group": "S7", "shift": null}\n'
        "group,variant,irrep_label,d_rho,probability,plancherel,deviation\n"
        "S7,averaged,7,1,0.000198412698412698,1/5040,0\n"
        "S7,averaged,6+1,6,0.00714285714285714,1/140,0\n"
        "S7,averaged,5+2,14,0.0388888888888889,7/180,0\n"
        "S7,averaged,5+1+1,15,0.0446428571428571,5/112,0\n"
        "S7,averaged,4+3,14,0.0388888888888889,7/180,0\n"
        "S7,averaged,4+2+1,35,0.243055555555556,35/144,0\n"
        "S7,averaged,4+1+1+1,20,0.0793650793650794,5/63,0\n"
        "S7,averaged,3+3+1,21,0.0875,7/80,0\n"
        "S7,averaged,3+2+2,21,0.0875,7/80,0\n"
        "S7,averaged,3+2+1+1,35,0.243055555555556,35/144,0\n"
        "S7,averaged,3+1+1+1+1,15,0.0446428571428571,5/112,0\n"
        "S7,averaged,2+2+2+1,14,0.0388888888888889,7/180,0\n"
        "S7,averaged,2+2+1+1+1,14,0.0388888888888889,7/180,0\n"
        "S7,averaged,2+1+1+1+1+1,6,0.00714285714285714,1/140,0\n"
        "S7,averaged,1+1+1+1+1+1+1,1,0.000198412698412698,1/5040,0\n"
    )


def test_rank_s7_one_copy_golden():
    proc = run_cli("rank", "--group", "S7", "--k", "1")
    assert proc.stdout == (
        '# hslab 0.1.0 {"command": "rank", "group": "S7", "k": 1, "shift": null}\n'
        "group,k,variant,shift,dimension,rank,closed_form,agrees\n"
        "S7,1,averaged,,10080,10079,10079,true\n"
    )


@pytest.mark.parametrize("group,k", [("Z2xZ4", 4), ("Z8", 5)])
def test_subset_sum_builds_one_table(monkeypatch, capsys, group, k):
    calls = []
    build = hslab.subset_sums.subset_sum_table

    def counted(*args):
        calls.append(args)
        return build(*args)

    for module in (hslab.cli, hslab.subset_sums):
        monkeypatch.setattr(module, "subset_sum_table", counted)
    assert hslab.cli.main(["subset-sum", "--group", group, "--k", str(k)]) == 0
    assert len(calls) == 1
    _, rows = read_csv(capsys.readouterr().out)
    assert rows[0]["method"] == "table" and rows[0]["rank"] != ""


@pytest.mark.parametrize("k,method", [(20000, "auto"), (20000, "table"), (7143, "auto"), (10 ** 12, "auto")])
def test_subset_sum_refuses_unprintable_moments_before_counting(monkeypatch, capsys, k, method):
    # the closed-form moments are formatted first, so nothing is counted for
    # a k whose exact values pass the interpreter's int-to-str digit limit
    def refuse(*args):
        raise AssertionError("counted before the digits were checked")

    for name in ("_convolution_totals", "subset_sum_table"):
        monkeypatch.setattr(hslab.subset_sums, name, refuse)
    argv = ["subset-sum", "--group", "Z1" if k == 7143 else "Z2", "--k", str(k), "--method", method]
    assert hslab.cli.main(argv) == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "CapacityError"


def test_s8_fixed_shift_rank_and_one_copy_labels(capsys):
    # the fixed-shift rank is counted from the weights D^2 k!/prod(m!) and
    # one copy holds 4|G| entries, so neither meets a block-scan guard
    assert hslab.cli.main(["rank", "--group", "S8", "--k", "2", "--shift", "3"]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert (rows[0]["rank"], rows[0]["closed_form"], rows[0]["agrees"]) == ("1625702400", "1625702400", "true")
    for shift in ([], ["--shift", "5"]):
        assert hslab.cli.main(["weak-sample", "--group", "S8", *shift]) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 22 and {row["deviation"] for row in rows} == {"0"}


def test_subset_sum_rank_beyond_the_fast_table(capsys):
    # the moments take the convolution; the rank still comes from the table,
    # no longer refused by the price of an enumeration that no longer runs
    rows = {}
    for command in ("subset-sum", "rank"):
        assert hslab.cli.main([command, "--group", "Z4", "--k", "9", "--format", "json"]) == 0
        (rows[command],) = json.loads(capsys.readouterr().out)["rows"]
    counted = rows["subset-sum"]
    assert counted["method"] == "convolution"
    assert counted["rank"] == rows["rank"]["rank"] == 1047371
    assert counted["success"] == str(1 - Fraction(1047371, 2 * 8 ** 9))


def _assert_capacity_error(proc):
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "CapacityError"


def test_exit_code_capacity_error():
    for argv in (
        ("rank", "--group", "S6", "--k", "3"),
        # an 11.6 GB subset-sum table, refused before it is allocated
        ("subset-sum", "--group", "Z232", "--k", "3", "--method", "table"),
        # refusals whose messages hold numbers beyond a float or 4300 digits
        ("helstrom", "--group", "S8", "--k", "60"),
        ("helstrom", "--group", "Z1", "--k", "600"),
        ("subset-sum", "--group", "Z2", "--k", "20000"),
        ("subset-sum", "--group", "Z2", "--k", "20000", "--method", "table"),
        ("subset-sum", "--group", "Z1", "--k", "100000"),
        # counted, but a second moment of 4^7143 has more digits than Python prints
        ("subset-sum", "--group", "Z1", "--k", "7143"),
    ):
        _assert_capacity_error(run_cli(*argv, check=False))


def test_absurd_copy_counts_are_refused_quickly():
    # each guard compares k with a bit length before computing a power of k,
    # and the moment recursion is priced by the width of its integers
    for argv in (
        ("rank", "--group", "Z1", "--k", "1000000000"),
        ("rank", "--group", "S1", "--k", "1000000000"),
        ("spectrum", "--group", "S2", "--k", "1000000000"),
        ("subset-sum", "--group", "Z1", "--k", "1000000"),
        ("subset-sum", "--group", "Z3", "--k", "100000"),
    ):
        start = time.perf_counter()
        proc = run_cli(*argv, check=False)
        assert time.perf_counter() - start < 2.0, argv
        _assert_capacity_error(proc)


def test_iso_inline_isomorphic_pair():
    proc = run_cli(
        "iso", "--inline", "--first", TRIANGLE, "--second", RELABELED,
    )
    payload = json.loads(proc.stdout)
    assert payload["isomorphic"] is True
    assert payload["group"] == "S3"
    assert payload["shift_index"] is not None
    assert payload["shift_name"]
    assert payload["state_max_abs_deviation"] <= 1e-12


def test_iso_inline_unrelated_pair():
    proc = run_cli(
        "iso", "--inline", "--first", TRIANGLE, "--second", SPARSER,
    )
    payload = json.loads(proc.stdout)
    assert payload["isomorphic"] is False
    assert payload["shift_index"] is None
    assert payload["state_reference"] == "mixed"


@pytest.mark.parametrize("isomorphic", [True, False])
def test_iso_peak_is_two_dense_states(capsys, isomorphic):
    # iso checks the S6 oracle state one all-ones block per oracle value and
    # compares it with its reference at their 4|G| or 2|G| nonzeros, so it
    # holds no 1440 x 1440 matrix: a quarter of one is already far above its peak
    A, B = rigid_corpus(6, 2)
    second = graph_act((3, 5, 0, 4, 1, 2), A if isomorphic else B)
    first, second = (format_graph(g).replace("\n", ";") for g in (A, second))
    tracemalloc.start()
    try:
        assert hslab.cli.main(["iso", "--inline", "--first", first, "--second", second]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = json.loads(capsys.readouterr().out)
    assert (payload["isomorphic"], payload["state_dimension"]) == (isomorphic, 1440)
    assert payload["state_max_abs_deviation"] == 0.0
    assert peak < 0.25 * 8 * 1440 ** 2


def test_iso_wrong_shift_exits_4(monkeypatch, capsys):
    found = hslab.iso.find_shift_bruteforce
    monkeypatch.setattr(hslab.iso, "find_shift_bruteforce", lambda pair: (found(pair) + 1) % pair.group.order)
    assert hslab.cli.main(["iso", "--inline", "--first", TRIANGLE, "--second", RELABELED]) == 4
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "ConsistencyError", "message": "oracle state deviates from its reference form"}


def test_iso_missing_file(tmp_path):
    proc = run_cli(
        "iso", "--first", str(tmp_path / "absent.txt"),
        "--second", str(tmp_path / "absent.txt"), check=False,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "first, bad_line", [("x;1 2", "x"), ("3;1 a", "1 a"), ("3;colors: r g b", "colors: r g b")]
)
def test_iso_non_integer_tokens(first, bad_line):
    proc = run_cli(
        "iso", "--inline", "--first", first, "--second", TRIANGLE, check=False,
    )
    assert proc.returncode == 2
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "DomainError"
    assert repr(bad_line) in error["message"]


def test_iso_file_not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("3\n1 2\n# caf\u00e9\n".encode("latin-1"))
    proc = run_cli(
        "iso", "--first", str(path), "--second", str(path), check=False,
    )
    assert proc.returncode == 2
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "DomainError"
    assert error["message"].startswith("cannot read graph file")


@pytest.mark.parametrize(
    "argv",
    [("rank", "--group", "S3"), ("iso", "--inline", "--first", TRIANGLE, "--second", RELABELED)],
    ids=["rank", "iso"],
)
def test_unwritable_out_exits_2(tmp_path, argv):
    proc = run_cli(*argv, "--out", str(tmp_path / "missing" / "x.csv"), check=False)
    assert (proc.returncode, proc.stdout) == (2, "")
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "DomainError"
    assert error["message"].startswith("cannot write output file: ")


@pytest.mark.parametrize(
    "argv", [("sweep", "--group", "S3"), ("variance-bound", "--group", "S4")], ids=["sweep", "variance-bound"]
)
def test_absurd_outcome_counts_exit_3(capsys, argv):
    # a billion outcomes would need hundreds of GiB per trial; the guard
    # prices that before the first draw
    tracemalloc.start()
    try:
        code = hslab.cli.main([*argv, "--outcomes", "1000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["type"] == "CapacityError"
    assert peak < 10 * 2 ** 20


def test_iso_non_rigid_input():
    proc = run_cli(
        "iso", "--inline", "--first", "3;1 2;2 3", "--second", "3;1 2;2 3", check=False,
    )
    assert proc.returncode == 2
    assert "rigid" in json.loads(proc.stderr)["error"]["message"]


def test_cache_file_is_created(tmp_path):
    explicit = tmp_path / "explicit"
    env_dir = tmp_path / "from-env"
    proc = subprocess.run(
        [
            sys.executable, "-m", "hslab.cli", "rank", "--group", "S3",
            "--cache-dir", str(explicit),
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, HSLAB_CACHE=str(env_dir)),
    )
    assert proc.returncode == 0
    assert (explicit / "S3.irr").is_file()
    assert not env_dir.exists()

    proc = subprocess.run(
        [sys.executable, "-m", "hslab.cli", "rank", "--group", "S3"],
        capture_output=True,
        text=True,
        env=dict(os.environ, HSLAB_CACHE=str(env_dir)),
    )
    assert proc.returncode == 0
    # the environment variable no longer turns the disk cache on
    assert not env_dir.exists()


def test_unwritable_cache_dir_is_skipped(cache_dir, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["weak-sample", "--group", "S3"]
    good = run_cli(*argv, "--cache-dir", str(cache_dir))
    proc = run_cli(*argv, "--cache-dir", str(blocker / "sub"))
    assert proc.stdout == good.stdout
    assert proc.stderr == ""


def test_corrupt_cache_file_is_rebuilt(tmp_path):
    home = tmp_path / "home"
    home.mkdir()
    env = dict(os.environ, HOME=str(home))
    argv = [sys.executable, "-m", "hslab.cli", "variance-bound", "--group", "S4", "--seed", "1"]

    def run(*extra):
        proc = subprocess.run([*argv, *extra], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    plain = run()
    # without --cache-dir nothing is written
    assert list(home.rglob("*")) == []
    cache = tmp_path / "cache"
    assert run("--cache-dir", str(cache)) == plain
    path = cache / "S4.irr"
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    assert run("--cache-dir", str(cache)) == plain
    assert read_cache(str(path), symmetric_group(4)) is not None


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        # about 200 kB of rows outlast the pipe buffer, so the command is
        # still writing when the reader closes its end
        (["sweep", "--group", "S3", "--trials", "4000"], 1),
        # a few bytes that sit in stdout's buffer until the command ends
        (["rank", "--group", "S3"], 0),
    ],
    ids=["large", "small"],
)
def test_closed_stdout_exits_141_quietly(argv, lines_read):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "hslab.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline().startswith(b"# hslab 0.1.0 ")
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait() == 141
    assert stderr == ""


def test_verify_all_battery():
    proc = run_cli("verify-all")
    lines = proc.stdout.splitlines()
    assert lines[-1] == "all checks passed"
    assert sum(1 for ln in lines if ln.startswith("ok: ")) >= 20
