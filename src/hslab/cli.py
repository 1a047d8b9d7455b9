"""Command line interface.

Subcommands expose the main library entry points: block spectra, state
ranks, abelian subset-sum statistics, Helstrom discrimination, weak
sampling, variance bounds for single-register measurements, random-POVM
indistinguishability sweeps, graph-based oracle instances, and a self-check
battery. Output is CSV (with a single comment line carrying the tool
version and the run configuration) or JSON; both are deterministic for a
fixed configuration and contain no timestamps.

Exit codes: 0 success, 2 invalid input, 3 capacity limit, 4 internal
consistency failure, 141 stdout closed early (a broken pipe). Errors are
reported as a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import CapacityError, ConsistencyError, DomainError
from .groups import (
    Group,
    abelian_group,
    abelian_subgroup_of_abelian,
    abelian_subgroup_of_symmetric,
    parse_group,
    symmetric_group,
)
from .irreps import fourier, irreps, plancherel
from .measurements import (
    helstrom,
    indistinguishability_sweep,
    random_povm,
    single_register_distributions,
    tv_distance,
    variance_bound_rows,
    weak_sampling_distribution,
    weighted_variance_sum,
)
from .states import (
    averaged_shift_state_dense,
    block_shift_state,
    dense_from_blocks,
    interior_eigenvalue_check,
    maximally_mixed_state,
    one_copy_state,
    rank_closed_form,
    shift_state_dense,
    spectrum_rows,
    state_rank,
    subgroup_restriction_check,
    to_block_basis,
)
from .subset_sums import moment_formulas, moments, subset_sum_table, success_from_rank, success_probability
from . import iso as iso_mod

VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# serialization helpers


def _fraction_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return _fraction_text(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return _fraction_text(value)
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".15g")
    return str(value)


def _write_csv(stream, rows: list[dict], config: dict) -> None:
    stream.write(f"# hslab {VERSION} {json.dumps(_jsonable(config), sort_keys=True)}\n")
    if not rows:
        return
    columns = list(rows[0].keys())
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row.get(c)) for c in columns])


def _write_json(stream, payload: dict) -> None:
    json.dump(_jsonable(payload), stream, indent=2, sort_keys=True)
    stream.write("\n")


def _emit(args, rows: list[dict], config: dict, extra: dict | None = None) -> None:
    payload = {"version": VERSION, "config": config, "rows": rows}
    if extra:
        payload.update(extra)

    def write(stream):
        if args.format == "csv":
            _write_csv(stream, rows, config)
        else:
            _write_json(stream, payload)

    _write_out(args, write)


def _write_out(args, write) -> None:
    """Call write on the --out file, or on stdout when there is none."""
    if not args.out:
        write(sys.stdout)
        return
    try:
        with open(args.out, "w", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise DomainError(f"cannot write output file: {exc}") from exc


# the options that say where and how a run writes its output or reads its
# input, not what it computes; they stay out of the printed configuration
_IO_OPTIONS = frozenset({"handler", "out", "format", "cache_dir", "inline"})


def _config(args, group: Group | None, **extra) -> dict:
    """The printed configuration: the subcommand, the group's descriptor and
    every other parsed option except the I/O ones, plus extra."""
    config = {key: value for key, value in vars(args).items() if key not in _IO_OPTIONS}
    if group is not None:
        config["group"] = group.descriptor
    return {**config, **extra}


# ---------------------------------------------------------------------------
# subcommand handlers: each gets the parsed arguments and the loaded group
# (None for a subcommand without --group), with k and every shift checked


def _cmd_spectrum(args, group: Group) -> None:
    rows = spectrum_rows(group, args.k, args.shift)
    config = _config(
        args, group, eigenvalue_scale="block", state_scale_factor=f"(2*{group.order})^-{args.k}"
    )
    _emit(args, rows, config)


def _cmd_rank(args, group: Group) -> None:
    shift = args.shift
    rank = state_rank(group, args.k, shift)
    if shift is None:
        closed = rank_closed_form(group, args.k) if args.k <= 2 else None
    else:
        closed = group.order ** args.k
    row = {
        "group": group.descriptor,
        "k": args.k,
        "variant": "averaged" if shift is None else "fixed",
        "shift": shift,
        "dimension": (2 * group.order) ** args.k,
        "rank": rank,
        "closed_form": closed,
        "agrees": None if closed is None else rank == closed,
    }
    if closed is not None and rank != closed:
        raise ConsistencyError(
            f"numeric rank {rank} disagrees with the closed form {closed}"
        )
    _emit(args, [row], _config(args, group))


def _cmd_subset_sum(args, group: Group) -> None:
    # refuse moments past the int-to-str digit limit (0: none) before counting them;
    # 2^k has over 0.3 k digits, so a k past four times the limit is tried at that bound
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        if limit and group.is_abelian:  # moments refuses any other group
            mean, second = moment_formulas(group.order, min(args.k, 4 * limit + 1))
            list(map(str, (mean, second, second - mean ** 2)))
    except ValueError as exc:
        raise CapacityError(f"the exact moments of k={args.k} copies have too many digits to print") from exc
    report = moments(group, args.k, method=args.method)
    if not report.agree():
        raise ConsistencyError("counted moments disagree with the closed forms")
    try:
        table = report.table or subset_sum_table(group, args.k)
        rank = table.rank()
        success = success_from_rank(rank, group.order, args.k)
    except CapacityError:
        rank = None
        success = None
    bound = Fraction(1, 2) * (1 + Fraction(group.order, 2 ** args.k))
    row = {
        "group": group.descriptor,
        "k": args.k,
        "rank": rank,
        "mean": report.mean_formula,
        "second_moment": report.second_formula,
        "variance": report.variance,
        "success": success,
        "success_float": None if success is None else float(success),
        "bound": bound,
        "bound_float": float(bound),
        "method": report.method,
    }
    _emit(args, [row], _config(args, group))


def _cmd_helstrom(args, group: Group) -> None:
    shift, shift2 = args.shift, args.shift2
    if shift is None and shift2 is not None:
        raise DomainError("--shift2 requires --shift")
    if shift is None:
        first = averaged_shift_state_dense(group, args.k)
        first_name = "averaged"
    else:
        first = shift_state_dense(group, shift, args.k)
        first_name = f"shift {shift}"
    if shift2 is None:
        second = maximally_mixed_state(group, args.k)
        second_name = "mixed"
    else:
        second = shift_state_dense(group, shift2, args.k)
        second_name = f"shift {shift2}"
    result = helstrom(first.dense, second.dense)
    derived = 0.5 + 0.25 * result.trace_norm
    if abs(result.success - derived) > 1e-10:
        raise ConsistencyError(
            "optimal success probability deviates from the trace-norm formula"
        )
    row = {
        "group": group.descriptor,
        "k": args.k,
        "first": first_name,
        "second": second_name,
        "success": result.success,
        "trace_norm": result.trace_norm,
    }
    _emit(args, [row], _config(args, group))


def _cmd_weak_sample(args, group: Group) -> None:
    shift = args.shift
    dist = weak_sampling_distribution(one_copy_state(group, shift))
    reference = plancherel(group)
    rows = []
    for rep in irreps(group):
        prob = dist[rep.label]
        ref = reference[rep.label]
        rows.append(
            {
                "group": group.descriptor,
                "variant": "averaged" if shift is None else f"shift {shift}",
                "irrep_label": rep.name,
                "d_rho": rep.dim,
                "probability": prob,
                "plancherel": ref,
                "deviation": abs(prob - float(ref)),
            }
        )
    _emit(args, rows, _config(args, group))


def _cmd_variance_bound(args, group: Group) -> None:
    rows = variance_bound_rows(group, args.trials, args.seed, args.outcomes)
    _emit(args, rows, _config(args, group))


def _cmd_sweep(args, group: Group) -> None:
    report = indistinguishability_sweep(group, args.trials, args.seed, args.outcomes)
    _emit(args, report.rows(), _config(args, group), extra={"summary": report.summary()})


def _cmd_iso(args, group: None) -> None:
    if args.inline:
        first_text = args.first.replace(";", "\n")
        second_text = args.second.replace(";", "\n")
    else:
        try:
            first_text = Path(args.first).read_text()
            second_text = Path(args.second).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read graph file: {exc}") from exc
    A = iso_mod.parse_graph_text(first_text)
    B = iso_mod.parse_graph_text(second_text)
    pair = iso_mod.make_shift_oracles(A, B)
    G = pair.group
    shift = iso_mod.find_shift_bruteforce(pair)
    independent = iso_mod.are_isomorphic(A, B)
    if (shift is None) != (independent is None):
        raise ConsistencyError("oracle search and exhaustive search disagree")
    _, deviation = iso_mod.check_oracle_state(pair, shift)
    if deviation > 1e-12:
        raise ConsistencyError("oracle state deviates from its reference form")
    payload = {
        "version": VERSION,
        "config": _config(args, None),
        "isomorphic": shift is not None,
        "group": G.descriptor,
        "shift_index": shift,
        "shift_name": None if shift is None else G.element_name(shift),
        "state_dimension": 2 * G.order,
        "state_reference": "mixed" if shift is None else "averaged base point, inverse shift",
        "state_max_abs_deviation": deviation,
    }
    _write_out(args, lambda fh: _write_json(fh, payload))


# ---------------------------------------------------------------------------
# verify-all battery


def _ok(message: str) -> None:
    print(f"ok: {message}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConsistencyError(message)
    _ok(message)


def _cmd_verify_all(args, group: None) -> None:
    cache = args.cache_dir or None

    for name in ("S3", "S4", "Z2xZ4"):
        group = parse_group(name)
        irreps(group, cache_dir=cache)
        fourier(group)
        _ok(f"fourier transform of {name} is unitary and block-diagonalizes translation")

    for name, k in (("S3", 1), ("S3", 2), ("Z4", 2)):
        group = parse_group(name)
        dense = to_block_basis(averaged_shift_state_dense(group, k).dense, group, k)
        blocks = dense_from_blocks(block_shift_state(group, k))
        _require(
            float(np.max(np.abs(dense - blocks))) <= 1e-10,
            f"dense and block constructions of the averaged {name} k={k} state agree",
        )

    for name, k in (("S3", 1), ("S3", 2), ("S4", 2), ("Z4", 2), ("Z2xZ4", 2)):
        group = parse_group(name)
        _require(
            state_rank(group, k) == rank_closed_form(group, k),
            f"rank of the averaged {name} k={k} state matches the closed form",
        )

    group = parse_group("S4")
    dist = weak_sampling_distribution(one_copy_state(group))
    reference = plancherel(group)
    _require(
        max(abs(dist[lab] - float(p)) for lab, p in reference.items()) <= 1e-12,
        "weak sampling of S4 reproduces the Plancherel distribution",
    )

    group = parse_group("S3")
    worst = 0.0
    for rep in irreps(group):
        if rep.is_trivial:
            continue
        povm = random_povm(2 * rep.dim, 4 * rep.dim, seed=0)
        dists = single_register_distributions(rep, povm)
        worst = max(worst, tv_distance(dists.averaged, dists.mixed).tv)
        _require(
            weighted_variance_sum(rep, povm) <= 1.0 / rep.dim ** 2 + 1e-10,
            f"weighted variance sum within 1/d^2 for S3 irrep {rep.name}",
        )
    _require(
        worst <= 1e-12,
        "averaged single-register statistics of S3 match the mixed state",
    )

    report = moments(abelian_group(8), 4, method="table")
    conv = moments(abelian_group(8), 4, method="convolution")
    _require(
        report.agree()
        and conv.agree()
        and report.mean_counted == conv.mean_counted
        and report.second_counted == conv.second_counted,
        "subset-sum moments of Z8 k=4 agree between table and convolution",
    )

    group = parse_group("S3")
    hel = helstrom(
        averaged_shift_state_dense(group, 1).dense,
        maximally_mixed_state(group, 1).dense,
    )
    _require(
        abs(hel.success - (0.5 + 0.25 * hel.trace_norm)) <= 1e-12,
        "Helstrom success equals the trace-norm formula for S3",
    )
    Z6 = abelian_group(6)
    _require(
        abs(
            helstrom(
                averaged_shift_state_dense(Z6, 1).dense,
                maximally_mixed_state(Z6, 1).dense,
            ).success
            - float(success_probability(Z6, 1).probability)
        )
        <= 1e-10,
        "Helstrom success for Z6 matches the subset-sum support count",
    )

    _require(
        interior_eigenvalue_check(parse_group("S4"), 2).found,
        "averaged S4 k=2 state has an eigenvalue strictly inside (0, dim^-1)",
    )
    _require(
        not interior_eigenvalue_check(parse_group("Z2"), 1).found,
        "averaged Z2 k=1 state has no eigenvalue strictly inside (0, dim^-1)",
    )

    _require(
        subgroup_restriction_check(abelian_subgroup_of_symmetric(4, (4,))),
        "states with shifts from the cyclic subgroup of S4 factor as expected",
    )
    _require(
        subgroup_restriction_check(abelian_subgroup_of_abelian(abelian_group(4), (2,))),
        "states with shifts from the index-2 subgroup of Z4 factor as expected",
    )

    A, B0 = iso_mod.rigid_corpus(6, 2)
    sigma = (1, 2, 3, 4, 5, 0)
    pair = iso_mod.make_shift_oracles(A, iso_mod.graph_act(sigma, A))
    found = iso_mod.find_shift_bruteforce(pair)
    G6 = symmetric_group(6)
    _require(
        found is not None and G6.perm(found) == sigma,
        "oracle shift recovery returns the planted relabeling on a rigid 6-vertex graph",
    )
    disjoint = iso_mod.find_shift_bruteforce(iso_mod.make_shift_oracles(A, B0))
    _require(
        disjoint is None,
        "oracle shift recovery reports non-isomorphic rigid graphs as unrelated",
    )

    print("all checks passed")


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, *, group=True, k=False) -> None:
    if group:
        p.add_argument("--group", required=True, help="group descriptor, e.g. S4 or Z2xZ4")
    if k:
        p.add_argument("--k", type=int, default=1, help="number of state copies")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--cache-dir", help="irrep matrix cache directory")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a DomainError (exit 2, JSON on stderr)."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hslab",
        description="numerical laboratory for hidden-shift states and measurements",
    )
    parser.add_argument("--version", action="version", version=f"hslab {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="clustered block spectra of a state")
    _add_common(p, k=True)
    p.add_argument("--shift", type=int, help="fixed shift index (default: averaged state)")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("rank", help="numeric rank of a state, with closed forms")
    _add_common(p, k=True)
    p.add_argument("--shift", type=int)
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("subset-sum", help="abelian subset-sum statistics and moments")
    _add_common(p, k=True)
    p.add_argument(
        "--method",
        choices=("auto", "table", "convolution"),
        default="auto",
        help="how to count subset sums",
    )
    p.set_defaults(handler=_cmd_subset_sum)

    p = sub.add_parser("helstrom", help="optimal discrimination of two states")
    _add_common(p, k=True)
    p.add_argument("--shift", type=int, help="first state: fixed shift (default averaged)")
    p.add_argument("--shift2", type=int, help="second state: fixed shift (default mixed)")
    p.set_defaults(handler=_cmd_helstrom)

    p = sub.add_parser("weak-sample", help="exact irrep-label distribution")
    _add_common(p)
    p.add_argument("--shift", type=int)
    p.set_defaults(handler=_cmd_weak_sample)

    p = sub.add_parser("variance-bound", help="variance bound for random measurements")
    _add_common(p)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outcomes", type=int)
    p.set_defaults(handler=_cmd_variance_bound)

    p = sub.add_parser("sweep", help="random-POVM indistinguishability sweep")
    _add_common(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outcomes", type=int)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("iso", help="graph-pair oracle instance and shift recovery")
    p.add_argument("--first", required=True, help="graph file (or inline text with --inline)")
    p.add_argument("--second", required=True)
    p.add_argument("--inline", action="store_true", help="treat --first/--second as text, ';' splits lines")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("verify-all", help="run the self-check battery")
    p.add_argument("--cache-dir")
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "k", 1) < 1:
            raise DomainError("k must be at least 1")
        group = None
        if hasattr(args, "group"):
            group = parse_group(args.group)
            irreps(group, cache_dir=args.cache_dir or None)
            for shift in (getattr(args, "shift", None), getattr(args, "shift2", None)):
                if shift is not None:
                    group.check_index(shift)
        args.handler(args, group)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return 0
    except DomainError as exc:
        return _fail(exc, 2)
    except CapacityError as exc:
        return _fail(exc, 3)
    except ConsistencyError as exc:
        return _fail(exc, 4)
    except BrokenPipeError:
        # The reader of stdout went away; send the rest to devnull so the
        # interpreter's final flush stays quiet, and exit as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
