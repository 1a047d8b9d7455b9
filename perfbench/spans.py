"""Span tracing of hslab from outside the package.

`install(tracer)` replaces the public functions of every hslab module (and
a few methods) with wrappers that record a span while `tracer.active` is
true and call straight through otherwise.  Every name in every loaded hslab
module that refers to a wrapped function is rebound, so calls made through
`from .x import f` bindings are traced too.  Spans are kept in memory;
`Tracer.dump` writes them to a file once, at the end of a process.

`pass_metrics` turns the span files of one pass into the per-layer metrics
named in BENCHMARK.json.  A layer is one module of `src/hslab`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("groups", "irreps", "irrep_cache", "states", "subset_sums", "measurements", "iso", "cli")

# Span names that differ from "<module>.<function>".
RENAMED = {
    ("irrep_cache", "read_cache"): "irrep_cache.read",
    ("irrep_cache", "write_cache"): "irrep_cache.write",
    ("states", "averaged_shift_state_dense"): "states.dense_build",
    ("states", "shift_state_dense"): "states.dense_build",
    ("states", "maximally_mixed_state"): "states.dense_build",
}

# Helpers called tens of thousands of times per job, where a span each
# would cost about as much as the work: their time stays in the caller's
# self time.  Group.compose and Group.inverse are counted instead.
UNTRACED = {
    ("irreps", "kron_stack"),
    ("groups", "check_perm"),
    ("groups", "compose_perms"),
    ("groups", "invert_perm"),
    ("groups", "perm_rank"),
    ("groups", "perm_unrank"),
    ("groups", "adjacent_transposition_word"),
}


class Tracer:
    """Spans and counters of one process, recorded only while `active`."""

    def __init__(self, job: int = 0):
        self.job = job
        self.active = False
        # span: [name, job, parent index, start, end, info]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


# ---------------------------------------------------------------------------
# per-span details kept for the metrics


def _power_block_info(args, kwargs, out):
    reps = args[0]
    exponents = args[1] if len(args) > 1 else kwargs["exponents"]
    shift = args[2] if len(args) > 2 else kwargs.get("shift")
    return (reps[0].group.descriptor, [r.label for r in reps], exponents, shift)


def _dim_of_result(args, kwargs, out):
    return out.dim


def _dense_dim(args, kwargs, out):
    return out.dimension


def _helstrom_dim(args, kwargs, out):
    return len(out.projector_first)


def _table_cells(args, kwargs, out):
    return int(out.counts.size)


def _file_bytes(args, kwargs, out):
    if out is None:
        return None
    return os.path.getsize(args[0])


def _written_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


INFO = {
    "states.power_block": _power_block_info,
    "states.state_block": _dim_of_result,
    "states.dense_build": _dense_dim,
    "measurements.helstrom": _helstrom_dim,
    "subset_sums.subset_sum_table": _table_cells,
    "irrep_cache.read": _file_bytes,
    "irrep_cache.write": _written_bytes,
}


def _span_wrapper(tracer: Tracer, name: str, fn):
    info = INFO.get(name)
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        spans, stack = tracer.spans, tracer.stack
        index = len(spans)
        record = [name, tracer.job, stack[-1] if stack else -1, clock(), 0.0, None]
        spans.append(record)
        stack.append(index)
        try:
            out = fn(*args, **kwargs)
        finally:
            record[4] = clock()
            stack.pop()
        if info is not None:
            record[5] = info(args, kwargs, out)
        return out

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap hslab's public functions, importing every layer first (hslab
    imports irrep_cache lazily, through its module attribute)."""
    modules = {layer: importlib.import_module(f"hslab.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or (layer, attr) in UNTRACED:
                continue
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            name = RENAMED.get((layer, attr), f"{layer}.{attr}")
            replaced[id(obj)] = _span_wrapper(tracer, name, obj)

    groups, irreps = modules["groups"], modules["irreps"]
    states, subset_sums = modules["states"], modules["subset_sums"]
    methods = [
        (groups.Group, "compose", _count_wrapper, "groups.compose"),
        (groups.Group, "inverse", _count_wrapper, "groups.inverse"),
        (irreps.Irrep, "_build_stack", _span_wrapper, "irreps.stack_build"),
        (states.ShiftState, "validate", _span_wrapper, "states.ShiftState.validate"),
        (subset_sums.SubsetSumTable, "rank", _span_wrapper, "subset_sums.SubsetSumTable.rank"),
    ]
    for cls, attr, make, name in methods:
        setattr(cls, attr, make(tracer, name, getattr(cls, attr)))

    loaded = [m for key, m in list(sys.modules.items()) if key == "hslab" or key.startswith("hslab.")]
    for module in loaded:
        for attr, obj in list(vars(module).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(module, attr, wrapper)


# ---------------------------------------------------------------------------
# metrics of one pass


def pass_metrics(span_files: list[str], pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its span files.

    `s` sums the inclusive time of the spans of a name that have no
    ancestor of the same name, `self_s` sums span time minus the time its
    child spans cover.  `layer.<module>.self_s` sums self time over every
    span of one module; those sums plus `trace.residual_frac` of the traced
    pass make up the whole pass.
    """
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    dim_max: dict[str, int] = {}
    info_sum: dict[str, float] = {}
    keys: set[str] = set()
    counts: dict[str, int] = {}
    helstrom_dims: list[int] = []
    hits = 0
    for path in span_files:
        with open(path) as fh:
            data = json.load(fh)
        spans = data["spans"]
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
        child = [0.0] * len(spans)
        for name, job, parent, start, end, info in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, job, parent, start, end, info) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            outer = parent
            while outer >= 0 and spans[outer][0] != name:
                outer = spans[outer][2]
            if outer < 0:
                incl[name] = incl.get(name, 0.0) + dur
            if info is None:  # no details, or an irrep cache miss
                continue
            if name == "states.power_block":
                keys.add(json.dumps(info))
            elif name in ("states.state_block", "states.dense_build", "measurements.helstrom"):
                dim_max[name] = max(dim_max.get(name, 0), info)
                if name == "measurements.helstrom":
                    helstrom_dims.append(info)
            else:  # table cells and cache file bytes
                info_sum[name] = info_sum.get(name, 0) + info
                if name == "irrep_cache.read":
                    hits += 1

    def s(name):
        return incl.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value
    pb_calls = n("states.power_block")
    cache = "irrep_cache.read"
    out = {
        "states.power_block.s": s("states.power_block"),
        "states.power_block.calls": pb_calls,
        "states.power_block.distinct": len(keys),
        "states.power_block.distinct_frac": len(keys) / pb_calls if pb_calls else 0.0,
        "states.state_block.self_s": self_s.get("states.state_block", 0.0),
        "states.state_block.calls": n("states.state_block"),
        "states.state_block.dim_max": dim_max.get("states.state_block", 0),
        "states.state_rank.self_s": self_s.get("states.state_rank", 0.0),
        "states.spectrum.s": s("states.spectrum"),
        "states.state_spectrum.s": s("states.state_spectrum"),
        "states.dense_build.s": s("states.dense_build"),
        "states.dense_build.dim_max": dim_max.get("states.dense_build", 0),
        "measurements.helstrom.s": s("measurements.helstrom"),
        "measurements.helstrom.calls": n("measurements.helstrom"),
        "measurements.helstrom.dim_max": dim_max.get("measurements.helstrom", 0),
        # eigh with vectors ~9n^3 plus three n x n products of 2n^3 each
        "measurements.helstrom.flops_est": sum(15.0 * float(dim) ** 3 for dim in helstrom_dims),
        "subset_sums.subset_sum_table.s": s("subset_sums.subset_sum_table"),
        "subset_sums.subset_sum_table.cells": info_sum.get("subset_sums.subset_sum_table", 0),
        "subset_sums.moments.s": s("subset_sums.moments"),
        "groups.parse_group.s": s("groups.parse_group"),
        "groups.compose.calls": counts.get("groups.compose", 0),
        "groups.inverse.calls": counts.get("groups.inverse", 0),
        "irreps.irreps.s": s("irreps.irreps"),
        "irreps.stack_build.s": s("irreps.stack_build"),
        "irreps.stack_build.count": n("irreps.stack_build"),
        "irreps.fourier.s": s("irreps.fourier"),
        "irreps.fourier.calls": n("irreps.fourier"),
        "irrep_cache.read.s": s(cache),
        "irrep_cache.read.hits": hits,
        "irrep_cache.read.misses": n(cache) - hits,
        "irrep_cache.read.bytes": info_sum.get(cache, 0),
        "irrep_cache.write.s": s("irrep_cache.write"),
        "irrep_cache.write.bytes": info_sum.get("irrep_cache.write", 0),
        "measurements.single_register_distributions.s": s("measurements.single_register_distributions"),
        "measurements.single_register_distributions.calls": n("measurements.single_register_distributions"),
        "measurements.indistinguishability_sweep.s": s("measurements.indistinguishability_sweep"),
        "iso.make_shift_oracles.s": s("iso.make_shift_oracles"),
        "iso.find_shift_bruteforce.s": s("iso.find_shift_bruteforce"),
        "iso.states_from_oracles.s": s("iso.states_from_oracles"),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self[layer]
    out["trace.residual_frac"] = 1.0 - sum(layer_self.values()) / pass_s
    return out
