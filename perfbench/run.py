"""Benchmark of the ``dyspec`` simulator: end-to-end and per-layer figures.

Run from the repository root::

    python3 perfbench/run.py --workload paper-b64 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time, then rounds of
closed-loop ops (one client, one thread) over the workload's fixed list of
op inputs until ``--seconds`` seconds of op time were spent; each op is
timed on its own and checked outside its timing.  ``--trace 1`` runs the
list twice, untraced and then with every layer's public functions
wrapped, and reports per-layer counts and self times.  Both print a
report, then one JSON line as the last line:
``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import tracer as tracing
from workloads import WORKLOADS

ROOT_DIR = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT_DIR / "src"
MODULES = ("categorical", "rng", "lm", "token_tree", "construct", "verify", "engine", "mask_opt")
SETUP_REPEATS = 9

# Gated end-to-end metrics: (name, unit, better).  Every workload reports
# all of them; BENCHMARK.json lists the same names.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Workload-specific end-to-end figures, printed in the report only.  They
# are deterministic per seed (except tokens_per_s) and do not exist on every
# workload, so they cannot be gated metrics.
REPORTED = {
    "tokens_per_s": "tokens/s",
    "accepted_per_step": "tokens/step",
    "modeled_tokens_per_s": "tokens/modeled_s",
    "mask_blocks_dfs": "blocks/tree",
    "failed_ratio": "failed/attempted",
}

# Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = (
    ("engine.steps", "count", "lower"),
    ("engine.step_ms_p50", "ms", "lower"),
    ("engine.step_ms_p90", "ms", "lower"),
    ("engine.self_s", "s", "lower"),
    ("construct.calls", "count", "lower"),
    ("construct.nodes", "count", "higher"),
    ("construct.self_s", "s", "lower"),
    ("construct.us_per_node", "us/node", "lower"),
    ("construct.fixed_s", "s", "lower"),
    ("construct.threshold_s", "s", "lower"),
    ("construct.baseline_s", "s", "lower"),
    ("token_tree.add_node_calls", "count", "lower"),
    ("token_tree.token_path_calls", "count", "lower"),
    ("token_tree.self_s", "s", "lower"),
    ("categorical.sample_calls", "count", "lower"),
    ("categorical.renorm_calls", "count", "lower"),
    ("categorical.residual_calls", "count", "lower"),
    ("categorical.softmax_calls", "count", "lower"),
    ("categorical.bytes_copied", "bytes", "lower"),
    ("categorical.self_s", "s", "lower"),
    ("lm.draft_dist_calls", "count", "lower"),
    ("lm.target_dist_calls", "count", "lower"),
    ("lm.dist_misses", "count", "lower"),
    ("lm.dist_hit_ratio", "ratio", "higher"),
    ("lm.rows_generated", "count", "lower"),
    ("lm.row_gen_s", "s", "lower"),
    ("lm.target_pass_s", "s", "lower"),
    ("rng.keyed_uniform_calls", "count", "lower"),
    ("rng.derive_seed_calls", "count", "lower"),
    ("rng.self_s", "s", "lower"),
    ("verify.calls", "count", "lower"),
    ("verify.branches_tested", "count", "lower"),
    ("verify.branch_accept_ratio", "ratio", "higher"),
    ("verify.bonus_from_residual_ratio", "ratio", "lower"),
    ("verify.us_per_branch", "us/branch", "lower"),
    ("verify.self_s", "s", "lower"),
    ("mask_opt.mask_build_s", "s", "lower"),
    ("mask_opt.order_s", "s", "lower"),
    ("mask_opt.count_s", "s", "lower"),
    ("mask_opt.blocks_original", "blocks/tree", "lower"),
    ("mask_opt.blocks_hpd", "blocks/tree", "lower"),
    ("mask_opt.mask_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_ratio", "ratio", "lower"),
)

# Which end-to-end metric each layer's metrics should move, on which
# workloads the layer matters, and where its share is predicted to be about
# zero.  Written before measuring; the traced report checks the last column.
LAYER_MAP = {
    "engine": {"moves": ["op_ms_p50"], "on": ["paper-b64", "bench-cold"],
               "near_zero_on": ["mc-verify", "mask-2048"]},
    "construct": {"moves": ["tokens_per_s", "op_ms_p50"], "on": ["paper-b64", "bench-cold"],
                  "near_zero_on": ["mc-verify", "mask-2048"]},
    "token_tree": {"moves": ["tokens_per_s"], "on": ["paper-b64"], "near_zero_on": ["mask-2048"]},
    "categorical": {"moves": ["tokens_per_s", "op_ms_p50"], "on": ["paper-b64", "mc-verify"],
                    "near_zero_on": ["mask-2048"]},
    "lm": {"moves": ["op_ms_p50", "setup_s", "tokens_per_s"], "on": ["bench-cold", "paper-b64"],
           "near_zero_on": ["mc-verify", "mask-2048"]},
    "rng": {"moves": ["op_ms_p50"], "on": ["bench-cold", "mc-verify"], "near_zero_on": ["mask-2048"]},
    "verify": {"moves": ["op_ms_p50", "op_ms_p90"], "on": ["mc-verify"], "near_zero_on": ["mask-2048"]},
    "mask_opt": {"moves": ["ops_per_s", "op_ms_p50", "peak_rss_mb"], "on": ["mask-2048"],
                 "near_zero_on": ["paper-b64", "bench-cold", "mc-verify"]},
}

# Layers whose calls must be non-zero in a workload's traced ops; a zero
# means the wrapping no longer reaches the layer, and the run fails.
RUNS_ON = {
    "paper-b64": ("engine", "construct", "token_tree", "categorical", "lm", "rng", "verify"),
    "bench-cold": ("engine", "construct", "token_tree", "categorical", "lm", "rng", "verify"),
    "mc-verify": ("categorical", "rng", "verify"),
    "mask-2048": ("mask_opt",),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def import_dyspec() -> Dict[str, object]:
    """Import the program afresh from ``src/``; returns its modules by name."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    for name in [n for n in sys.modules if n == "dyspec" or n.startswith("dyspec.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dyspec")
    if Path(pkg.__file__).resolve().parent != SRC_DIR / "dyspec":
        raise BenchError(f"dyspec imported from {pkg.__file__}, not from {SRC_DIR}")
    return {name: importlib.import_module(f"dyspec.{name}") for name in MODULES}


def set_up(name: str, seed: int, tiny: bool, repeats: int):
    """Import and build the workload ``repeats`` times; keep the last one.

    numpy is imported first, so every repeat times the same work.  Returns
    the modules, the workload, and the raw and rescaled set-up times (see
    :class:`Speed`; the kernel is timed before and after each repeat).
    """
    import numpy  # noqa: F401

    speed = Speed()
    times, scaled = [], []
    workload = None
    for _ in range(repeats):
        dy = workload = None
        gc.collect()
        speed.probe()
        before = speed.kernel_s
        t0 = perf_counter()
        dy = import_dyspec()
        workload = WORKLOADS[name](dy, seed, tiny)
        times.append(perf_counter() - t0)
        speed.probe()
        scaled.append(times[-1] * speed.quiet_s * 2 / (before + speed.kernel_s))
    return dy, workload, times, scaled


def provenance(seed: int, counts: Dict[str, int]) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "op_counts": counts,
    }


def git_sha() -> str:
    """Commit of the checkout read from ``.git``; "unknown" outside a repository."""
    head = ROOT_DIR / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT_DIR / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT_DIR / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


_KERNEL_DATA: Dict[str, object] = {}


def python_kernel() -> float:
    """Fixed interpreter-bound work: bytecode, dicts, hashing, small numpy calls."""
    import numpy as np

    vec = _KERNEL_DATA.get("vector")
    if vec is None:
        vec = _KERNEL_DATA["vector"] = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    table = {}
    for i in range(64):
        h = hashlib.blake2b(i.to_bytes(8, "little"), digest_size=8).digest()
        table[(i, i & 7)] = int.from_bytes(h, "little") >> 11
        cdf = np.cumsum(vec / vec.sum())
        acc += float(cdf[int(np.searchsorted(cdf, 0.5, side="right"))])
        acc += sum(table[(j, j & 7)] & 3 for j in range(max(0, i - 6), i + 1))
    return acc


def memory_kernel() -> int:
    """Fixed memory-bound work: gather and block-reduce a 512x512 bool matrix."""
    import numpy as np

    data = _KERNEL_DATA.get("matrix")
    if data is None:
        rng = np.random.default_rng(0)
        data = _KERNEL_DATA["matrix"] = (rng.random((512, 512)) < 0.5, rng.permutation(512))
    bits, perm = data
    return int(bits[np.ix_(perm, perm)].reshape(16, 32, 16, 32).any(axis=(1, 3)).sum())


# Reference kernels and their time, in seconds, on a quiet machine.
KERNELS = {"python": (python_kernel, 0.00055), "memory": (memory_kernel, 0.0012)}
# Op time between two timings of the kernel.
PROBE_EVERY_S = 0.05


class Speed:
    """Machine speed, seen by timing a reference kernel between ops.

    On a shared machine, other tenants can slow everything in it by up to
    a half for seconds at a time.  The kernel is timed (best of three) at
    the start of a round and again after every :data:`PROBE_EVERY_S` of op
    time.  An op's time is rescaled by ``quiet time / kernel time``, taking
    the mean of the kernel times before and after the op, so that a slow
    period slows the kernel and the op alike and cancels out.  A workload
    names the kernel whose kind of work it resembles, because
    interpreter-bound and memory-bound code slow down under different
    neighbours.  The unscaled times are reported too.
    """

    def __init__(self, kernel: str = "python"):
        self.kernel, self.quiet_s = KERNELS[kernel]
        self.since_s = 0.0
        self.kernel_s = self.quiet_s
        self.probes = 0

    def probe(self) -> None:
        times = []
        for _ in range(3):
            t0 = perf_counter()
            self.kernel()
            times.append(perf_counter() - t0)
        self.kernel_s = min(times)
        self.since_s = 0.0
        self.probes += 1

    def scale(self, dt: float) -> float:
        """Rescale an op's time ``dt``; times the kernel again when due."""
        before = self.kernel_s
        self.since_s += dt
        if self.since_s >= PROBE_EVERY_S:
            self.probe()
        return dt * self.quiet_s * 2 / (before + self.kernel_s)


class Pass:
    """Rounds over a fixed list of op inputs, in a closed loop.

    Op i+1 starts after op i ended.  Only the op is timed; input generation
    and output checks are not.  The first round checks every output in
    full, in batches of ``workload.check_batch`` so that short ops run back
    to back; later rounds check that each output equals the first one.
    An input's latency is its median over rounds of the time rescaled by
    :class:`Speed`; rounds seconds apart see different interference from
    other tenants of the machine.
    """

    def __init__(self, workload, inputs: list, run_op: Optional[Callable] = None):
        self.workload = workload
        self.inputs = inputs
        self.run_op = run_op or (lambda op, inp: op(inp))
        self.speed = Speed(workload.speed_kernel)
        # Per round, each input's time: rescaled, and as measured.
        self.scaled: List[array] = []
        self.raw: List[array] = []
        self.records: List[Optional[dict]] = [None] * len(inputs)
        self.rounds = 0
        self.executions = 0
        self.spent_s = 0.0
        self.scaled_s = 0.0
        self.emitted = 0
        self.failures: List[str] = []

    def run(self, seconds: float) -> None:
        """One round, then more until ``seconds`` of op time were spent."""
        while self.rounds == 0 or self.spent_s < seconds:
            self.round()

    def round(self) -> None:
        pending = []
        gc.collect()
        # As timeit does: no cyclic collection inside a round, so a
        # collection's pause does not land on whichever op triggered it.
        gc.disable()
        try:
            self._round(pending)
        finally:
            gc.enable()
        self.rounds += 1

    def _round(self, pending: list) -> None:
        w = self.workload
        scaled_times = array("d", [math.nan] * len(self.inputs))
        raw_times = array("d", [math.nan] * len(self.inputs))
        self.scaled.append(scaled_times)
        self.raw.append(raw_times)
        self.speed.probe()
        for i, inp in enumerate(self.inputs):
            t0 = perf_counter()
            try:
                out = self.run_op(w.op, inp)
            except Exception:
                out = None
                self.failures.append(f"op {i} raised:\n{traceback.format_exc()}")
            dt = perf_counter() - t0
            self.spent_s += dt
            self.executions += 1
            scaled = self.speed.scale(dt)
            self.scaled_s += scaled
            if out is None:
                continue
            scaled_times[i] = scaled
            raw_times[i] = dt
            record = w.record(inp, out)
            if self.records[i] is None:
                self.records[i] = record
                pending.append((i, inp, out))
            elif record != self.records[i]:
                self.failures.append(f"op {i}: round {self.rounds} output differs from round 0")
            del out
            if len(pending) >= w.check_batch:
                self._check(pending)
        self._check(pending)

    def _check(self, pending: list) -> None:
        w = self.workload
        for i, inp, out in pending:
            problems = w.check(inp, out)
            if problems:
                self.failures.append(f"op {i}: " + "; ".join(problems[:3]))
            self.emitted += w.emitted(out)
        pending.clear()

    def latencies_ms(self, raw: bool = False) -> List[float]:
        """Each input's median time over rounds in ms, rescaled unless ``raw``."""
        rounds = self.raw if raw else self.scaled
        out = []
        for i in range(len(self.inputs)):
            times = [r[i] for r in rounds if not math.isnan(r[i])]
            if times:
                out.append(statistics.median(times) * 1e3)
        return out


def end_to_end(name: str, seed: int, seconds: int, tiny: bool, after_setup=None) -> Tuple[dict, dict, List[str]]:
    dy, workload, setup_raw, setup_scaled = set_up(name, seed, tiny, 1 if tiny else SETUP_REPEATS)
    if after_setup is not None:
        after_setup(dy)
    patcher = tracing.Patcher()
    if workload.generation:
        tracing.capture_steps(patcher, dy, workload.sink)
    ops = Pass(workload, [workload.input(i) for i in range(workload.ops)])
    try:
        ops.round()
        # Read after one round, so that the number of rounds a faster
        # program fits into --seconds cannot change it.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops.run(seconds)
    finally:
        patcher.restore()

    # With no successful op there is no latency: the figures read 0 and the
    # run reports every op as failed.
    def latency_metrics(lat_ms: List[float], setup: List[float]) -> dict:
        return {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (len(lat_ms) * 1e3 / math.fsum(lat_ms) if lat_ms else 0.0, "ops/s"),
            "op_ms_p50": (percentile(lat_ms, 50), "ms"),
            "op_ms_p90": (percentile(lat_ms, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    lat_ms = ops.latencies_ms()
    extra = {
        "attempted": ops.executions,
        "failed": len(ops.failures),
        "inputs": len(ops.inputs),
        "rounds": ops.rounds,
        "spent_s": ops.spent_s,
        "probes": ops.speed.probes,
        "raw": latency_metrics(ops.latencies_ms(raw=True), setup_raw),
        "setup_repeats": len(setup_raw),
        "summary": workload.summary(ops.records) if None not in ops.records else {},
    }
    if name != "mask-2048":
        extra["tokens_per_s"] = ops.emitted * 1e3 / math.fsum(lat_ms) if lat_ms else 0.0
    if name == "mc-verify":
        extra["z"] = workload.z_scores()
    return latency_metrics(lat_ms, setup_scaled), extra, ops.failures


BUILDERS = ("build_tree_fixed", "build_tree_threshold", "build_baseline_tree")


def traced(name: str, seed: int, tiny: bool, after_setup=None) -> Tuple[dict, dict, List[str]]:
    """One untraced round, then the same ops traced.

    Generation workloads get a round with only the three tree builders
    wrapped, one wrapper call per tree, from which the builder times and
    ``construct.us_per_node`` are taken; then a round with every name in
    :data:`tracer.WRAPPED` wrapped gives the counts and self times.
    """
    dy, workload, _, _ = set_up(name, seed, tiny, 1)
    if after_setup is not None:
        after_setup(dy)
    inputs = [workload.input(i) for i in range(workload.ops)]
    patcher = tracing.Patcher()
    if workload.generation:
        tracing.capture_steps(patcher, dy, workload.sink)
    tracers = [tracing.Tracer(dy, BUILDERS)] if workload.generation else []
    tracers.append(tracing.Tracer(dy))
    passes = []
    try:
        plain = Pass(workload, inputs)
        plain.round()
        for tracer in tracers:
            tracer.install()
            try:
                passes.append(Pass(workload, inputs, tracer.op))
                passes[-1].round()
            finally:
                tracer.restore()
    finally:
        patcher.restore()
    failures = list(plain.failures)
    for wrapped in passes:
        failures += wrapped.failures
        if plain.records != wrapped.records:
            failures.append("traced and untraced passes produced different outputs")
    t = tracers[-1].trace
    bt = tracers[0].trace if workload.generation else tracing.Trace()
    missing = [layer for layer in RUNS_ON[name] if t.layer_calls(layer) == 0]
    if missing:
        raise tracing.TraceError(f"{name}: no calls recorded in layer(s) {', '.join(missing)}")
    wrapped = passes[-1]
    metrics = layer_metrics(t, bt, workload, plain, wrapped)
    extra = {
        "attempted": plain.executions + sum(p.executions for p in passes),
        "failed": len(failures),
        "inputs": len(inputs),
        "rounds": 1,
        "untraced_s": plain.spent_s,
        "traced_s": wrapped.spent_s,
        "builders_overhead": passes[0].scaled_s / plain.scaled_s - 1.0 if workload.generation else None,
        "summary": workload.summary(plain.records) if None not in plain.records else {},
        "shares": layer_shares(t),
        "trace": t,
        "builder_trace": bt,
    }
    return metrics, extra, failures


def layer_metrics(t: tracing.Trace, bt: tracing.Trace, workload, plain: Pass, wrapped: Pass) -> dict:
    """Per-layer values.  ``t`` is the fully traced pass; ``bt`` the pass
    with only the builders wrapped, for the builder times."""
    s = t.stats

    def calls(*names):
        return sum(s[n].calls for n in names)

    def self_s(*names):
        return sum(s[n].self_s for n in names)

    def total(*names, trace=t):
        return sum(trace.stats[n].total_s for n in names if n in trace.stats)

    dist_calls = calls("LanguageModel.dist")
    branches = t.verify_branches
    verifies = calls("verify_tree")
    cat_calls = calls("sample", "remove_and_renorm", "residual_target", "softmax_with_temperature")
    records = [r for r in plain.records if r is not None]
    mask = workload.name == "mask-2048"
    step_ms = [x * 1e3 for x in t.step_s]
    values = {
        "engine.steps": len(step_ms),
        "engine.step_ms_p50": percentile(step_ms, 50),
        "engine.step_ms_p90": percentile(step_ms, 90),
        "engine.self_s": t.layer_self_s("engine"),
        "construct.calls": calls(*BUILDERS),
        "construct.nodes": t.nodes,
        "construct.self_s": t.layer_self_s("construct"),
        "construct.us_per_node": total(*BUILDERS, trace=bt) / bt.nodes * 1e6 if bt.nodes else 0.0,
        "construct.fixed_s": total("build_tree_fixed", trace=bt),
        "construct.threshold_s": total("build_tree_threshold", trace=bt),
        "construct.baseline_s": total("build_baseline_tree", trace=bt),
        "token_tree.add_node_calls": calls("TokenTree.add_node"),
        "token_tree.token_path_calls": calls("TokenTree.token_path"),
        "token_tree.self_s": t.layer_self_s("token_tree"),
        "categorical.sample_calls": calls("sample"),
        "categorical.renorm_calls": calls("remove_and_renorm"),
        "categorical.residual_calls": calls("residual_target"),
        "categorical.softmax_calls": calls("softmax_with_temperature"),
        # Computed, not measured: each call allocates one V-float64 vector.
        "categorical.bytes_copied": cat_calls * workload.vocab * 8,
        "categorical.self_s": t.layer_self_s("categorical"),
        "lm.draft_dist_calls": t.draft_dist_calls,
        "lm.target_dist_calls": t.target_dist_calls,
        "lm.dist_misses": t.dist_misses,
        "lm.dist_hit_ratio": (dist_calls - t.dist_misses) / dist_calls if dist_calls else 0.0,
        "lm.rows_generated": t.rows_generated,
        "lm.row_gen_s": t.row_gen_s,
        "lm.target_pass_s": total("target_distributions_for_tree"),
        "rng.keyed_uniform_calls": calls("keyed_uniform"),
        "rng.derive_seed_calls": calls("derive_seed"),
        "rng.self_s": t.layer_self_s("rng"),
        "verify.calls": verifies,
        "verify.branches_tested": branches,
        "verify.branch_accept_ratio": t.verify_accepted_branches / branches if branches else 0.0,
        "verify.bonus_from_residual_ratio": t.verify_bonus_from_residual / verifies if verifies else 0.0,
        "verify.us_per_branch": total("verify_tree") / branches * 1e6 if branches else 0.0,
        "verify.self_s": t.layer_self_s("verify"),
        "mask_opt.mask_build_s": self_s("mask_from_tree", "apply_permutation", "ancestor_self_matrix"),
        "mask_opt.order_s": self_s("dfs_order", "hpd_order", "subtree_sizes", "is_topological"),
        "mask_opt.count_s": self_s("count_nonzero_blocks"),
        "mask_opt.blocks_original": (sum(r["blocks"]["original"] for r in records) / len(records)) if mask else 0.0,
        "mask_opt.blocks_hpd": (sum(r["blocks"]["hpd"] for r in records) / len(records)) if mask else 0.0,
        "mask_opt.mask_bytes": t.mask_bytes,
        "trace.overhead_ratio": wrapped.scaled_s / plain.scaled_s - 1.0,
        "trace.unattributed_ratio": t.op_self_s / t.op_total_s if t.op_total_s else 0.0,
    }
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: (values[name], units[name]) for name, _, _ in PER_LAYER}


def layer_shares(t: tracing.Trace) -> dict:
    """Self time of each layer as a share of traced op time."""
    shares = {layer: t.layer_self_s(layer) / t.op_total_s for layer in tracing.LAYERS}
    shares["unattributed"] = t.op_self_s / t.op_total_s
    return shares


# Predictions written before measuring; the traced report says for each
# whether it held.  (workload, claim, figure, test)
PREDICTIONS = (
    ("paper-b64", "construction (builders incl. their children) is the majority of op time",
     lambda m, sh, t, bt: m["construct.fixed_s"][0] / bt.op_total_s,
     lambda v: v > 0.5),
    ("paper-b64", "construct+token_tree+categorical+rng self time is about 85 % of op time",
     lambda m, sh, t, bt: sh["construct"] + sh["token_tree"] + sh["categorical"] + sh["rng"],
     lambda v: 0.7 <= v <= 0.95),
    ("paper-b64", "lm.dist_misses per step shows the per-request softmax recomputation (> 0)",
     lambda m, sh, t, bt: m["lm.dist_misses"][0] / max(1, m["engine.steps"][0]),
     lambda v: v > 0),
    ("paper-b64", "verify is under 5 % of op time",
     lambda m, sh, t, bt: t.stats["verify_tree"].total_s / t.op_total_s,
     lambda v: v < 0.05),
    ("bench-cold", "lm.row_gen_s is a large share (>= 25 %) of op time",
     lambda m, sh, t, bt: m["lm.row_gen_s"][0] / t.op_total_s,
     lambda v: v >= 0.25),
    ("mc-verify", "verify (incl. children) is the majority of op time",
     lambda m, sh, t, bt: t.stats["verify_tree"].total_s / t.op_total_s,
     lambda v: v > 0.5),
    ("mask-2048", "mask_opt is nearly all op time (>= 95 %)",
     lambda m, sh, t, bt: sh["mask_opt"],
     lambda v: v >= 0.95),
)


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(name, seed, seconds, trace, metrics, extra, failures) -> List[str]:
    lines = [f"# perfbench workload={name} seed={seed} seconds={seconds} trace={trace}"]
    for key, (value, unit) in metrics.items():
        lines.append(f"{key:36s} {fmt(value):>14s} {unit}")
    attempted, failed, inputs = extra["attempted"], extra["failed"], extra["inputs"]
    if trace == 0:
        lines.append(f"  setup_s: median of {extra['setup_repeats']} set-ups; latencies: median of "
                     f"{extra['rounds']} rounds for each of {inputs} ops ({inputs} samples), "
                     f"{extra['spent_s']:.3f} s of op time in all")
        lines.append(f"  times above are rescaled to a quiet machine by the reference kernel "
                     f"({extra['probes']} probes); the same figures unscaled:")
        lines.append("unscaled " + json.dumps({k: v for k, (v, _) in extra["raw"].items()}))
        if "tokens_per_s" in extra:
            lines.append(f"{'tokens_per_s':36s} {fmt(extra['tokens_per_s']):>14s} {REPORTED['tokens_per_s']}")
    else:
        lines.append(f"  {inputs} ops untraced in {extra['untraced_s']:.3f} s, fully traced in {extra['traced_s']:.3f} s")
        if extra["builders_overhead"] is not None:
            lines.append(f"  construct.us_per_node and construct.*_s come from a pass with only the three builders "
                         f"wrapped (overhead {extra['builders_overhead']:.3f}); every other time is from the fully "
                         f"traced pass and carries trace.overhead_ratio")
        shares = ", ".join(f"{k} {v:.3f}" for k, v in extra["shares"].items())
        lines.append(f"  self-time shares of fully traced op time (inflated most for layers of many short calls): {shares}")
    summary = extra["summary"]
    for key, value in summary.items():
        if key != "digest":
            lines.append(f"{key:36s} {fmt(value):>14s} {REPORTED[key]}  (over the {inputs} ops)")
    lines.append(f"{'failed_ratio':36s} {fmt(failed / attempted):>14s} {REPORTED['failed_ratio']}  "
                 f"({failed} of {attempted} op runs)")
    if "z" in extra:
        lines.append(f"  Monte Carlo vs expected_accepted (informational): "
                     f"combined z {extra['z'][0]:.3f}, worst config |z| {extra['z'][1]:.3f}")
    if "digest" in summary:
        lines.append(f"  output digest {summary['digest']}")
    for failure in failures[:5]:
        lines.append(f"  FAILED {failure}")
    return lines


def run(name: str, seed: int, seconds: int, trace: int, tiny: bool = False, after_setup=None) -> Tuple[dict, List[str]]:
    """One benchmark run; returns the result object and the report lines."""
    if trace:
        metrics, extra, failures = traced(name, seed, tiny, after_setup)
    else:
        metrics, extra, failures = end_to_end(name, seed, seconds, tiny, after_setup)
    lines = report(name, seed, seconds, trace, metrics, extra, failures)
    if trace:
        lines += prediction_lines(name, metrics, extra)
    counts = {"op_runs": extra["attempted"], "ops": extra["inputs"], "rounds": extra["rounds"]}
    lines.append("provenance " + json.dumps(provenance(seed, counts), sort_keys=True))
    result = {
        "correct": extra["failed"] == 0,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def prediction_lines(name: str, metrics: dict, extra: dict) -> List[str]:
    t, shares = extra["trace"], extra["shares"]
    lines = []
    for workload, claim, figure, test in PREDICTIONS:
        if workload == name:
            value = figure(metrics, shares, t, extra["builder_trace"])
            lines.append(f"  prediction {'holds' if test(value) else 'DIFFERS'}: {claim} (measured {value:.3f})")
    for layer in [layer for layer, row in LAYER_MAP.items() if name in row["near_zero_on"]]:
        value = shares[layer]
        lines.append(f"  prediction {'holds' if value < 0.01 else 'DIFFERS'}: "
                     f"{layer} is about 0 (self-time share {value:.4f})")
    return lines


def run_all(args) -> int:
    """Each workload in its own process, one after another; then a summary."""
    ok = True
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    print("# summary")
    for name, result in rows:
        figures = ", ".join(f"{k} {fmt(v['value'])} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name}: {result['attempted']} ops, {result['failed']} failed; {figures}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "dyspec" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC_DIR}/dyspec", file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("perfbench: --seconds must be >= 0", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if hasattr(os, "sched_setaffinity"):
        # One core for the whole run: no migrations between cores mid-op.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, tracing.TraceError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
