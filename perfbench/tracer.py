"""Per-layer spans recorded from outside the program.

The tracer replaces public functions and methods of ``dyspec`` with thin
wrappers that time each call.  A call's self time is its duration minus the
durations of the wrapped calls made inside it, so nested layers are not
counted twice.  Spans are aggregated per wrapped name as they close (call
count, inclusive time, self time) instead of being kept one by one, which
keeps memory flat on workloads with millions of calls.

Every wrapped name must exist: a missing one raises :class:`TraceError`
at install time, so a rename in the program fails the traced run loudly
instead of reporting zeros.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class TraceError(RuntimeError):
    """A wrapped name is missing or a layer recorded no calls where it runs."""


# (module, qualified name, layer).  Classes are given as "Class.method".
# Builders of every tree shape count as construction, although the baseline
# builder lives in the engine module.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("engine", "generate", "engine"),
    ("engine", "generate_step", "engine"),
    ("engine", "make_prompt", "engine"),
    ("construct", "build_tree_fixed", "construct"),
    ("construct", "build_tree_threshold", "construct"),
    ("engine", "build_baseline_tree", "construct"),
    ("token_tree", "TokenTree.add_node", "token_tree"),
    ("token_tree", "TokenTree.open_position", "token_tree"),
    ("token_tree", "TokenTree.token_path", "token_tree"),
    ("token_tree", "TokenTree.ancestors", "token_tree"),
    ("token_tree", "TokenTree.children", "token_tree"),
    ("token_tree", "TokenTree.depth", "token_tree"),
    ("token_tree", "TokenTree.parent_array", "token_tree"),
    ("categorical", "sample", "categorical"),
    ("categorical", "remove_and_renorm", "categorical"),
    ("categorical", "residual_target", "categorical"),
    ("categorical", "softmax_with_temperature", "categorical"),
    ("lm", "LanguageModel.dist", "lm"),
    ("lm", "MarkovModel.next_logits", "lm"),
    ("lm", "NoisyDraftModel.next_logits", "lm"),
    ("lm", "make_model_pair", "lm"),
    ("lm", "target_distributions_for_tree", "lm"),
    ("rng", "keyed_uniform", "rng"),
    ("rng", "derive_seed", "rng"),
    ("rng", "UniformStream.next", "rng"),
    ("verify", "verify_tree", "verify"),
    ("mask_opt", "mask_from_tree", "mask_opt"),
    ("mask_opt", "apply_permutation", "mask_opt"),
    ("mask_opt", "ancestor_self_matrix", "mask_opt"),
    ("mask_opt", "count_nonzero_blocks", "mask_opt"),
    ("mask_opt", "dfs_order", "mask_opt"),
    ("mask_opt", "hpd_order", "mask_opt"),
    ("mask_opt", "subtree_sizes", "mask_opt"),
    ("mask_opt", "is_topological", "mask_opt"),
)

LAYERS = ("engine", "construct", "token_tree", "categorical", "lm", "rng", "verify", "mask_opt")

# Frame slots: time spent in wrapped children, the wrapped name, and a mark
# set by a child (a ``dist`` that queried logits missed its cache; a
# ``next_logits`` that derived a seed generated a table row).
_CHILD, _NAME, _MARK = 0, 1, 2


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Trace:
    """Aggregated spans of one traced pass."""

    stats: Dict[str, NameStats] = field(default_factory=dict)
    step_s: List[float] = field(default_factory=list)
    nodes: int = 0
    dist_misses: int = 0
    draft_dist_calls: int = 0
    target_dist_calls: int = 0
    rows_generated: int = 0
    row_gen_s: float = 0.0
    verify_branches: int = 0
    verify_accepted_branches: int = 0
    verify_bonus_from_residual: int = 0
    mask_bytes: int = 0
    op_total_s: float = 0.0
    op_self_s: float = 0.0

    def name(self, key: str) -> NameStats:
        return self.stats.setdefault(key, NameStats())

    def layer_calls(self, layer: str) -> int:
        return sum(s.calls for k, s in self.stats.items() if _LAYER_OF[k] == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for k, s in self.stats.items() if _LAYER_OF[k] == layer)


_LAYER_OF = {qual: layer for _, qual, layer in WRAPPED}


def _resolve(modules, module: str, qual: str):
    """(owner object, attribute, current value) for a wrapped name, or raise."""
    mod = modules.get(module)
    if mod is None:
        raise TraceError(f"module dyspec.{module} is missing")
    owner = mod
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"dyspec.{module}.{qual} is missing")
    value = owner.__dict__.get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    if not callable(value):
        raise TraceError(f"dyspec.{module}.{qual} is missing or not callable")
    return owner, parts[-1], value


class Patcher:
    """Replaces callables in every loaded ``dyspec`` module and restores them.

    A module-level function is rebound wherever a ``dyspec`` module imported
    it by name, so calls through ``from .x import f`` bindings are caught.
    """

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, old, new) -> None:
        if isinstance(owner, type):
            self._set(owner, attr, new)
            return
        for name, mod in list(sys.modules.items()):
            if name != "dyspec" and not name.startswith("dyspec."):
                continue
            for key, value in list(vars(mod).items()):
                if value is old:
                    self._set(mod, key, new)

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def capture_steps(patcher: Patcher, modules, sink: List) -> None:
    """Record ``(context length, StepOutcome)`` of every ``generate_step``.

    Used on traced and untraced passes alike, so output checks see the very
    trees and verify results the timed call produced.
    """
    owner, attr, orig = _resolve(modules, "engine", "generate_step")

    def generate_step(*args, **kwargs):
        outcome = orig(*args, **kwargs)
        sink.append((len(args[2]), outcome))
        return outcome

    patcher.replace(owner, attr, orig, generate_step)


class Tracer:
    """Installs timing wrappers on the names in :data:`WRAPPED`, or on the
    ``only`` ones of them."""

    def __init__(self, modules, only: Optional[Tuple[str, ...]] = None):
        self.modules = modules
        self.wrapped = [(m, q) for m, q, _ in WRAPPED if only is None or q in only]
        self.trace = Trace()
        self._stack: List[list] = []
        self._patcher = Patcher()

    def install(self) -> None:
        resolved = [(_resolve(self.modules, m, q), q) for m, q in self.wrapped]
        draft_cls = _resolve(self.modules, "lm", "NoisyDraftModel.next_logits")[0]
        for (owner, attr, fn), qual in resolved:
            self._patcher.replace(owner, attr, fn, self._wrap(fn, qual, draft_cls))

    def restore(self) -> None:
        self._patcher.restore()

    def op(self, fn: Callable, *args):
        """Run one benchmark op as the root span; returns its result."""
        frame = [0.0, "", False]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self.trace.op_total_s += dt
            self.trace.op_self_s += dt - frame[_CHILD]

    def _wrap(self, fn: Callable, qual: str, draft_cls) -> Callable:
        stack = self._stack
        trace = self.trace
        stats = trace.name(qual)
        after: Optional[Callable] = _AFTER.get(qual)

        def wrapper(*args, **kwargs):
            if not stack:
                # Outside an op (output checks): not part of the workload.
                return fn(*args, **kwargs)
            frame = [0.0, qual, False]
            parent = stack[-1]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s = dt - frame[_CHILD]
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += self_s
                parent[_CHILD] += dt
            if after is not None:
                after(trace, frame, parent, args, result, dt, self_s, draft_cls)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        return wrapper


def _after_step(trace, frame, parent, args, result, dt, self_s, draft_cls):
    trace.step_s.append(dt)


def _after_builder(trace, frame, parent, args, result, dt, self_s, draft_cls):
    trace.nodes += len(result.nodes)


def _after_dist(trace, frame, parent, args, result, dt, self_s, draft_cls):
    if isinstance(args[0], draft_cls):
        trace.draft_dist_calls += 1
    else:
        trace.target_dist_calls += 1
    if frame[_MARK]:
        trace.dist_misses += 1


def _after_logits(trace, frame, parent, args, result, dt, self_s, draft_cls):
    if parent[_NAME] == "LanguageModel.dist":
        parent[_MARK] = True
    if frame[_MARK]:
        trace.rows_generated += 1
        trace.row_gen_s += self_s


def _after_derive(trace, frame, parent, args, result, dt, self_s, draft_cls):
    if parent[_NAME].endswith(".next_logits"):
        parent[_MARK] = True


def _after_verify(trace, frame, parent, args, result, dt, self_s, draft_cls):
    trace.verify_branches += len(result.trace)
    trace.verify_accepted_branches += sum(1 for t in result.trace if t.accepted)
    trace.verify_bonus_from_residual += bool(result.bonus_from_residual)


def _after_mask(trace, frame, parent, args, result, dt, self_s, draft_cls):
    trace.mask_bytes += int(result.bits.nbytes)


_AFTER = {
    "generate_step": _after_step,
    "build_tree_fixed": _after_builder,
    "build_tree_threshold": _after_builder,
    "build_baseline_tree": _after_builder,
    "LanguageModel.dist": _after_dist,
    "MarkovModel.next_logits": _after_logits,
    "NoisyDraftModel.next_logits": _after_logits,
    "derive_seed": _after_derive,
    "verify_tree": _after_verify,
    "mask_from_tree": _after_mask,
    "apply_permutation": _after_mask,
}
