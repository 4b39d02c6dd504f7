"""End-to-end generation loop and benchmark metrics.

One decoding step is: build a token tree from the current context, fetch
the target's distribution for every tree position in one batched softmax,
verify, and append the accepted tokens plus the bonus.  The latency model
charges one target evaluation per step regardless of tree size (the premise
of tree speculation) and draft evaluations per node or per level depending
on the construction mode.

Trees come from the two walks of :mod:`dyspec.construct`: the greedy heap
(DySpec at a fixed budget) and the layer walk, which grows the threshold
tree and every fixed shape.  A fixed shape (single chain, k parallel
chains, fixed-branching static tree) is only a rule for how many times each
position is sampled, defined in :func:`check_baseline_shape`; the samplings
themselves are the dynamic builders' keyed step, so equal budgets are
genuinely comparable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .categorical import sample
from .construct import (
    CostParams,
    KeepRule,
    build_tree_fixed,
    build_tree_threshold,
    estimate_latency,
    grow_layers,
)
from .lm import LanguageModel, target_distributions_for_tree
from .rng import derive_seed, keyed_uniform
from .token_tree import TokenTree
from .verify import BranchTrace, VerificationError, VerifyResult, verify_tree

STRUCTURES = ("dynamic", "chain", "k_chains", "static_tree")


@dataclass(frozen=True)
class GenConfig:
    """One generation run: budget or threshold, temperatures, structure.

    Shape fields are rejected where the shape ignores them: ``size_cap``
    outside threshold mode, ``k`` outside ``k_chains`` and ``branching``
    outside ``static_tree``.
    """

    prefix_len: int = 128
    gen_len: int = 128
    budget: Optional[int] = None
    threshold: Optional[float] = None
    size_cap: Optional[int] = None
    draft_temp: float = 0.6
    target_temp: float = 0.6
    seed: int = 0
    structure: str = "dynamic"
    k: Optional[int] = None
    branching: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.gen_len < 1:
            raise ValueError("gen_len must be >= 1")
        if self.draft_temp < 0 or self.target_temp < 0:
            raise ValueError("temperatures must be >= 0")
        if (self.budget is None) == (self.threshold is None):
            raise ValueError("exactly one of budget/threshold must be set")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.threshold is not None:
            if not (0.0 < self.threshold <= 1.0):
                raise ValueError("threshold must be in (0, 1]")
            if self.size_cap is None or self.size_cap < 1:
                raise ValueError("threshold mode requires size_cap >= 1")
        elif self.size_cap is not None:
            raise ValueError("size_cap applies only in threshold mode")
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.k is not None and self.structure != "k_chains":
            raise ValueError("k applies only to the k_chains structure")
        if self.branching is not None and self.structure != "static_tree":
            raise ValueError("branching applies only to the static_tree structure")
        if self.structure != "dynamic":
            if self.budget is None:
                raise ValueError("baseline structures require a budget")
            check_baseline_shape(self.structure, self.budget, self.k, self.branching)

    @property
    def latency_mode(self) -> str:
        """Draft-call accounting of the builder: one per node for the greedy
        heap, one per level for the layer walk."""
        return "greedy" if self.structure == "dynamic" and self.budget is not None else "layered"


def check_baseline_shape(
    structure: str, budget: int, k: Optional[int], branching: Optional[Sequence[int]]
) -> KeepRule:
    """Validate a fixed shape against the budget; return its sampling rule.

    ``chain`` samples once per level, ``budget`` levels deep; ``k_chains``
    samples k times at the prompt position and once below it, ``budget // k``
    levels deep; ``static_tree`` samples ``branching[d]`` times at each
    position of depth d.  Raises ValueError for an unknown structure or a
    shape that does not fit the budget.
    """
    if structure == "chain":
        return lambda value, depth, count: count < 1 and depth < budget
    if structure == "k_chains":
        if not k or k < 1:
            raise ValueError("k_chains requires k >= 1")
        if budget < k:
            raise ValueError("budget too small for the requested chain count")
        length = budget // k
        return lambda value, depth, count: count < (k if depth == 0 else 1) and depth < length
    if structure == "static_tree":
        if not branching:
            raise ValueError("static_tree requires a branching vector")
        if min(branching) < 1:
            raise ValueError("static_tree branching entries must be >= 1")
        total, level_size = 0, 1
        for b in branching:
            level_size *= b
            total += level_size
        if total > budget:
            raise ValueError(f"branching vector yields {total} nodes, exceeding budget {budget}")
        levels = tuple(branching)
        return lambda value, depth, count: depth < len(levels) and count < levels[depth]
    raise ValueError(f"unknown baseline structure {structure!r}")


@dataclass
class StepMetrics:
    step: int
    tree_size: int
    tree_depth: int
    accepted: int
    modeled_latency: float


@dataclass
class RunMetrics:
    steps: List[StepMetrics]
    mean_accepted: float
    mean_tree_size: float
    tokens_per_modeled_second: float
    branch_events: List[BranchTrace] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "accepted_includes_bonus": True,
            "num_steps": len(self.steps),
            "mean_accepted": self.mean_accepted,
            "mean_tree_size": self.mean_tree_size,
            "tokens_per_modeled_second": self.tokens_per_modeled_second,
            "steps": [asdict(s) for s in self.steps],
        }

    @classmethod
    def from_steps(cls, steps: List[StepMetrics], events: List[BranchTrace]) -> "RunMetrics":
        total_accepted = sum(s.accepted for s in steps)
        total_cost = sum(s.modeled_latency * s.accepted for s in steps)
        return cls(
            steps=steps,
            mean_accepted=total_accepted / len(steps),
            mean_tree_size=sum(s.tree_size for s in steps) / len(steps),
            tokens_per_modeled_second=total_accepted / total_cost if total_cost > 0 else 0.0,
            branch_events=events,
        )


@dataclass
class StepOutcome:
    tree: TokenTree
    result: VerifyResult


def build_baseline_tree(
    structure: str,
    draft: LanguageModel,
    prefix: Sequence[int],
    budget: int,
    seed: int,
    *,
    k: Optional[int] = None,
    branching: Optional[Sequence[int]] = None,
) -> TokenTree:
    """Fixed-shape trees for comparison at equal budget.

    The layer walk samples each position as often as the shape's rule from
    :func:`check_baseline_shape` allows, capped at ``budget`` nodes; a
    position whose support runs out stops early.
    """
    keep = check_baseline_shape(structure, budget, k, branching)
    return grow_layers(draft, prefix, seed, budget, keep)


def build_tree_for_config(
    draft: LanguageModel, context: Sequence[int], config: GenConfig, seed: int
) -> TokenTree:
    if config.structure == "dynamic":
        if config.budget is not None:
            return build_tree_fixed(draft, context, config.budget, seed)
        return build_tree_threshold(
            draft, context, config.threshold, config.size_cap, seed
        )
    return build_baseline_tree(
        config.structure,
        draft,
        context,
        config.budget,
        seed,
        k=config.k,
        branching=config.branching,
    )


def generate_step(
    target: LanguageModel,
    draft: LanguageModel,
    context: Sequence[int],
    config: GenConfig,
    seed: int,
) -> StepOutcome:
    """One construct-verify round: the unit the generation loop repeats."""
    construct_seed = derive_seed(seed, "construct-step")
    verify_seed = derive_seed(seed, "verify-step")
    tree = build_tree_for_config(draft, context, config, construct_seed)
    dists = target_distributions_for_tree(target, context, tree)
    result = verify_tree(tree, dists, verify_seed)
    return StepOutcome(tree=tree, result=result)


def generate(
    target: LanguageModel,
    draft: LanguageModel,
    prompt: Sequence[int],
    config: GenConfig,
    costs: Optional[CostParams] = None,
) -> Tuple[List[int], RunMetrics]:
    """Generate ``config.gen_len`` tokens; returns them plus run metrics.

    Fully deterministic given the models and config seed.  The prompt must
    match the configured prefix length.
    """
    if len(prompt) != config.prefix_len:
        raise ValueError(
            f"prompt length {len(prompt)} does not match prefix_len {config.prefix_len}"
        )
    costs = costs or CostParams()
    target = target.with_temperature(config.target_temp)
    draft = draft.with_temperature(config.draft_temp)

    tokens = list(prompt)
    produced = 0
    steps: List[StepMetrics] = []
    events: List[BranchTrace] = []
    step_idx = 0
    while produced < config.gen_len:
        step_seed = derive_seed(config.seed, "step", step_idx)
        outcome = generate_step(target, draft, tokens, config, step_seed)
        accepted = outcome.result.num_accepted
        depth = outcome.tree.depth()
        if not 1 <= accepted <= depth + 1:
            raise VerificationError(
                f"step {step_idx} accepted {accepted} tokens from a tree of depth {depth}"
            )
        tokens.extend(outcome.result.accepted)
        produced += accepted
        steps.append(
            StepMetrics(
                step=step_idx,
                tree_size=outcome.tree.size,
                tree_depth=depth,
                accepted=accepted,
                modeled_latency=estimate_latency(
                    max(outcome.tree.size, 1),
                    max(depth, 1),
                    accepted,
                    costs,
                    config.latency_mode,
                ),
            )
        )
        events.extend(outcome.result.trace)
        step_idx += 1

    generated = tokens[config.prefix_len : config.prefix_len + config.gen_len]
    return generated, RunMetrics.from_steps(steps, events)


def make_prompt(target: LanguageModel, length: int, seed: int) -> List[int]:
    """Sample a prompt autoregressively from the target model."""
    tokens: List[int] = []
    for i in range(length):
        u = keyed_uniform(seed, "prompt", (), i)
        tokens.append(sample(target.dist(tokens), u))
    return tokens


def acceptance_vs_draft_bins(
    events: Sequence[BranchTrace], bin_count: int
) -> List[Tuple[float, float, float, int]]:
    """Bucket branch decisions by draft probability at sampling time.

    Returns ``(bin_lo, bin_hi, acceptance_rate, count)`` rows over
    equal-width bins of [0, 1]; empty bins report a rate of NaN.
    """
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    if not events:
        raise ValueError("no branch events to bin")
    edges = np.linspace(0.0, 1.0, bin_count + 1)
    accepted = np.zeros(bin_count, dtype=np.int64)
    totals = np.zeros(bin_count, dtype=np.int64)
    for ev in events:
        idx = min(int(ev.draft_prob * bin_count), bin_count - 1)
        totals[idx] += 1
        if ev.accepted:
            accepted[idx] += 1
    rows = []
    for i in range(bin_count):
        rate = accepted[i] / totals[i] if totals[i] else float("nan")
        rows.append((float(edges[i]), float(edges[i + 1]), rate, int(totals[i])))
    return rows


def bin_rank_correlation(rows: Sequence[Tuple[float, float, float, int]]) -> float:
    """Spearman correlation between bin index and acceptance rate: the
    Pearson correlation of their ranks, NaN for a constant input."""
    rates = np.array([r[2] for r in rows if r[3] > 0])
    if rates.size < 2 or np.all(rates == rates[0]):
        return float("nan")
    # Tied rates share the mean of the 1-based ranks they span.
    ordered = np.sort(rates)
    first, end = np.searchsorted(ordered, rates, "left"), np.searchsorted(ordered, rates, "right")
    rate_ranks = (first + end + 1) / 2
    return float(np.corrcoef(np.arange(1.0, rates.size + 1), rate_ranks)[1, 0])
