"""End-to-end generation loop and benchmark metrics.

One decoding step is: build a token tree from the current context, verify
it against the target's distributions (``target.dist`` at each position the
walk visits), and append the accepted tokens plus the bonus.  The latency
model charges one target evaluation per step regardless of tree size (the
premise of tree speculation) and draft evaluations per node or per level
depending on the construction mode.

Trees come from the one walk of :mod:`dyspec.construct`, greedy for DySpec
at a fixed budget and layered for the threshold tree and every fixed shape.
A fixed shape (single chain, k parallel chains, fixed-branching static tree)
is only a rule for how many times each position is sampled, defined in
:func:`dyspec.construct.tree_shape`; the samplings themselves are the
dynamic builders' keyed step, so equal budgets are genuinely comparable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .categorical import sample
from .construct import (
    CostParams,
    build_tree_fixed,
    build_tree_threshold,
    estimate_latency,
    grow_tree,
    tree_shape,
)
from .lm import LanguageModel, TargetRows
from .rng import check_seed, derive_seed, keyed_uniform
from .token_tree import TokenTree
from .verify import BranchTrace, VerificationError, VerifyResult, verify_tree


@dataclass(frozen=True)
class GenConfig:
    """One generation run: budget or threshold, temperatures, structure.

    :func:`dyspec.construct.tree_shape` checks the shape fields, rejecting
    ``size_cap`` outside threshold mode, ``k`` outside ``k_chains`` and
    ``branching`` outside ``static_tree``.  ``seed`` must fit in int64.
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
        if self.prefix_len < 0:
            raise ValueError("prefix_len must be >= 0")
        if self.gen_len < 1:
            raise ValueError("gen_len must be >= 1")
        if not (0 <= self.draft_temp < math.inf and 0 <= self.target_temp < math.inf):
            raise ValueError("temperatures must be >= 0 and finite")
        check_seed(self.seed, "seed")
        tree_shape(self.structure, self.budget, self.threshold, self.size_cap,
                   self.k, self.branching)

    @property
    def latency_mode(self) -> str:
        """Draft-call accounting of the builder: one per node for the greedy
        walk, one per level for the layered walk."""
        return "greedy" if self.structure == "dynamic" and self.budget is not None else "layered"


@dataclass
class StepMetrics:
    step: int
    tree_size: int
    tree_depth: int
    accepted: int
    modeled_latency: float


@dataclass
class RunMetrics:
    """Per-step records and their aggregates; ``to_dict`` omits ``latency_per_token``."""

    steps: List[StepMetrics]
    mean_accepted: float
    mean_tree_size: float
    tokens_per_modeled_second: float
    latency_per_token: float
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
            latency_per_token=total_cost / total_accepted,
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
    """Fixed-shape trees for comparison at equal budget: the layered walk with
    the shape's rule from :func:`dyspec.construct.tree_shape`, capped at
    ``budget`` nodes; a position whose support runs out stops early."""
    if structure == "dynamic":
        raise ValueError(f"unknown baseline structure {structure!r}")
    return grow_tree(draft, prefix, seed, *tree_shape(structure, budget, k=k, branching=branching))


def generate_step(
    target: LanguageModel,
    draft: LanguageModel,
    context: Sequence[int],
    config: GenConfig,
    seed: int,
) -> StepOutcome:
    """One construct-verify round: the unit the generation loop repeats.  The
    target's dist is read only where verification reads (prompt, accepted nodes)."""
    cseed = derive_seed(seed, "construct-step")
    verify_seed = derive_seed(seed, "verify-step")
    if config.structure != "dynamic":
        tree = build_baseline_tree(config.structure, draft, context, config.budget, cseed,
                                   k=config.k, branching=config.branching)
    elif config.threshold is None:
        tree = build_tree_fixed(draft, context, config.budget, cseed)
    else:
        tree = build_tree_threshold(draft, context, config.threshold, config.size_cap, cseed)
    result = verify_tree(tree, TargetRows(target, context, tree), verify_seed)
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
    match the configured prefix length.  The draft's and the target's dist
    caches carry across calls on one pair at the same temperatures.
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
                tree_size=len(outcome.tree),
                tree_depth=depth,
                accepted=accepted,
                modeled_latency=estimate_latency(
                    len(outcome.tree), depth, accepted, costs, config.latency_mode
                ),
            )
        )
        events.extend(outcome.result.trace)
        step_idx += 1

    generated = tokens[config.prefix_len : config.prefix_len + config.gen_len]
    return generated, RunMetrics.from_steps(steps, events)


def make_prompt(target: LanguageModel, length: int, seed: int) -> List[int]:
    """Sample a prompt autoregressively from the target model at temperature
    1, whatever temperature the ``target`` instance runs at."""
    target = target.with_temperature(1.0)
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
    probs = np.array([ev.draft_prob for ev in events])
    bins = np.minimum((probs * bin_count).astype(np.int64), bin_count - 1)
    totals = np.bincount(bins, minlength=bin_count)
    accepted = np.bincount(bins[np.array([ev.accepted for ev in events])], minlength=bin_count)
    rates = np.divide(accepted, totals, out=np.full(bin_count, np.nan), where=totals > 0)
    edges = np.linspace(0.0, 1.0, bin_count + 1).tolist()
    return list(zip(edges[:-1], edges[1:], rates.tolist(), totals.tolist()))


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
