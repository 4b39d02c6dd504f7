"""Dynamic token-tree construction.

Every tree is grown by one step, :func:`sample_at`: draw the next token at a
position from its residual, keyed by (seed, position path, sibling index),
and append it as a node.  A position is opened from the draft model the
first time it is sampled, so positions that are never sampled cost no draft
query.  Two walks repeat the step:

* :func:`build_tree_fixed` expands greedily, one sampling at a time, always
  popping the pending sampling with the highest estimated reach probability.
  Each expansion pushes two new pending samplings: the next sibling at the
  same position (reached if this token is rejected) and the first child of
  the new node (reached if it is accepted).

* :func:`grow_layers` visits positions layer by layer and samples each while
  a rule ``keep(value, depth, count)`` allows, up to a size cap.  The rule is
  the tree's shape: :func:`build_tree_threshold` keeps every sampling whose
  estimated reach probability clears a threshold, and the fixed shapes of
  :mod:`dyspec.engine` (chain, k chains, static tree) count samplings per
  depth.  With the threshold set to the smallest value the greedy run kept,
  the heap and the threshold walk realize the identical sampling set because
  every uniform draw is keyed by (seed, position path, sibling index) rather
  than by visit order.

:func:`expected_accepted` evaluates the expected number of accepted tokens
for a tree under arbitrary per-node acceptance probabilities, and
:func:`estimate_latency` is the decoding cost model used for benchmark
reporting.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .categorical import sample
from .lm import LanguageModel
from .rng import keyed_uniforms
from .token_tree import ROOT, TokenTree

UniformFn = Callable[[Tuple[int, ...], int], float]
# keep(value, depth, count) is True when a position ``depth`` tokens into the
# tree takes its next sampling, ``count`` samplings already drawn there and
# the next one reached with estimated probability ``value``.
KeepRule = Callable[[float, int, int], bool]


@dataclass(frozen=True)
class CostParams:
    """Cost model constants: per-step model times and construction overhead."""

    draft_cost: float = 1.0
    target_cost: float = 2000.0
    per_node_overhead: float = 0.0

    def __post_init__(self):
        if self.draft_cost < 0 or self.target_cost < 0 or self.per_node_overhead < 0:
            raise ValueError("cost parameters must be non-negative")


def construction_uniform(seed: int) -> UniformFn:
    """``fn(tag, k) == keyed_uniform(seed, "construct", tag, k)``, the uniform of
    the k-th sampling at position path ``tag``, with one hash prefix per tag."""
    by_tag: Dict[Tuple[int, ...], Callable[[int], float]] = {}

    def fn(tag: Tuple[int, ...], index: int) -> float:
        uniforms = by_tag.get(tag)
        if uniforms is None:
            uniforms = by_tag[tag] = keyed_uniforms(seed, "construct", tag)
        return uniforms(index)

    return fn


def sample_at(
    tree: TokenTree,
    draft: LanguageModel,
    prefix: List[int],
    owner: int,
    value: float,
    uniform: UniformFn,
) -> Optional[Tuple[int, float]]:
    """Draw the next token at ``owner``'s position and append it as a node.

    The position is opened from the draft the first time it is sampled.
    Returns the new node id and the residual probability its token was drawn
    with, or None when the position's support is exhausted.  ``value`` is
    the estimated probability that this sampling is reached.  Exhaustion is
    checked once, here: a token drawn from the residual's positive mass is
    new at its position, so it skips :meth:`TokenTree.add_node`'s checks.
    """
    state = tree.positions.get(owner)
    if state is None:
        state = tree.open_position(owner, draft.dist(prefix + list(tree.position_path(owner))))
    residual = state.residual
    if residual.is_zero:
        return None
    token = sample(residual, uniform(state.path, len(state.sampled)))
    return tree.append_sampled(state, token, value), float(residual.probs[token])


def build_tree_fixed(
    draft: LanguageModel,
    prefix: Sequence[int],
    budget: int,
    seed: int,
    *,
    uniform_fn: Optional[UniformFn] = None,
) -> TokenTree:
    """Greedy best-first construction up to ``budget`` nodes.

    Every step pops the maximum-value pending sampling, draws a token from
    its residual, and pushes the sibling continuation (value scaled by the
    rejection probability) and the child position (value scaled by the
    sampled token's residual probability).  Exhausted positions yield no
    node, so the tree can only fall short of the budget when every position
    ran out of support.  Ties in value break by push order, sibling entry
    first, matching the listing order of the greedy algorithm.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    uniform = uniform_fn or construction_uniform(seed)
    prefix = list(prefix)
    tree = TokenTree()

    # (-value, push counter, position owner)
    heap: List[Tuple[float, int, int]] = [(-1.0, 0, ROOT)]
    counter = 1
    while len(tree) < budget and heap:
        neg_value, _, owner = heapq.heappop(heap)
        value = -neg_value
        got = sample_at(tree, draft, prefix, owner, value, uniform)
        if got is None:
            continue
        node_id, rate = got
        heapq.heappush(heap, (-(value * (1.0 - rate)), counter, owner))
        heapq.heappush(heap, (-(value * rate), counter + 1, node_id))
        counter += 2
    return tree


def grow_layers(
    draft: LanguageModel,
    prefix: Sequence[int],
    seed: int,
    size_cap: int,
    keep: KeepRule,
) -> TokenTree:
    """Layer-by-layer construction: sample each position while ``keep`` allows.

    Within a layer, positions are visited in descending value (ties by node
    id) so the cap discards the least valuable pending work first, and
    construction stops as soon as ``size_cap`` nodes exist.  Each sampling
    gives the new node's position the value ``value * rate`` and the next
    sibling ``value * (1 - rate)``.  A new position queues for the next
    layer only when ``keep`` would take its first sampling, so the draft is
    queried only for positions that get sampled.
    """
    uniform = construction_uniform(seed)
    prefix = list(prefix)
    tree = TokenTree()

    # (-value, position owner): sorting visits a layer in (-value, id) order.
    layer: List[Tuple[float, int]] = [(-1.0, ROOT)]
    depth = 0
    while layer:
        layer.sort()
        next_layer: List[Tuple[float, int]] = []
        for neg_value, owner in layer:
            value = -neg_value
            count = 0
            while keep(value, depth, count):
                if len(tree.nodes) >= size_cap:
                    return tree
                got = sample_at(tree, draft, prefix, owner, value, uniform)
                if got is None:
                    break
                node_id, rate = got
                child = value * rate
                if keep(child, depth + 1, 0):
                    next_layer.append((-child, node_id))
                value *= 1.0 - rate
                count += 1
        layer = next_layer
        depth += 1
    return tree


def build_tree_threshold(
    draft: LanguageModel,
    prefix: Sequence[int],
    threshold: float,
    size_cap: int,
    seed: int,
) -> TokenTree:
    """Layer-by-layer construction keeping samplings with value >= threshold.

    Stops as soon as ``size_cap`` nodes exist (see :func:`grow_layers`).
    """
    if not (0.0 < threshold <= 1.0):
        raise ValueError("threshold must be in (0, 1]")
    if size_cap < 1:
        raise ValueError("size_cap must be >= 1")
    return grow_layers(
        draft, prefix, seed, size_cap, lambda value, depth, count: value >= threshold
    )


def node_sampling_keys(tree: TokenTree) -> set:
    """Set of (position path, sibling index, token) triples, for comparisons."""
    keys = set()
    for node in tree.nodes:
        state = tree.positions[node.parent]
        keys.add((state.path, node.sibling_index, node.token))
    return keys


def expected_accepted(tree: TokenTree, sd: Mapping[int, float]) -> float:
    """Expected number of accepted tokens given per-node acceptance probs.

    ``sd[node]`` is the probability the node's token passes verification
    given its branch is tested.  A branch is tested only after all ancestors
    were accepted and every earlier sibling along the way was rejected, so
    the reach probability threads through the tree exactly like the
    verification walk does.
    """
    for node in tree.nodes:
        p = sd[node.node_id]
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"acceptance probability {p} outside [0, 1]")

    total = 0.0
    stack: List[Tuple[int, float]] = [(ROOT, 1.0)]
    while stack:
        owner, reach = stack.pop()
        state = tree.positions.get(owner)
        if state is None:
            continue
        for node_id in state.node_ids:
            p = sd[node_id]
            total += reach * p
            stack.append((node_id, reach * p))
            reach *= 1.0 - p
    return total


def draft_conditional_probs(tree: TokenTree) -> Dict[int, float]:
    """Residual draft probability each node was sampled at.

    This is the draft-model proxy for per-branch acceptance: the k-th
    sampling at a position is drawn from the draft distribution with the
    earlier k-1 tokens removed and renormalized.
    """
    probs: Dict[int, float] = {}
    for state in tree.positions.values():
        for token, node_id, residual in zip(state.sampled, state.node_ids, state.chain):
            probs[node_id] = residual[token]
    return probs


def path_weight_sum(tree: TokenTree) -> float:
    """Sum over nodes of the product of full draft probabilities on the path.

    Expected accepted tokens with acceptance estimated by draft probs,
    ``expected_accepted(tree, draft_conditional_probs(tree))``, in a closed
    form from the stored draft snapshots: the sibling rejection factors
    telescope against the residual renormalizations.
    """
    weights: Dict[int, float] = {}
    total = 0.0
    for node in tree.nodes:
        parent_w = 1.0 if node.parent == ROOT else weights[node.parent]
        w = parent_w * tree.positions[node.parent].draft_full[node.token]
        weights[node.node_id] = w
        total += w
    return total


def closed_form_values(tree: TokenTree) -> Dict[int, float]:
    """Reach probability of each node from draft snapshots alone.

    Product of the full draft probabilities of the proper ancestors times
    one minus the summed full draft probabilities of the earlier siblings.
    Construction maintains the same quantity incrementally through the
    heap recurrence; the two must agree.
    """
    values: Dict[int, float] = {}
    path_products: Dict[int, float] = {}
    for node in tree.nodes:
        state = tree.positions[node.parent]
        parent_prod = 1.0 if node.parent == ROOT else path_products[node.parent]
        prior_mass = sum(state.draft_full[t] for t in state.sampled[: node.sibling_index])
        values[node.node_id] = parent_prod * (1.0 - prior_mass)
        path_products[node.node_id] = parent_prod * state.draft_full[node.token]
    return values


def estimate_latency(
    tree_size: int,
    tree_depth: int,
    accepted_per_step: float,
    costs: CostParams,
    mode: str = "greedy",
) -> float:
    """Modeled latency per generated token.

    Greedy construction calls the draft model once per node; layered
    construction batches draft calls per level, so the draft term scales
    with depth instead of size.  Heap maintenance contributes
    ``per_node_overhead * N * log2(N)`` either way.
    """
    if tree_size < 1:
        raise ValueError("tree_size must be >= 1")
    if not (1 <= tree_depth <= tree_size):
        raise ValueError("tree_depth must be in [1, tree_size]")
    if accepted_per_step <= 0:
        raise ValueError("accepted_per_step must be > 0")
    if mode not in ("greedy", "layered"):
        raise ValueError(f"unknown mode {mode!r}")
    overhead = costs.per_node_overhead * tree_size * math.log2(tree_size) if tree_size > 1 else 0.0
    draft_units = tree_size if mode == "greedy" else tree_depth
    step_cost = overhead + costs.target_cost + draft_units * costs.draft_cost
    return step_cost / accepted_per_step
