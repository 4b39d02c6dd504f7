"""Dynamic token-tree construction.

Every tree is grown by one walk, :func:`grow_tree`, which takes samplings in
priority order: each draws the next token at a position from its residual,
keyed by (seed, position path, sibling index), and appends it as a node.  A
position is opened from the draft model the first time it is sampled, so
positions that are never sampled cost no draft query.  The order is the
tree's shape:

* Greedy (:func:`build_tree_fixed`): always the pending sampling with the
  highest estimated reach probability.  Each sampling makes two pending
  samplings: the next sibling at the same position (reached if this token
  is rejected) and the first child of the new node (reached if it is
  accepted).

* Layered: positions layer by layer, each sampled while a rule
  ``keep(value, depth, count)`` allows.  :func:`build_tree_threshold` keeps
  every sampling whose estimated reach probability clears a threshold, and
  the fixed shapes (chain, k chains, static tree) count samplings per depth.
  :func:`tree_shape` checks every shape and gives the walk its cap and rule.
  With the threshold set to the smallest value the greedy run kept, both
  orders realize the identical sampling set because every uniform draw is
  keyed by (seed, position path, sibling index) rather than by visit order.

:func:`expected_accepted` evaluates the expected number of accepted tokens
for a tree under arbitrary per-node acceptance probabilities, and
:func:`estimate_latency` is the decoding cost model used for benchmark
reporting.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .categorical import Categorical, _cumsum, _total
from .lm import LanguageModel
from .rng import check_integer, check_real, keyed_uniforms
from .token_tree import ROOT, TokenTree, TreeNode

UniformFn = Callable[[Tuple[int, ...], int], float]
# A layered walk's shape: keep(value, depth, count) is True when a position
# ``depth`` tokens into the tree takes its next sampling, ``count`` samplings
# already drawn there and the next one reached with estimated probability
# ``value``.
KeepRule = Callable[[float, int, int], bool]

STRUCTURES = ("dynamic", "chain", "k_chains", "static_tree")


@dataclass(frozen=True)
class CostParams:
    """Cost model constants: per-step model times and construction overhead."""

    draft_cost: float = 1.0
    target_cost: float = 2000.0
    per_node_overhead: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            check_real(cost := getattr(self, f.name), f.name)
            if not 0 <= cost < math.inf:
                raise ValueError("cost parameters must be non-negative and finite")
        # Every step has at least one draft unit, so every step costs > 0.
        if self.draft_cost == self.target_cost == 0:
            raise ValueError("draft_cost and target_cost must not both be 0")


def grow_tree(
    draft: LanguageModel,
    prefix: Sequence[int],
    seed: int,
    size_cap: int,
    keep: Optional[KeepRule] = None,
    uniform_fn: Optional[UniformFn] = None,
) -> TokenTree:
    """Take samplings in priority order until ``size_cap`` nodes exist.

    The k-th sampling at a position folds the residual the previous token
    left and draws from it with the uniform ``uniform_fn(path, k)`` (by
    default ``keyed_uniform(seed, "construct", path, k)``), bit for bit as
    ``categorical.remove_and_renorm`` and ``categorical.sample`` do, then
    appends the token as a node; an exhausted position yields nothing.  A
    position is opened from the draft on its first sampling; the fold after
    its last is left to :attr:`PositionState.residual`.

    Each sampling of value v and rate r queues the new node's position at
    value ``v * r`` and makes the next sibling ``v * (1 - r)``.  Without
    ``keep`` the walk is greedy: the highest value goes first, ties by queue
    order with the sibling queued before the child.  With a rule the walk
    goes layer by layer: positions in ``(depth, -value of the first
    sampling, owner id)`` order, each sampled while ``keep`` allows, and a
    new position is queued only when ``keep`` would take its first
    sampling, so the draft is queried only for positions that get sampled.
    A position's next sibling is then the queue's minimum, so it is taken
    without queueing it.
    """
    prefix = tuple(prefix)
    tree = TokenTree()
    nodes = tree.nodes
    if keep is not None and not keep(1.0, 0, 0):
        return tree
    # owner -> (sampled, node_ids, chain of its PositionState, its uniform of
    # the sibling index, the depth of its nodes)
    opened: Dict[int, tuple] = {}
    # Queue entries: greedy (-value, queue counter, owner), layered (depth,
    # -value of the first sampling, owner).  ``depth`` and ``count`` (samplings
    # drawn so far) belong to the position the layered walk is sampling.
    heap: List[Tuple[float, float, int]] = []
    owner, value, counter, depth, count = ROOT, 1.0, 0, 0, 0
    while len(nodes) < size_cap:
        entry = opened.get(owner)
        if entry is None:
            path = tree.position_path(owner)
            state = tree.open_position(owner, draft.dist(prefix + path), path)
            uniform = (keyed_uniforms(seed, "construct", path) if uniform_fn is None
                       else partial(uniform_fn, path))
            entry = opened[owner] = (state.sampled, state.node_ids, state.chain, uniform,
                                     1 if owner == ROOT else nodes[owner].depth + 1)
        sampled, node_ids, chain, uniform, node_depth = entry
        k = len(sampled)
        if len(chain) == k:
            # remove_and_renorm of the latest residual and token
            p = chain[-1].probs.copy()
            p[sampled[-1]] = 0.0
            total = float(_total(p))
            chain.append(Categorical.zero(p.size) if total <= 0.0
                         else Categorical._wrap(np.divide(p, total, out=p)))
        residual = chain[-1]
        if not residual.is_zero:
            probs = residual.probs
            token = int(_cumsum(probs).searchsorted(uniform(k), "right"))
            if token == probs.size or (rate := probs.item(token)) == 0.0:
                token = int(np.flatnonzero(probs > 0.0)[-1])  # sample's clamp
                rate = probs.item(token)
            node_id = len(nodes)
            nodes.append(TreeNode(node_id, owner, token, k, node_depth, value))
            sampled.append(token)
            node_ids.append(node_id)
            child = value * rate
            value *= 1.0 - rate
            if keep is None:
                heapq.heappush(heap, (-child, counter + 2, node_id))
                neg_value, _, owner = heapq.heappushpop(heap, (-value, counter + 1, owner))
                value = -neg_value
                counter += 2
                continue
            if keep(child, depth + 1, 0):
                heapq.heappush(heap, (depth + 1, -child, node_id))
            count += 1
            if keep(value, depth, count):
                continue
        if not heap:
            break
        first, second, owner = heapq.heappop(heap)
        if keep is None:
            value = -first
        else:
            depth, value, count = first, -second, 0
    return tree


def tree_shape(
    structure: str = "dynamic", budget: Optional[int] = None, threshold: Optional[float] = None,
    size_cap: Optional[int] = None, k: Optional[int] = None,
    branching: Optional[Sequence[int]] = None,
) -> Tuple[int, Optional[KeepRule]]:
    """Check a shape; return the ``(size_cap, keep)`` :func:`grow_tree` grows it with.

    ``dynamic`` is greedy at a ``budget``, or keeps samplings of value >=
    ``threshold`` up to ``size_cap`` nodes.  The fixed shapes are capped at
    their budget: ``chain`` samples once per level, ``k_chains`` k times at
    the prompt position and once below, ``budget // k`` levels deep, and
    ``static_tree`` ``branching[d]`` times at each position of depth d.
    A field the shape does not use, or a value it cannot take, raises ValueError.
    """
    counts = [("budget", budget), ("size_cap", size_cap), ("k", k)]
    counts += [(f"branching[{i}]", b) for i, b in enumerate(branching or ())]
    for name, value in counts:
        if value is not None:
            check_integer(value, name)
    if threshold is not None:
        check_real(threshold, "threshold")
    if (budget is None) == (threshold is None):
        raise ValueError("exactly one of budget/threshold must be set")
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    if threshold is not None:
        if not (0.0 < threshold <= 1.0):
            raise ValueError("threshold must be in (0, 1]")
        if size_cap is None or size_cap < 1:
            raise ValueError("threshold mode requires size_cap >= 1")
    elif size_cap is not None:
        raise ValueError("size_cap applies only in threshold mode")
    if structure not in STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}")
    if k is not None and structure != "k_chains":
        raise ValueError("k applies only to the k_chains structure")
    if branching is not None and structure != "static_tree":
        raise ValueError("branching applies only to the static_tree structure")
    if structure == "dynamic":
        if threshold is None:
            return budget, None
        return size_cap, lambda value, depth, count: value >= threshold
    if budget is None:
        raise ValueError("baseline structures require a budget")
    if structure == "chain":
        levels = (1,) * budget
    elif structure == "k_chains":
        if not k or k < 1:
            raise ValueError("k_chains requires k >= 1")
        if budget < k:
            raise ValueError("budget too small for the requested chain count")
        levels = (k,) + (1,) * (budget // k - 1)
    else:
        if not branching:
            raise ValueError("static_tree requires a branching vector")
        if min(branching) < 1:
            raise ValueError("static_tree branching entries must be >= 1")
        total = sum(math.prod(branching[:d]) for d in range(1, len(branching) + 1))
        if total > budget:
            raise ValueError(f"branching vector yields {total} nodes, exceeding budget {budget}")
        levels = tuple(branching)
    return budget, lambda value, depth, count: depth < len(levels) and count < levels[depth]


def build_tree_fixed(
    draft: LanguageModel,
    prefix: Sequence[int],
    budget: int,
    seed: int,
) -> TokenTree:
    """Greedy best-first construction up to ``budget`` nodes, fewer only when
    every position ran out of support (see :func:`grow_tree`)."""
    return grow_tree(draft, prefix, seed, *tree_shape(budget=budget))


def build_tree_threshold(
    draft: LanguageModel,
    prefix: Sequence[int],
    threshold: float,
    size_cap: int,
    seed: int,
) -> TokenTree:
    """Layer-by-layer construction keeping samplings with value >= threshold,
    stopping as soon as ``size_cap`` nodes exist (see :func:`grow_tree`)."""
    return grow_tree(draft, prefix, seed, *tree_shape(threshold=threshold, size_cap=size_cap))


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
    verification walk does; it checks each ``sd[node]`` is in [0, 1].
    """
    total = 0.0
    stack: List[Tuple[int, float]] = [(ROOT, 1.0)]
    while stack:
        owner, reach = stack.pop()
        state = tree.positions.get(owner)
        if state is None:
            continue
        for node_id in state.node_ids:
            p = sd[node_id]
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"acceptance probability {p} outside [0, 1]")
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
    overhead = costs.per_node_overhead * tree_size * math.log2(tree_size)
    draft_units = tree_size if mode == "greedy" else tree_depth
    step_cost = overhead + costs.target_cost + draft_units * costs.draft_cost
    return step_cost / accepted_per_step
