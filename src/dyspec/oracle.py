"""Brute-force ground-truth machines.

Everything here exists to check the fast paths against something slower and
unarguable: closed-form integration of the verification process, exhaustive
search over the realized slot tree for the production greedy walk
(:func:`dyspec.construct.build_tree_fixed`), and Monte Carlo estimators for
the distributional claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .categorical import Categorical, remove_and_renorm, residual_target, sample
from .construct import (
    build_tree_fixed,
    build_tree_threshold,
    construction_uniform,
    expected_accepted,
    node_sampling_keys,
)
from .engine import GenConfig, generate_step, make_prompt
from .lm import (
    LanguageModel,
    ModelPairSpec,
    make_model_pair,
    target_distributions_for_tree,
)
from .rng import derive_seed
from .token_tree import TokenTree
from .verify import true_branch_acceptance, verify_tree

ENUMERATION_CAP = 10_000_000


def exact_verify_distribution(
    draft: Categorical, target: Categorical, num_branches: int
) -> Categorical:
    """Law of the first emitted token, integrated in closed form.

    Marginalizes over both sources of randomness at one position: which
    tokens the ``num_branches`` successive samplings drew from the draft
    residual chain, and the uniform draws of the accept/reject tests.  The
    result must equal the target distribution entrywise; that equality is
    the losslessness guarantee in executable form.

    All chains are advanced level by level as rows of a matrix, so the
    factorial blow-up stays in vectorized numpy.
    """
    if draft.is_zero:
        raise ValueError("draft distribution must not be zero")
    if num_branches < 0:
        raise ValueError("num_branches must be >= 0")
    v = draft.size
    if num_branches > draft.support_size:
        raise ValueError("more branches than the draft support allows")

    out = np.zeros(v, dtype=np.float64)
    # Per chain: current draft residual, current target residual, and the
    # combined weight of (sampling this prefix) x (rejecting all of it).
    d_mat = draft.probs[None, :].copy()
    r_mat = target.probs[None, :].copy()
    weights = np.ones(1, dtype=np.float64)

    for _ in range(num_branches):
        alive = d_mat > 0.0
        accept = np.minimum(
            1.0, np.divide(r_mat, d_mat, out=np.zeros_like(d_mat), where=alive)
        )
        # Sampling y here and accepting it emits y with weight w * D[y] * a[y].
        out += (weights[:, None] * d_mat * accept).sum(axis=0)

        # A rejection folds the draft out of the target identically for every
        # y within a chain, so compute it once per row before branching on y.
        r_fold = np.maximum(r_mat - d_mat, 0.0)
        r_sum = r_fold.sum(axis=1, keepdims=True)
        r_fold = np.divide(r_fold, r_sum, out=np.zeros_like(r_fold), where=r_sum > 0.0)

        rows, cols = np.nonzero(alive)
        new_w = weights[rows] * d_mat[rows, cols] * (1.0 - accept[rows, cols])
        live = new_w > 0.0  # certain acceptance kills the rejection branch
        rows, cols, new_w = rows[live], cols[live], new_w[live]

        new_d = d_mat[rows].copy()
        new_d[np.arange(rows.size), cols] = 0.0
        nd_sum = new_d.sum(axis=1, keepdims=True)
        new_d = np.divide(new_d, nd_sum, out=np.zeros_like(new_d), where=nd_sum > 0.0)

        d_mat, r_mat, weights = new_d, r_fold[rows], new_w
        if weights.size == 0:
            break

    # Chains that rejected every branch emit the bonus from their R.
    if weights.size:
        out += (weights[:, None] * r_mat).sum(axis=0)
    return Categorical(out)


def fixed_chain_emission(
    draft: Categorical, target: Categorical, branch_tokens: Sequence[int]
) -> np.ndarray:
    """Law of the emitted token for one fixed sequence of branch tokens.

    Integrates only the uniform draws; sums to 1 but generally differs from
    the target until the branch tokens themselves are marginalized.
    """
    out = np.zeros(draft.size, dtype=np.float64)
    d, r = draft, target
    no_accept = 1.0
    for token in branch_tokens:
        alpha = min(1.0, r[token] / d[token]) if d[token] > 0 else 1.0
        out[token] += no_accept * alpha
        no_accept *= 1.0 - alpha
        if no_accept == 0.0:
            return out
        r = residual_target(r, d)
        d = remove_and_renorm(d, token)
        if r.is_zero:
            return out
        if d.is_zero:
            break
    out += no_accept * r.probs
    return out


@dataclass
class WeightedTree:
    """Tree with multiplicative path weights, the greedy-optimality arena.

    ``weights[u]`` is the product of edge conditionals from the root to
    ``u``; the root carries weight 1 by convention (the empty product).
    Children conditionals at a node sum to at most 1, so weights are
    non-increasing along every path.
    """

    children: List[List[int]]
    weights: List[float]


@dataclass
class SubtreeSearchResult:
    best_weight: float
    best_subtree: Tuple[int, ...]
    enumerated_count: int


def brute_force_optimal_subtree(
    weighted: WeightedTree, max_nodes: int, cap: int = ENUMERATION_CAP
) -> SubtreeSearchResult:
    """Exhaustive max-weight search over connected root-containing subtrees.

    Enumerates every connected subtree of size at most ``max_nodes`` exactly
    once by walking an ordered frontier and, for each element, branching on
    include-then-recurse versus discard-forever.  Exceeding ``cap``
    enumerations is a hard error: a truncated oracle is worse than none.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    w = weighted.weights
    best_weight = w[0]
    best_set: Tuple[int, ...] = (0,)
    count = 0

    def recurse(chosen: List[int], frontier: List[int], total: float):
        nonlocal best_weight, best_set, count
        count += 1
        if count > cap:
            raise RuntimeError(f"subtree enumeration exceeded cap of {cap}")
        if total > best_weight - 1e-12:
            # Near or above the incumbent: settle it with an exactly rounded
            # sum so float accumulation order cannot flip the comparison.
            exact = math.fsum(w[u] for u in chosen)
            if exact > best_weight:
                best_weight = exact
                best_set = tuple(chosen)
        if len(chosen) >= max_nodes or not frontier:
            return
        head, rest = frontier[0], frontier[1:]
        # Include the head: its children join the frontier.
        recurse(chosen + [head], rest + weighted.children[head], total + w[head])
        # Exclude the head permanently.
        recurse(chosen, rest, total)

    recurse([0], list(weighted.children[0]), w[0])
    return SubtreeSearchResult(best_weight, best_set, count)


def realized_slot_tree(
    draft: LanguageModel, prefix: Sequence[int], seed: int, max_depth: int
) -> WeightedTree:
    """Materialize the sampling-slot tree a keyed construction would walk.

    Every slot is one potential sampling: its left child is the next sibling
    sampling at the same position (reached on rejection) and its right child
    is the first sampling at the new node's position (reached on acceptance).
    Because draws are keyed by (seed, position path, sibling index), the
    realized tokens and slot values are identical to what the greedy and
    threshold builders would produce, so exhaustive search over connected
    slot subtrees is a valid optimality oracle for them.
    """
    prefix = list(prefix)
    uniform = construction_uniform(seed)
    children: List[List[int]] = [[]]
    weights: List[float] = [1.0]
    # slot id -> (path, sibling index, residual, lcrs depth)
    pending = [(0, (), 0, draft.dist(prefix), 1)]
    while pending:
        slot_id, path, k, residual, depth = pending.pop()
        if depth >= max_depth:
            continue
        token = sample(residual, uniform(path, k))
        rate = residual[token]
        value = weights[slot_id]

        sibling_residual = remove_and_renorm(residual, token)
        if not sibling_residual.is_zero:
            sib_id = len(weights)
            children.append([])
            weights.append(value * (1.0 - rate))
            children[slot_id].append(sib_id)
            pending.append((sib_id, path, k + 1, sibling_residual, depth + 1))

        child_path = path + (token,)
        child_id = len(weights)
        children.append([])
        weights.append(value * rate)
        children[slot_id].append(child_id)
        pending.append(
            (child_id, child_path, 0, draft.dist(prefix + list(child_path)), depth + 1)
        )

    return WeightedTree(children=children, weights=weights)


def monte_carlo_output_distribution(
    target: LanguageModel,
    draft: LanguageModel,
    prompt: Sequence[int],
    config,
    trials: int,
    seed: int = 0,
) -> Tuple[Categorical, float]:
    """Empirical first-token law over seeded single-step runs, plus its TV.

    Runs one construct-verify step per trial with independent derived seeds
    and tallies the first emitted token; the total-variation distance is
    measured against the target's next-token distribution at the prompt.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    prompt = list(prompt)
    counts = np.zeros(target.vocab_size, dtype=np.int64)
    for i in range(trials):
        trial_seed = derive_seed(seed, "mc-trial", i)
        step = generate_step(target, draft, prompt, config, trial_seed)
        counts[step.result.accepted[0]] += 1
    empirical = Categorical(counts / trials)
    ref = target.dist(prompt)
    tv = 0.5 * float(np.abs(empirical.probs - ref.probs).sum())
    return empirical, tv


def monte_carlo_expected_accepted(
    tree: TokenTree,
    target_dists,
    trials: int,
    seed: int = 0,
) -> Tuple[float, float]:
    """Mean and standard error of accepted branches (bonus excluded).

    Repeated verification of one fixed tree with fresh seeds; compare the
    mean against the closed-form expectation over the same tree.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    total = 0
    total_sq = 0
    for i in range(trials):
        res = verify_tree(tree, target_dists, derive_seed(seed, "mc-verify", i))
        n = len(res.accepted_node_ids)
        total += n
        total_sq += n * n
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    stderr = math.sqrt(var / trials)
    return mean, stderr


# --------------------------------------------------------------------------
# Named check suites: shared by the command-line harness and the acceptance
# tests, so both exercise the same code paths.  Every caller passes the
# counts and the seed; the command line's defaults are ``_ORACLE_COUNTS``
# and ``--seed`` in :mod:`dyspec.cli`.
# --------------------------------------------------------------------------


def suite_unbiasedness_exact(instances: int, seed: int, tol: float = 1e-9) -> dict:
    """Closed-form emission law equals the target on random instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for _ in range(instances):
        vocab = int(rng.integers(2, 9))
        branches = int(rng.integers(1, min(6, vocab) + 1))
        draft = Categorical(rng.dirichlet(np.ones(vocab)))
        target = Categorical(rng.dirichlet(np.ones(vocab)))
        law = exact_verify_distribution(draft, target, branches)
        diff = float(np.abs(law.probs - target.probs).max())
        worst = max(worst, diff)
        failures += diff > tol
    return {
        "suite": "unbiasedness-exact",
        "instances": instances,
        "tolerance": tol,
        "worst_abs_diff": worst,
        "failures": failures,
        "pass": failures == 0,
    }


def suite_unbiasedness_mc(
    trials: int,
    seed: int,
    vocab: int = 16,
    budget: int = 8,
    temps: Sequence[float] = (0.0, 0.6),
    tv_limit: float = 0.01,
) -> dict:
    """End-to-end first-token law matches direct target sampling, on a
    draft of noise sigma 1."""
    results = []
    for temp in temps:
        spec = ModelPairSpec(
            vocab_size=vocab,
            markov_order=1,
            target_seed=seed,
            noise_sigma=1.0,
            target_temp=temp,
        )
        target, draft = make_model_pair(spec)
        prompt = make_prompt(target, 8, seed=seed)
        config = GenConfig(
            prefix_len=8,
            gen_len=1,
            budget=budget,
            target_temp=temp,
            draft_temp=spec.draft_temp,
            seed=seed,
        )
        _, tv = monte_carlo_output_distribution(target, draft, prompt, config, trials, seed)
        results.append({"target_temp": temp, "tv_distance": tv, "pass": tv < tv_limit})
    return {
        "suite": "unbiasedness-mc",
        "trials": trials,
        "vocab": vocab,
        "budget": budget,
        "tv_limit": tv_limit,
        "temps": list(results),
        "pass": all(r["pass"] for r in results),
    }


def suite_optimality(instances: int, seed: int) -> dict:
    """The production greedy walk reaches the brute-force optimum exactly.

    Under acceptance ~ draft probability the expected number of accepted
    tokens is the sum of node values, so :func:`build_tree_fixed` at budget
    B must reach the largest value sum over connected subtrees of B slots of
    the realized slot tree.  Both walk the same keyed draws and form the
    same products, so the sums are compared for exact equality.
    """
    rng = np.random.default_rng(seed)
    mismatches = 0
    enumerated = 0
    for i in range(instances):
        vocab = int(rng.integers(2, 6))
        spec = ModelPairSpec(
            vocab_size=vocab,
            markov_order=1,
            target_seed=derive_seed(seed, "opt-model", i),
            noise_sigma=float(rng.uniform(0.2, 1.5)),
        )
        _, draft = make_model_pair(spec)
        prefix = [int(rng.integers(vocab))]
        budget = int(rng.integers(1, 9))
        build_seed = derive_seed(seed, "opt-build", i)
        tree = build_tree_fixed(draft, prefix, budget, build_seed)
        slots = realized_slot_tree(draft, prefix, build_seed, max_depth=budget)
        brute = brute_force_optimal_subtree(slots, len(tree))
        enumerated += brute.enumerated_count
        if brute.best_weight != math.fsum(n.value for n in tree.nodes):
            mismatches += 1
    return {
        "suite": "optimality",
        "instances": instances,
        "mismatches": mismatches,
        "subtrees_enumerated": enumerated,
        "pass": mismatches == 0,
    }


def suite_expectation(
    configs: int, trials: int, seed: int, min_pass_fraction: float = 0.99
) -> dict:
    """Closed-form expected accepted tokens agrees with Monte Carlo."""
    ok = 0
    worst_z = 0.0
    for i in range(configs):
        spec = ModelPairSpec(
            vocab_size=8,
            markov_order=1,
            target_seed=derive_seed(seed, "expect-model", i),
            noise_sigma=1.0,
            concentration=0.5,
            entropy_spread=1.0,
        )
        target, draft = make_model_pair(spec)
        prompt = make_prompt(target, 4, seed=i)
        tree = build_tree_fixed(draft, prompt, 6, derive_seed(seed, "expect-tree", i))
        dists = target_distributions_for_tree(target, prompt, tree)
        expected = expected_accepted(tree, true_branch_acceptance(tree, dists))
        mean, stderr = monte_carlo_expected_accepted(
            tree, dists, trials, derive_seed(seed, "expect-mc", i)
        )
        diff = abs(mean - expected)
        if stderr > 0:
            worst_z = max(worst_z, diff / stderr)
        ok += diff <= max(3.0 * stderr, 1e-12)
    return {
        "suite": "expectation",
        "configs": configs,
        "trials": trials,
        "within_3_stderr": ok,
        "worst_z": worst_z,
        "pass": ok >= math.ceil(min_pass_fraction * configs),
    }


def suite_threshold_equivalence(configs: int, seed: int, max_budget: int = 32) -> dict:
    """Threshold construction at the m-th popped value reproduces greedy."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    for i in range(configs):
        spec = ModelPairSpec(
            vocab_size=int(rng.integers(4, 33)),
            markov_order=1,
            target_seed=derive_seed(seed, "thr-model", i),
            noise_sigma=float(rng.uniform(0.2, 1.5)),
        )
        target, draft = make_model_pair(spec)
        prompt = make_prompt(target, 4, seed=i)
        budget = int(rng.integers(2, max_budget + 1))
        cseed = derive_seed(seed, "thr-build", i)
        fixed = build_tree_fixed(draft, prompt, budget, cseed)
        cutoff = min(node.value for node in fixed.nodes)
        threshold = build_tree_threshold(draft, prompt, cutoff, len(fixed), cseed)
        if node_sampling_keys(fixed) != node_sampling_keys(threshold):
            mismatches += 1
    return {
        "suite": "threshold-equivalence",
        "configs": configs,
        "max_budget": max_budget,
        "mismatches": mismatches,
        "pass": mismatches == 0,
    }
