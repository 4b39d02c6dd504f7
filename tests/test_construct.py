import math

import numpy as np
import pytest

from dyspec.categorical import Categorical
from dyspec.construct import (
    CostParams,
    build_tree_fixed,
    build_tree_threshold,
    closed_form_values,
    draft_conditional_probs,
    estimate_latency,
    expected_accepted,
    grow_tree,
    node_sampling_keys,
    path_weight_sum,
)
from dyspec.engine import ConfigError, GenConfig, generate, make_prompt
from dyspec.lm import LanguageModel, ModelPairSpec, make_model_pair
from dyspec.oracle import brute_force_optimal_subtree, realized_slot_tree
from dyspec.rng import derive_seed
from dyspec.token_tree import ROOT, TokenTree


class TableDraft(LanguageModel):
    """Draft stub with explicit per-context rows; unknown contexts uniform."""

    def __init__(self, vocab_size, rows=None):
        self.vocab_size = vocab_size
        self.temperature = 1.0
        self.rows = rows or {}

    def dist(self, context):
        row = self.rows.get(tuple(context))
        if row is None:
            row = [1.0 / self.vocab_size] * self.vocab_size
        return Categorical(row)

    def next_logits(self, context):
        return np.log(np.maximum(self.dist(context).probs, 1e-300))

    def with_temperature(self, temp):
        return self


def point_mass_draft(vocab=4):
    rows = {}
    probs = [0.0] * vocab
    probs[0] = 1.0
    draft = TableDraft(vocab)
    draft.dist = lambda context: Categorical(list(probs))
    return draft


def model_draft(seed, vocab=8, sigma=1.0):
    spec = ModelPairSpec(
        vocab_size=vocab, markov_order=1, target_seed=seed, noise_sigma=sigma
    )
    _, draft = make_model_pair(spec)
    return draft


class TestSampleAt:
    """The sampling step of :func:`grow_tree`'s walk at one position."""

    def test_positions_open_on_first_sampling(self):
        # only sampled positions are opened, each with one draft query on
        # the prefix plus the position's path
        queried = []
        draft = model_draft(3)
        base_dist = draft.dist
        object.__setattr__(draft, "dist", lambda ctx: queried.append(tuple(ctx)) or base_dist(ctx))
        for build in (
            lambda: build_tree_fixed(draft, [0], 12, seed=1),
            lambda: build_tree_threshold(draft, [0], 0.05, 12, seed=1),
        ):
            queried.clear()
            tree = build()
            sampled = {n.parent for n in tree.nodes}
            assert set(tree.positions) == sampled
            assert sorted(queried) == sorted(
                (0,) + tree.positions[owner].path for owner in sampled
            )

    def test_exhausted_position_returns_none(self):
        # All draft mass on token 0: the prompt position is exhausted after
        # its first sampling, and so is every position below it, so each
        # position yields exactly one node however wide the walk may go.
        draft = point_mass_draft(2)
        greedy = build_tree_fixed(draft, [], 4, seed=0)
        layered = grow_tree(draft, [], 0, 4, lambda value, depth, count: count < 2)
        # The layered walk asked the prompt position for a second sampling
        # and found its residual zero.
        assert len(layered.positions[ROOT].chain) == 2
        assert layered.positions[ROOT].chain[1].is_zero
        for tree in (greedy, layered):
            assert [(n.parent, n.token, n.sibling_index) for n in tree.nodes] == [
                (-1, 0, 0), (0, 0, 0), (1, 0, 0), (2, 0, 0)
            ]
            assert draft_conditional_probs(tree) == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}
            assert all(len(state.sampled) == 1 for state in tree.positions.values())

    @pytest.mark.parametrize("draft_temp", [0.0, 0.6])
    def test_folds_only_positions_sampled_again(self, draft_temp):
        # A position folds once before each sampling after its first; the
        # fold after its last sampling waits for a read that never comes,
        # so each chain holds one entry per sampling.
        # (The greedy walk never revisits an exhausted position: its sibling
        # entry has value 0 while its child's is positive.)
        draft = model_draft(4, vocab=16).with_temperature(draft_temp)
        tree = build_tree_fixed(draft, [0, 1], 40, seed=2)
        assert len(tree) == 40
        chains = [len(state.chain) for state in tree.positions.values()]
        assert chains == [len(state.sampled) for state in tree.positions.values()]
        assert sum(chains) == len(tree.nodes)
        tree.check_residuals()


class TestBuildTreeFixed:
    def test_budget_one_single_node(self):
        draft = TableDraft(4, {(): [0.4, 0.3, 0.2, 0.1]})
        tree = build_tree_fixed(draft, [], 1, seed=0)
        assert len(tree) == 1
        node = tree.nodes[0]
        assert node.value == 1.0
        assert draft_conditional_probs(tree) == {0: draft.dist([]).probs[node.token]}

    def test_forced_expansion_recurrence(self):
        # Root draft [0.5, 0.3, 0.2]; force token 0 first.  The sibling entry
        # (pushed before the child) wins the 0.5 tie, so the second node is
        # another sampling at the root position drawn from [0, 0.6, 0.4].
        draft = TableDraft(3, {(): [0.5, 0.3, 0.2]})
        forced = {((), 0): 0.3, ((), 1): 0.5}
        tree = grow_tree(draft, [], 0, 2, uniform_fn=lambda tag, k: forced[(tag, k)])
        first, second = tree.nodes
        assert (first.token, first.value) == (0, 1.0)
        assert second.parent == ROOT
        assert second.sibling_index == 1
        assert second.value == pytest.approx(0.5)
        assert second.token == 1  # cdf of [0, 0.6, 0.4] at 0.5
        assert draft_conditional_probs(tree) == pytest.approx({0: 0.5, 1: 0.6})

    def test_point_mass_draft_builds_chain(self):
        tree = build_tree_fixed(point_mass_draft(), [], 5, seed=3)
        assert len(tree) == 5
        assert tree.depth() == 5
        assert all(n.value == 1.0 for n in tree.nodes)

    def test_budget_zero_rejected(self):
        with pytest.raises(ValueError):
            build_tree_fixed(TableDraft(2), [], 0, seed=0)

    def test_budget_exactness(self):
        for seed in range(10):
            tree = build_tree_fixed(model_draft(seed), [0], 24, seed=seed)
            assert len(tree) == 24

    def test_budget_short_only_on_exhaustion(self):
        # vocab 2 point-mass rows exhaust sibling positions immediately but
        # the chain still fills the budget
        tree = build_tree_fixed(point_mass_draft(2), [], 10, seed=1)
        assert len(tree) == 10

    def test_popped_values_non_increasing(self):
        for seed in range(10):
            tree = build_tree_fixed(model_draft(seed), [0], 32, seed=seed)
            values = [n.value for n in tree.nodes]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


class TestBuildTreeThreshold:
    def test_threshold_one_keeps_single_sampling(self):
        draft = TableDraft(3, {(): [0.5, 0.3, 0.2]})
        tree = build_tree_threshold(draft, [], 1.0, 16, seed=2)
        assert len(tree) == 1

    def test_point_mass_chain_respects_cap(self):
        tree = build_tree_threshold(point_mass_draft(), [], 0.5, 4, seed=0)
        assert len(tree) == 4
        assert tree.depth() == 4

    def test_invalid_params(self):
        draft = TableDraft(2)
        with pytest.raises(ValueError):
            build_tree_threshold(draft, [], 0.0, 4, seed=0)
        with pytest.raises(ValueError):
            build_tree_threshold(draft, [], 1.5, 4, seed=0)
        with pytest.raises(ValueError):
            build_tree_threshold(draft, [], 0.5, 0, seed=0)

    def test_matches_fixed_at_cutoff_value(self):
        for seed in range(20):
            draft = model_draft(seed, vocab=12)
            budget = 4 + seed % 12
            fixed = build_tree_fixed(draft, [1, 2], budget, seed=seed)
            cutoff = min(n.value for n in fixed.nodes)
            thresh = build_tree_threshold(draft, [1, 2], cutoff, len(fixed), seed=seed)
            assert node_sampling_keys(fixed) == node_sampling_keys(thresh)
            fixed_vals = sorted(n.value for n in fixed.nodes)
            thresh_vals = sorted(n.value for n in thresh.nodes)
            np.testing.assert_allclose(fixed_vals, thresh_vals, atol=1e-12)

    def test_binding_cap_keeps_a_prefix_of_the_uncapped_tree(self):
        # The cap only stops the walk: the first c nodes are the same nodes,
        # in the same order and with the same values, at any larger cap.  A
        # draft with a near-certain token cycle has an unbounded threshold
        # tree, where the large cap binds too.
        def records(tree):
            return [(n.parent, n.token, n.sibling_index, n.depth, n.value) for n in tree.nodes]

        bounded = 0
        for seed in range(10):
            draft = model_draft(seed, vocab=12)
            full = records(build_tree_threshold(draft, [1, 2], 0.03, 1000, seed=seed))
            bounded += len(full) < 1000
            for cap in {1, 2, len(full) // 3, len(full) // 2, len(full) - 1} - {0}:
                capped = build_tree_threshold(draft, [1, 2], 0.03, cap, seed=seed)
                assert records(capped) == full[:cap]
        assert bounded >= 5


class TestExpectedAccepted:
    def build_example(self):
        tree = TokenTree()
        tree.open_position(ROOT, Categorical([0.4, 0.4, 0.2]))
        a = tree.add_node(ROOT, 0, 1.0)
        b = tree.add_node(ROOT, 1, 0.6)
        tree.open_position(a, Categorical([0.5, 0.5, 0.0]))
        c = tree.add_node(a, 1, 0.4)
        return tree, a, b, c

    def test_chain_of_certain_acceptance(self):
        tree = TokenTree()
        tree.open_position(ROOT, Categorical([1.0, 0.0]))
        a = tree.add_node(ROOT, 0, 1.0)
        tree.open_position(a, Categorical([1.0, 0.0]))
        b = tree.add_node(a, 0, 1.0)
        assert expected_accepted(tree, {a: 1.0, b: 1.0}) == pytest.approx(2.0)

    def test_single_node(self):
        tree = TokenTree()
        tree.open_position(ROOT, Categorical([0.5, 0.5]))
        a = tree.add_node(ROOT, 0, 1.0)
        assert expected_accepted(tree, {a: 0.7}) == pytest.approx(0.7)

    def test_siblings_and_child(self):
        tree, a, b, c = self.build_example()
        got = expected_accepted(tree, {a: 0.5, b: 0.4, c: 0.8})
        assert got == pytest.approx(0.5 + (1 - 0.5) * 0.4 + 0.5 * 0.8)

    def test_out_of_range_rejected(self):
        tree, a, b, c = self.build_example()
        with pytest.raises(ValueError):
            expected_accepted(tree, {a: 1.2, b: 0.4, c: 0.8})

    def test_adding_a_node_strictly_increases(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            tree = build_tree_fixed(model_draft(seed), [0], 10, seed=seed)
            sd = {n.node_id: float(rng.uniform(0.05, 0.95)) for n in tree.nodes}
            before = expected_accepted(tree, sd)
            # extend some position that still has residual mass
            owner = next(
                o for o, p in tree.positions.items() if not p.residual.is_zero
            )
            state = tree.positions[owner]
            token = int(np.argmax(state.residual.probs))
            new = tree.add_node(owner, token, 0.1)
            sd[new] = 0.5
            assert expected_accepted(tree, sd) > before


class TestDraftApprox:
    def test_point_mass_chain(self):
        tree = build_tree_fixed(point_mass_draft(), [], 3, seed=0)
        assert expected_accepted(tree, draft_conditional_probs(tree)) == pytest.approx(3.0)

    def test_single_root_node_half(self):
        draft = TableDraft(2, {(): [0.5, 0.5]})
        tree = build_tree_fixed(draft, [], 1, seed=0)
        assert expected_accepted(tree, draft_conditional_probs(tree)) == pytest.approx(0.5)

    def test_identity_with_path_products(self):
        for seed in range(30):
            tree = build_tree_fixed(model_draft(seed), [0, 1], 16, seed=seed)
            approx = expected_accepted(tree, draft_conditional_probs(tree))
            assert approx == pytest.approx(path_weight_sum(tree), abs=1e-9)

    def test_conditional_probs_match_positions(self):
        tree = build_tree_fixed(model_draft(5), [0], 12, seed=5)
        probs = draft_conditional_probs(tree)
        closed = closed_form_values(tree)
        for node in tree.nodes:
            state = tree.positions[node.parent]
            prior_mass = sum(state.draft_full[t] for t in state.sampled[: node.sibling_index])
            assert node.value == pytest.approx(closed[node.node_id], abs=1e-9)
            assert probs[node.node_id] == pytest.approx(
                state.draft_full[node.token] / (1.0 - prior_mass), abs=1e-9
            )


class TestEstimateLatency:
    def test_minimal_tree(self):
        costs = CostParams(draft_cost=1.0, target_cost=100.0, per_node_overhead=0.0)
        assert estimate_latency(1, 1, 1.0, costs, "greedy") == pytest.approx(101.0)

    def test_one_node_pays_no_heap_overhead(self):
        # log2(1) is 0.0, so a size-1 tree adds exactly nothing for the heap.
        costs = CostParams(per_node_overhead=0.5)
        for mode in ("greedy", "layered"):
            assert estimate_latency(1, 1, 1.0, costs, mode) == costs.target_cost + costs.draft_cost

    def test_layered_saves_draft_calls(self):
        costs = CostParams(draft_cost=1.0, target_cost=100.0, per_node_overhead=0.0)
        greedy = estimate_latency(64, 8, 1.0, costs, "greedy")
        layered = estimate_latency(64, 8, 1.0, costs, "layered")
        assert greedy - layered == pytest.approx(64 - 8)

    def test_doubling_acceptance_halves_latency(self):
        costs = CostParams(per_node_overhead=0.5)
        for mode in ("greedy", "layered"):
            one = estimate_latency(32, 6, 1.5, costs, mode)
            two = estimate_latency(32, 6, 3.0, costs, mode)
            assert one == pytest.approx(2.0 * two)

    @pytest.mark.parametrize("draft_cost, target_cost", [(0.0, 1e-300), (1e-300, 0.0)])
    def test_one_zero_cost_is_positive(self, draft_cost, target_cost):
        costs = CostParams(draft_cost=draft_cost, target_cost=target_cost)
        assert estimate_latency(1, 1, 1.0, costs) > 0

    # Finite costs whose summed step costs underflow (the first two) or
    # overflow: tokens per modeled second would read inf or 0.
    @pytest.mark.parametrize("draft_cost, target_cost", [(5e-324, 0.0), (0.0, 2.3e-308),
                                                         (1e308, 1e308)])
    def test_costs_out_of_float_range_rejected(self, draft_cost, target_cost):
        target, draft = make_model_pair(ModelPairSpec(vocab_size=64, markov_order=2,
                                                      target_seed=7, noise_sigma=0.5))
        prompt = make_prompt(target, 16, 5)
        costs = CostParams(draft_cost=draft_cost, target_cost=target_cost)
        with pytest.raises(ConfigError, match="costs out of float range"):
            generate(target, draft, prompt, GenConfig(prefix_len=16, gen_len=32, budget=64), costs)

    @pytest.mark.parametrize("overhead", [0.0, 0.5])
    def test_zero_draft_and_target_cost_rejected(self, overhead):
        with pytest.raises(ValueError, match="draft_cost and target_cost must not both be 0"):
            CostParams(draft_cost=0.0, target_cost=0, per_node_overhead=overhead)

    def test_invalid_inputs(self):
        costs = CostParams()
        with pytest.raises(ValueError):
            estimate_latency(0, 1, 1.0, costs)
        with pytest.raises(ValueError):
            estimate_latency(4, 5, 1.0, costs)
        with pytest.raises(ValueError):
            estimate_latency(4, 2, 0.0, costs)
        with pytest.raises(ValueError):
            estimate_latency(4, 2, 1.0, costs, "quantum")


class TestGreedyOptimalityOnSlotTrees:
    def test_fixed_build_total_matches_brute_force(self):
        for i in range(40):
            vocab = 2 + i % 3
            budget = 3 + i % 6
            draft = model_draft(100 + i, vocab=vocab)
            prefix = [i % vocab]
            seed = derive_seed(7, "slot-opt", i)
            tree = build_tree_fixed(draft, prefix, budget, seed)
            slots = realized_slot_tree(draft, prefix, seed, max_depth=budget)
            brute = brute_force_optimal_subtree(slots, len(tree))
            total = math.fsum(n.value for n in tree.nodes)
            assert brute.best_weight == pytest.approx(total, abs=1e-12)
