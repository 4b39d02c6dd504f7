import numpy as np
import pytest

from dyspec import oracle
from dyspec.categorical import Categorical
from dyspec.construct import build_tree_fixed, expected_accepted, grow_tree
from dyspec.engine import GenConfig, make_prompt
from dyspec.lm import ModelPairSpec, make_model_pair, target_distributions_for_tree
from dyspec.oracle import (
    WeightedTree,
    brute_force_optimal_subtree,
    exact_verify_distribution,
    fixed_chain_emission,
    monte_carlo_expected_accepted,
    monte_carlo_output_distribution,
    realized_slot_tree,
    suite_expectation,
    suite_optimality,
    suite_threshold_equivalence,
    suite_unbiasedness_exact,
    suite_unbiasedness_mc,
)
from dyspec.token_tree import ROOT, TokenTree
from dyspec.verify import true_branch_acceptance


class TestExactVerifyDistribution:
    def test_single_branch_closed_form(self):
        draft = Categorical([0.6, 0.4])
        target = Categorical([0.3, 0.7])
        law = exact_verify_distribution(draft, target, 1)
        np.testing.assert_allclose(law.probs, target.probs, atol=1e-12)

    def test_fixed_chain_two_term_form(self):
        draft = Categorical([0.6, 0.4])
        target = Categorical([0.3, 0.7])
        emitted = fixed_chain_emission(draft, target, [0])
        alpha = 0.5  # min(1, 0.3/0.6)
        residual = np.array([0.0, 1.0])
        expected = np.array([alpha, 0.0]) + (1 - alpha) * residual
        np.testing.assert_allclose(emitted, expected, atol=1e-12)
        assert emitted.sum() == pytest.approx(1.0, abs=1e-12)

    def test_draft_equals_target_accepts_first_branch(self):
        dist = Categorical([0.2, 0.5, 0.3])
        law = exact_verify_distribution(dist, dist, 1)
        np.testing.assert_allclose(law.probs, dist.probs, atol=1e-12)

    def test_zero_branches_is_plain_target(self):
        draft = Categorical([0.5, 0.5])
        target = Categorical([0.1, 0.9])
        law = exact_verify_distribution(draft, target, 0)
        np.testing.assert_allclose(law.probs, target.probs, atol=1e-15)

    def test_random_small_instances_match_target(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = int(rng.integers(2, 5))
            k = int(rng.integers(1, v + 1))
            draft = Categorical(rng.dirichlet(np.ones(v)))
            target = Categorical(rng.dirichlet(np.ones(v)))
            law = exact_verify_distribution(draft, target, k)
            np.testing.assert_allclose(law.probs, target.probs, atol=1e-12)

    def test_three_tokens_two_branches_tight(self):
        rng = np.random.default_rng(9)
        draft = Categorical(rng.dirichlet(np.ones(3)))
        target = Categorical(rng.dirichlet(np.ones(3)))
        law = exact_verify_distribution(draft, target, 2)
        np.testing.assert_allclose(law.probs, target.probs, atol=1e-12)

    def test_too_many_branches_rejected(self):
        with pytest.raises(ValueError):
            exact_verify_distribution(Categorical([1.0, 0.0]), Categorical([0.5, 0.5]), 2)


class TestBruteForce:
    def test_root_only(self):
        tree = WeightedTree(children=[[1, 2], [], []], weights=[1.0, 0.6, 0.4])
        res = brute_force_optimal_subtree(tree, 1)
        assert res.best_weight == 1.0
        assert res.best_subtree == (0,)

    def test_binary_two_level_094_chain(self):
        # conditionals 0.9 / 0.1 at every node; best 3-node subtree rides 0.9s
        children = [[1, 2], [3, 4], [5, 6], [], [], [], []]
        weights = [1.0, 0.9, 0.1, 0.81, 0.09, 0.09, 0.01]
        res = brute_force_optimal_subtree(WeightedTree(children, weights), 3)
        assert res.best_weight == pytest.approx(1.0 + 0.9 + 0.81)
        assert res.best_subtree == (0, 1, 3)

    def test_cap_is_a_hard_error(self):
        _, draft = make_model_pair(ModelPairSpec(vocab_size=3, markov_order=1))
        tree = realized_slot_tree(draft, [0], seed=1, max_depth=8)
        with pytest.raises(RuntimeError):
            brute_force_optimal_subtree(tree, 8, cap=10)


class TestMonteCarloOutputDistribution:
    def test_point_mass_target_is_exact(self):
        spec = ModelPairSpec(
            vocab_size=8, markov_order=1, target_seed=2, noise_sigma=1.0, target_temp=0.0
        )
        target, draft = make_model_pair(spec)
        target = target.with_temperature(0.0)
        prompt = make_prompt(target, 4, seed=0)
        config = GenConfig(prefix_len=4, gen_len=1, budget=4, target_temp=0.0, seed=0)
        _, tv = monte_carlo_output_distribution(target, draft, prompt, config, 200, seed=1)
        assert tv == pytest.approx(0.0, abs=1e-12)

    def test_budget_one_classic_speculation(self):
        spec = ModelPairSpec(vocab_size=4, markov_order=1, target_seed=5, noise_sigma=1.0)
        target, draft = make_model_pair(spec)
        target = target.with_temperature(0.6)
        draft = draft.with_temperature(0.6)
        prompt = make_prompt(target, 4, seed=3)
        config = GenConfig(prefix_len=4, gen_len=1, budget=1, target_temp=0.6, seed=0)
        _, tv = monte_carlo_output_distribution(
            target, draft, prompt, config, 20000, seed=2
        )
        assert tv < 0.03


class TestMonteCarloExpectedAccepted:
    def test_certain_chain_has_zero_stderr(self):
        tree = TokenTree()
        tree.open_position(ROOT, Categorical([1.0, 0.0]))
        a = tree.add_node(ROOT, 0, 1.0)
        tree.open_position(a, Categorical([1.0, 0.0]))
        tree.add_node(a, 0, 1.0)
        dists = {
            ROOT: Categorical([1.0, 0.0]),
            a: Categorical([1.0, 0.0]),
            1: Categorical([0.5, 0.5]),
        }
        mean, stderr = monte_carlo_expected_accepted(tree, dists, 500, seed=0)
        assert (mean, stderr) == (2.0, 0.0)

    def test_single_node_bernoulli(self):
        tree = TokenTree()
        tree.open_position(ROOT, Categorical([0.5, 0.5]))
        tree.add_node(ROOT, 0, 1.0)
        dists = {ROOT: Categorical([0.25, 0.75]), 0: Categorical([0.5, 0.5])}
        # acceptance prob = min(1, 0.25/0.5) = 0.5
        mean, stderr = monte_carlo_expected_accepted(tree, dists, 20000, seed=3)
        assert abs(mean - 0.5) <= 3 * stderr

    def test_matches_expected_accepted_on_built_tree(self):
        spec = ModelPairSpec(vocab_size=8, markov_order=1, target_seed=11, noise_sigma=1.0)
        target, draft = make_model_pair(spec)
        target = target.with_temperature(0.6)
        draft = draft.with_temperature(0.6)
        prompt = make_prompt(target, 4, seed=1)
        tree = build_tree_fixed(draft, prompt, 6, seed=7)
        dists = target_distributions_for_tree(target, prompt, tree)
        expected = expected_accepted(tree, true_branch_acceptance(tree, dists))
        mean, stderr = monte_carlo_expected_accepted(tree, dists, 20000, seed=5)
        assert abs(mean - expected) <= 3 * max(stderr, 1e-12)


class TestSuites:
    def test_unbiasedness_exact_small(self):
        report = suite_unbiasedness_exact(instances=50, seed=1)
        assert report["pass"]
        assert report["worst_abs_diff"] < 1e-9

    def test_unbiasedness_mc_small(self):
        report = suite_unbiasedness_mc(trials=4000, seed=1, tv_limit=0.05)
        assert report["pass"]

    def test_optimality_small(self):
        report = suite_optimality(instances=50, seed=2)
        assert report["pass"] and report["mismatches"] == 0

    def test_optimality_suite_catches_a_non_greedy_builder(self, monkeypatch):
        def breadth_first(draft, prefix, budget, seed):
            return grow_tree(draft, prefix, seed, budget, lambda value, depth, count: True)

        monkeypatch.setattr(oracle, "build_tree_fixed", breadth_first)
        report = suite_optimality(instances=50, seed=2)
        assert report["mismatches"] > 0 and not report["pass"]

    def test_expectation_small(self):
        report = suite_expectation(configs=10, trials=3000, seed=3, min_pass_fraction=0.9)
        assert report["pass"]

    def test_threshold_equivalence_small(self):
        report = suite_threshold_equivalence(configs=20, seed=4, max_budget=16)
        assert report["pass"] and report["mismatches"] == 0
