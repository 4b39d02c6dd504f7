import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyspec.construct import CostParams, estimate_latency
from dyspec.engine import (
    GenConfig,
    RunMetrics,
    acceptance_vs_draft_bins,
    bin_rank_correlation,
    build_baseline_tree,
    generate,
    generate_step,
    make_prompt,
)
from dyspec.lm import ModelPairSpec, make_model_pair
from dyspec.verify import BranchTrace, VerificationError, VerifyResult


@pytest.fixture(scope="module")
def scipy_stats():
    """scipy is a test-only dependency: the reference for Spearman's rho."""
    return pytest.importorskip("scipy.stats")


def pair(seed=0, vocab=16, sigma=1.0, **kw):
    spec = ModelPairSpec(
        vocab_size=vocab, markov_order=1, target_seed=seed, noise_sigma=sigma, **kw
    )
    return make_model_pair(spec)


class TestGenConfig:
    def test_requires_exactly_one_of_budget_threshold(self):
        with pytest.raises(ValueError):
            GenConfig(budget=8, threshold=0.1, size_cap=16)
        with pytest.raises(ValueError):
            GenConfig()

    def test_threshold_requires_cap(self):
        with pytest.raises(ValueError):
            GenConfig(threshold=0.1)

    def test_baselines_require_budget(self):
        with pytest.raises(ValueError):
            GenConfig(threshold=0.1, size_cap=8, structure="chain")
        with pytest.raises(ValueError):
            GenConfig(budget=8, structure="k_chains")
        with pytest.raises(ValueError):
            GenConfig(budget=8, structure="static_tree")

    def test_baseline_shape_must_fit_budget(self):
        with pytest.raises(ValueError, match="exceeding budget"):
            GenConfig(budget=8, structure="static_tree", branching=(4, 2, 2, 2))
        with pytest.raises(ValueError, match="chain count"):
            GenConfig(budget=3, structure="k_chains", k=4)
        GenConfig(budget=14, structure="static_tree", branching=(2, 2, 2))

    @pytest.mark.parametrize("branching", [(-1,), (2, 0, 3)])
    def test_static_tree_branching_entries_at_least_one(self, branching):
        with pytest.raises(ValueError, match="branching entries must be >= 1"):
            GenConfig(budget=16, structure="static_tree", branching=branching)

    def test_latency_mode(self):
        assert GenConfig(budget=8).latency_mode == "greedy"
        assert GenConfig(threshold=0.1, size_cap=8).latency_mode == "layered"
        # every fixed shape comes from the layer walk; a chain has size ==
        # depth, so its modeled latency is the same in either mode
        assert GenConfig(budget=8, structure="chain").latency_mode == "layered"
        assert GenConfig(budget=8, structure="k_chains", k=2).latency_mode == "layered"
        costs = CostParams(per_node_overhead=0.5)
        assert estimate_latency(8, 8, 3.0, costs, "greedy") == estimate_latency(
            8, 8, 3.0, costs, "layered"
        )


class TestGenerate:
    def test_deterministic_models_accept_everything(self):
        # sigma 0 and temperature 0 on both sides: the tree is a chain of
        # depth 8 and every step accepts depth + 1 tokens
        target, draft = pair(seed=4, sigma=0.0, draft_temp=0.0, target_temp=0.0)
        prompt = make_prompt(target.with_temperature(1.0), 8, seed=0)
        config = GenConfig(
            prefix_len=8, gen_len=27, budget=8, draft_temp=0.0, target_temp=0.0, seed=1
        )
        tokens, metrics = generate(target, draft, prompt, config)
        assert len(tokens) == 27
        assert all(s.accepted == 9 for s in metrics.steps)
        assert all(s.tree_depth == 8 for s in metrics.steps)
        assert metrics.mean_accepted == 9.0

    def test_budget_one_accepts_one_or_two(self):
        target, draft = pair(seed=9)
        prompt = make_prompt(target.with_temperature(1.0), 4, seed=2)
        config = GenConfig(prefix_len=4, gen_len=16, budget=1, seed=3)
        tokens, metrics = generate(target, draft, prompt, config)
        assert all(s.accepted in (1, 2) for s in metrics.steps)

    def test_output_length_is_exact(self):
        target, draft = pair(seed=1)
        prompt = make_prompt(target.with_temperature(1.0), 8, seed=1)
        for gen_len in (1, 7, 32):
            config = GenConfig(prefix_len=8, gen_len=gen_len, budget=6, seed=2)
            tokens, _ = generate(target, draft, prompt, config)
            assert len(tokens) == gen_len

    def test_inconsistent_verify_result_raises(self, monkeypatch):
        # a result longer than the tree's depth plus the bonus is impossible
        import dyspec.engine as engine

        monkeypatch.setattr(
            engine, "verify_tree", lambda tree, dists, seed: VerifyResult([0] * 9, [], 0, False, [])
        )
        target, draft = pair(seed=2)
        prompt = make_prompt(target.with_temperature(1.0), 4, seed=0)
        with pytest.raises(VerificationError, match="depth"):
            generate(target, draft, prompt, GenConfig(prefix_len=4, gen_len=8, budget=2))

    def test_prompt_length_checked(self):
        target, draft = pair()
        with pytest.raises(ValueError):
            generate(target, draft, [0, 1], GenConfig(prefix_len=4, gen_len=4, budget=2))

    def test_deterministic_given_seeds(self):
        target, draft = pair(seed=6)
        prompt = make_prompt(target.with_temperature(1.0), 8, seed=4)
        config = GenConfig(prefix_len=8, gen_len=24, budget=8, seed=11)
        tokens_a, metrics_a = generate(target, draft, prompt, config)
        tokens_b, metrics_b = generate(target, draft, prompt, config)
        assert tokens_a == tokens_b
        assert metrics_a.steps == metrics_b.steps

    def test_aggregates_match_recomputation(self):
        target, draft = pair(seed=2)
        prompt = make_prompt(target.with_temperature(1.0), 8, seed=0)
        config = GenConfig(prefix_len=8, gen_len=20, budget=6, seed=5)
        _, metrics = generate(target, draft, prompt, config)
        rebuilt = RunMetrics.from_steps(metrics.steps, metrics.branch_events)
        assert rebuilt.mean_accepted == metrics.mean_accepted
        assert rebuilt.mean_tree_size == metrics.mean_tree_size
        assert rebuilt.tokens_per_modeled_second == metrics.tokens_per_modeled_second

    def test_step_metrics_bounds(self):
        target, draft = pair(seed=8)
        prompt = make_prompt(target.with_temperature(1.0), 8, seed=6)
        config = GenConfig(prefix_len=8, gen_len=32, budget=12, seed=7)
        _, metrics = generate(target, draft, prompt, config)
        for s in metrics.steps:
            assert 1 <= s.accepted <= s.tree_depth + 1
            assert s.tree_size <= 12

    def test_threshold_mode_runs(self):
        target, draft = pair(seed=3)
        prompt = make_prompt(target.with_temperature(1.0), 8, seed=3)
        config = GenConfig(
            prefix_len=8, gen_len=16, threshold=0.05, size_cap=32, seed=9
        )
        tokens, metrics = generate(target, draft, prompt, config)
        assert len(tokens) == 16
        assert all(s.tree_size <= 32 for s in metrics.steps)

    def test_metrics_json_payload(self):
        target, draft = pair(seed=3)
        prompt = make_prompt(target.with_temperature(1.0), 4, seed=3)
        config = GenConfig(prefix_len=4, gen_len=8, budget=4, seed=0)
        _, metrics = generate(target, draft, prompt, config)
        payload = metrics.to_dict()
        assert payload["accepted_includes_bonus"] is True
        assert payload["num_steps"] == len(metrics.steps)


class TestBaselineTrees:
    def test_chain_shape(self):
        _, draft = pair(seed=5)
        tree = build_baseline_tree("chain", draft, [0, 1], 4, seed=2)
        assert tree.size == 4
        assert tree.depth() == 4

    def test_static_tree_shape(self):
        _, draft = pair(seed=5)
        tree = build_baseline_tree(
            "static_tree", draft, [0, 1], 8, seed=2, branching=(2, 2)
        )
        assert tree.size == 6
        assert tree.depth() == 2
        assert sum(1 for n in tree.nodes if n.depth == 1) == 2
        assert sum(1 for n in tree.nodes if n.depth == 2) == 4

    def test_static_tree_budget_check(self):
        _, draft = pair(seed=5)
        with pytest.raises(ValueError):
            build_baseline_tree(
                "static_tree", draft, [0], 5, seed=0, branching=(2, 2)
            )

    def test_k_chains_shape(self):
        _, draft = pair(seed=5, vocab=32)
        tree = build_baseline_tree("k_chains", draft, [0], 6, seed=4, k=2)
        assert tree.size == 6
        assert tree.depth() == 3
        roots = [n for n in tree.nodes if n.parent == -1]
        assert len(roots) == 2
        assert {n.sibling_index for n in roots} == {0, 1}

    def test_k_chains_needs_room(self):
        _, draft = pair(seed=5)
        with pytest.raises(ValueError):
            build_baseline_tree("k_chains", draft, [0], 3, seed=0, k=4)


class TestAcceptanceBins:
    def test_bin_edges(self):
        events = [BranchTrace(0, True, 0.1, 1.0, 0.95)]
        rows = acceptance_vs_draft_bins(events, 10)
        assert len(rows) == 10
        assert rows[0][:2] == (0.0, 0.1)
        assert rows[-1][:2] == (0.9, 1.0)
        assert rows[-1][3] == 1  # 0.95 lands in the last bin

    def test_identical_models_accept_everywhere(self):
        target, draft = pair(seed=12, sigma=0.0)
        prompt = make_prompt(target.with_temperature(1.0), 8, seed=8)
        config = GenConfig(prefix_len=8, gen_len=24, budget=8, seed=13)
        _, metrics = generate(target, draft, prompt, config)
        rows = acceptance_vs_draft_bins(metrics.branch_events, 10)
        for _, _, rate, count in rows:
            if count:
                assert rate == 1.0

    def test_empty_events_rejected(self):
        with pytest.raises(ValueError):
            acceptance_vs_draft_bins([], 10)

    def test_rank_correlation_on_monotone_rows(self):
        rows = [(i / 10, (i + 1) / 10, i / 10, 100) for i in range(10)]
        assert bin_rank_correlation(rows) == pytest.approx(1.0)

    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1 / 3]),
                              st.integers(0, 3)), min_size=2, max_size=12))
    def test_rank_correlation_matches_scipy(self, scipy_stats, bins):
        rows = [(0.0, 1.0, rate, count) for rate, count in bins]
        rates = [rate for rate, count in bins if count]
        rho = bin_rank_correlation(rows)
        if len(rates) < 2 or len(set(rates)) == 1:
            assert np.isnan(rho)
        else:
            expected = scipy_stats.spearmanr(range(len(rates)), rates)[0]
            assert rho == expected  # bit for bit


class TestGenerateStep:
    def test_step_returns_tree_and_result(self):
        target, draft = pair(seed=7)
        prompt = make_prompt(target.with_temperature(1.0), 8, seed=5)
        config = GenConfig(prefix_len=8, gen_len=8, budget=6, seed=0)
        outcome = generate_step(
            target.with_temperature(0.6), draft.with_temperature(0.6), prompt, config, 3
        )
        assert outcome.tree.size == 6
        assert len(outcome.result.accepted) >= 1
