import functools
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyspec.categorical import softmax_with_temperature
from dyspec.construct import (
    STRUCTURES,
    CostParams,
    build_tree_fixed,
    build_tree_threshold,
    estimate_latency,
    tree_shape,
)
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
from dyspec.token_tree import ROOT
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


@functools.lru_cache(maxsize=None)
def warm_pair():
    """One pair that stays warm across hypothesis examples."""
    return pair(seed=3, vocab=8)


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

    def test_prefix_len_at_least_zero(self):
        with pytest.raises(ValueError, match="prefix_len must be >= 0"):
            GenConfig(prefix_len=-1, budget=8)
        GenConfig(prefix_len=0, budget=8)

    @pytest.mark.parametrize("name, bad", [
        ("prefix_len", 4.0), ("prefix_len", True), ("gen_len", 4.0), ("gen_len", True),
        ("seed", 2.0), ("seed", True),
    ], ids=["prefix_len-float", "prefix_len-bool", "gen_len-float", "gen_len-bool",
            "seed-float", "seed-bool"])
    def test_integer_fields_reject_floats_and_bools(self, name, bad):
        # gen_len 4.0 failed only after every step had run, seed 2.0 in
        # derive_seed's packing, and True was read as 1.
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not {bad!r}$"):
            GenConfig(budget=8, **{name: bad})
        GenConfig(budget=8, **{name: np.int64(1)})

    @pytest.mark.parametrize("branching", [(-1,), (2, 0, 3)])
    def test_static_tree_branching_entries_at_least_one(self, branching):
        with pytest.raises(ValueError, match="branching entries must be >= 1"):
            GenConfig(budget=16, structure="static_tree", branching=branching)

    @pytest.mark.parametrize("name, bad, good", [
        ("budget", dict(budget=2.5), dict(budget=2)),
        ("budget", dict(budget=True), dict(budget=np.int64(1))),
        ("size_cap", dict(threshold=0.5, size_cap=4.0), dict(threshold=0.5, size_cap=4)),
        ("k", dict(budget=8, structure="k_chains", k=2.5),
         dict(budget=8, structure="k_chains", k=2)),
        ("branching[0]", dict(budget=4, structure="static_tree", branching=(2.5,)),
         dict(budget=4, structure="static_tree", branching=(2,))),
        ("branching[0]", dict(budget=4, structure="static_tree", branching=(True, 2)),
         dict(budget=4, structure="static_tree", branching=(1, 2))),
    ], ids=["budget-float", "budget-bool", "size_cap", "k", "branching-float", "branching-bool"])
    def test_shape_counts_must_be_integers(self, name, bad, good):
        # A fractional count grows another shape (branching 2.5 allows 3
        # samplings), and a bool is no count.
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer"):
            GenConfig(**bad)
        GenConfig(**good)

    @pytest.mark.parametrize("threshold", [True, "0.5"], ids=["bool", "str"])
    def test_threshold_must_be_a_real_number(self, threshold):
        # True would grow a tree at threshold 1.0; a string raised TypeError.
        with pytest.raises(ValueError, match="^threshold must be a real number"):
            GenConfig(threshold=threshold, size_cap=4, budget=None)
        with pytest.raises(ValueError, match="^threshold must be a real number"):
            tree_shape(threshold=threshold, size_cap=4)
        GenConfig(threshold=np.float32(0.5), size_cap=4)

    def test_latency_mode(self):
        assert GenConfig(budget=8).latency_mode == "greedy"
        assert GenConfig(threshold=0.1, size_cap=8).latency_mode == "layered"
        # every fixed shape comes from the layered walk; a chain has size ==
        # depth, so its modeled latency is the same in either mode
        assert GenConfig(budget=8, structure="chain").latency_mode == "layered"
        assert GenConfig(budget=8, structure="k_chains", k=2).latency_mode == "layered"
        costs = CostParams(per_node_overhead=0.5)
        assert estimate_latency(8, 8, 3.0, costs, "greedy") == estimate_latency(
            8, 8, 3.0, costs, "layered"
        )


# Every real-valued setting, by the call that checks it.
REAL_FIELDS = [
    ("GenConfig", functools.partial(GenConfig, budget=8), ("draft_temp", "target_temp")),
    ("ModelPairSpec", ModelPairSpec,
     ("noise_sigma", "concentration", "entropy_spread", "draft_temp", "target_temp")),
    ("CostParams", CostParams, ("draft_cost", "target_cost", "per_node_overhead")),
    ("tree_shape", functools.partial(tree_shape, size_cap=4), ("threshold",)),
]
NOT_REALS = {"str": "0.5", "None": None, "bool": True, "list": [0.5]}


@pytest.mark.parametrize("make, fields, message", [
    pytest.param(make, {name: bad}, f"{name} must be a real number, not {bad!r}",
                 id=f"{owner}-{name}-{kind}")
    for owner, make, names in REAL_FIELDS for name in names
    for kind, bad in NOT_REALS.items()
    if (name, bad) != ("threshold", None)  # None leaves the threshold unset
] + [
    # ModelPairSpec took any temperature and failed only at its first dist.
    pytest.param(ModelPairSpec, {"draft_temp": -1.0}, "temperatures must be >= 0 and finite",
                 id="ModelPairSpec-draft_temp-negative"),
    pytest.param(ModelPairSpec, {"target_temp": math.nan}, "temperatures must be >= 0 and finite",
                 id="ModelPairSpec-target_temp-nan"),
])
def test_real_fields_are_checked_at_construction(make, fields, message):
    # A string or None raised a bare TypeError from a comparison, and True was read as 1.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(**fields)


@pytest.mark.parametrize("make, name", [
    pytest.param(make, name, id=f"{owner}-{name}")
    for owner, make, names in REAL_FIELDS for name in names
])
@pytest.mark.parametrize("huge", [10**400, -10**400, Fraction(10**400, 3), 10**5000],
                         ids=["1e400", "-1e400", "fraction", "1e5000"])
def test_real_fields_past_the_float_range_are_rejected(make, name, huge):
    # float() of these raises OverflowError; CostParams(target_cost=10**400)
    # and GenConfig(draft_temp=10**400) passed their checks and raised it later.
    with pytest.raises(ValueError, match=f"^{name} must be within the float range$"):
        make(**{name: huge})


SHAPE_FIELDS = ("budget", "threshold", "size_cap", "k", "branching")
# Every structure with every set or unset combination of the shape fields,
# then the misfits: values that a field takes but the shape cannot.
SHAPES = [
    (structure, dict(zip(SHAPE_FIELDS, values)))
    for structure in STRUCTURES
    for values in itertools.product([None, 12], [None, 0.05], [None, 10], [None, 3], [None, (2, 2)])
] + [
    ("dynamic", {"budget": 0}),
    ("dynamic", {"threshold": 0.0, "size_cap": 10}),
    ("dynamic", {"threshold": 1.5, "size_cap": 10}),
    ("dynamic", {"threshold": 0.05, "size_cap": 0}),
    ("chain", {"budget": 0}),
    ("k_chains", {"budget": 12, "k": 13}),
    ("k_chains", {"budget": 12, "k": 0}),
    ("k_chains", {"budget": 13, "k": 3}),
    ("static_tree", {"budget": 12, "branching": (4, 4)}),
    ("static_tree", {"budget": 12, "branching": (2, 0)}),
    ("static_tree", {"budget": 12, "branching": ()}),
    ("static_tree", {"budget": 14, "branching": (2, 2, 2)}),
]


def shape_builder(structure, budget=None, threshold=None, size_cap=None, k=None, branching=None):
    """The builder call that expresses a shape, or None where no builder can."""
    if structure != "dynamic":
        if threshold is None and size_cap is None:
            return lambda draft: build_baseline_tree(
                structure, draft, [0, 1], budget, 5, k=k, branching=branching
            )
    elif k is None and branching is None:
        if threshold is None and size_cap is None:
            return lambda draft: build_tree_fixed(draft, [0, 1], budget, 5)
        if budget is None:
            return lambda draft: build_tree_threshold(draft, [0, 1], threshold, size_cap, 5)
    return None


def fixed_shape_count(structure, depth, budget, k=None, branching=None, **_):
    """Samplings a fixed shape takes at a position ``depth`` tokens deep."""
    if structure == "chain":
        return int(depth < budget)
    if structure == "k_chains":
        return (k if depth == 0 else 1) if depth < budget // k else 0
    return branching[depth] if depth < len(branching) else 0


class TestShapeTable:
    """GenConfig and the builders accept and reject the same shapes, with
    the same messages, and an accepted shape grows by its rule."""

    @pytest.mark.parametrize(
        "structure, fields",
        [(structure, fields) for structure, fields in SHAPES
         if shape_builder(structure, **fields)],
        ids=lambda v: v if isinstance(v, str) else ",".join(
            f"{f}={v[f]}" for f in v if v[f] is not None
        ) or "unset",
    )
    def test_config_and_builder_agree(self, structure, fields):
        # A temperature-1 draft whose rows have full support, so no position
        # runs out within a shape's few samplings.
        _, draft = pair(seed=4, vocab=16, concentration=1.0, draft_temp=1.0)
        build = shape_builder(structure, **fields)
        try:
            GenConfig(structure=structure, **fields)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                build(draft)
            assert str(raised.value) == str(exc)
            return
        tree = build(draft)
        if structure != "dynamic":
            for owner in [ROOT] + [n.node_id for n in tree.nodes]:
                depth = 0 if owner == ROOT else tree.nodes[owner].depth
                state = tree.positions.get(owner)
                taken = len(state.sampled) if state is not None else 0
                assert taken == fixed_shape_count(structure, depth, **fields)
        elif fields.get("threshold") is None:
            assert len(tree) == fields["budget"]
        else:
            assert 0 < len(tree) <= fields["size_cap"]
            assert all(n.value >= fields["threshold"] for n in tree.nodes)


class TestMakePrompt:
    @pytest.mark.parametrize("temp", [0.0, 0.6, 1.5])
    def test_samples_at_temperature_one(self, temp):
        # The prompt depends on the model's logits and the seed, not on the
        # temperature the instance runs at.
        target, draft = pair(seed=4, vocab=8)
        for model in (target, draft):
            hot = make_prompt(model.with_temperature(temp), 12, 5)
            assert hot == make_prompt(model.with_temperature(1.0), 12, 5)


class TestGenerate:
    def test_deterministic_models_accept_everything(self):
        # sigma 0 and temperature 0 on both sides: the tree is a chain of
        # depth 8 and every step accepts depth + 1 tokens
        target, draft = pair(seed=4, sigma=0.0, draft_temp=0.0, target_temp=0.0)
        prompt = make_prompt(target, 8, seed=0)
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
        prompt = make_prompt(target, 4, seed=2)
        config = GenConfig(prefix_len=4, gen_len=16, budget=1, seed=3)
        tokens, metrics = generate(target, draft, prompt, config)
        assert all(s.accepted in (1, 2) for s in metrics.steps)

    def test_output_length_is_exact(self):
        target, draft = pair(seed=1)
        prompt = make_prompt(target, 8, seed=1)
        for gen_len in (1, 7, 32):
            config = GenConfig(prefix_len=8, gen_len=gen_len, budget=6, seed=2)
            tokens, _ = generate(target, draft, prompt, config)
            assert len(tokens) == gen_len

    def test_inconsistent_verify_result_raises(self, monkeypatch):
        # a result longer than the tree's depth plus the bonus is impossible
        import dyspec.engine as engine

        result = VerifyResult([0] * 9, [], 0, False, [], 0.0)
        monkeypatch.setattr(engine, "verify_tree", lambda tree, dists, seed: result)
        target, draft = pair(seed=2)
        prompt = make_prompt(target, 4, seed=0)
        with pytest.raises(VerificationError, match="depth"):
            generate(target, draft, prompt, GenConfig(prefix_len=4, gen_len=8, budget=2))

    def test_prompt_length_checked(self):
        target, draft = pair()
        with pytest.raises(ValueError):
            generate(target, draft, [0, 1], GenConfig(prefix_len=4, gen_len=4, budget=2))

    def test_deterministic_given_seeds(self):
        target, draft = pair(seed=6)
        prompt = make_prompt(target, 8, seed=4)
        config = GenConfig(prefix_len=8, gen_len=24, budget=8, seed=11)
        tokens_a, metrics_a = generate(target, draft, prompt, config)
        tokens_b, metrics_b = generate(target, draft, prompt, config)
        assert tokens_a == tokens_b
        assert metrics_a.steps == metrics_b.steps

    def test_aggregates_match_recomputation(self):
        target, draft = pair(seed=2)
        prompt = make_prompt(target, 8, seed=0)
        config = GenConfig(prefix_len=8, gen_len=20, budget=6, seed=5)
        _, metrics = generate(target, draft, prompt, config)
        rebuilt = RunMetrics.from_steps(metrics.steps, metrics.branch_events)
        assert rebuilt.mean_accepted == metrics.mean_accepted
        assert rebuilt.mean_tree_size == metrics.mean_tree_size
        assert rebuilt.tokens_per_modeled_second == metrics.tokens_per_modeled_second
        assert metrics.latency_per_token == sum(
            s.modeled_latency * s.accepted for s in metrics.steps
        ) / sum(s.accepted for s in metrics.steps)
        assert "latency_per_token" not in metrics.to_dict()

    def test_step_metrics_bounds(self):
        target, draft = pair(seed=8)
        prompt = make_prompt(target, 8, seed=6)
        config = GenConfig(prefix_len=8, gen_len=32, budget=12, seed=7)
        _, metrics = generate(target, draft, prompt, config)
        for s in metrics.steps:
            assert 1 <= s.accepted <= s.tree_depth + 1
            assert s.tree_size <= 12

    def test_threshold_mode_runs(self):
        target, draft = pair(seed=3)
        prompt = make_prompt(target, 8, seed=3)
        config = GenConfig(
            prefix_len=8, gen_len=16, threshold=0.05, size_cap=32, seed=9
        )
        tokens, metrics = generate(target, draft, prompt, config)
        assert len(tokens) == 16
        assert all(s.tree_size <= 32 for s in metrics.steps)

    def test_metrics_json_payload(self):
        target, draft = pair(seed=3)
        prompt = make_prompt(target, 4, seed=3)
        config = GenConfig(prefix_len=4, gen_len=8, budget=4, seed=0)
        _, metrics = generate(target, draft, prompt, config)
        payload = metrics.to_dict()
        assert payload["accepted_includes_bonus"] is True
        assert payload["num_steps"] == len(metrics.steps)


class TestWarmPair:
    """generate reuses a model already at its temperature, dist cache and all."""

    def test_second_generate_computes_no_softmax(self, monkeypatch):
        """A warm pair computes no softmax, draft or target: every row comes
        from a dist cache.  The target is read once per position verified
        (the prompt position plus each accepted node)."""
        import dyspec.lm as lm

        calls = {"softmax": 0, "target": 0}
        plain_dist = lm.LanguageModel.dist

        def dist(self, context):
            calls["target"] += self is target
            return plain_dist(self, context)

        def counting(logits, temp):
            calls["softmax"] += 1
            return softmax_with_temperature(logits, temp)

        monkeypatch.setattr(lm.LanguageModel, "dist", dist)
        monkeypatch.setattr(lm, "softmax_with_temperature", counting)
        target, draft = pair(seed=5, draft_temp=0.6, target_temp=0.6)
        prompt = make_prompt(target, 8, seed=1)
        config = GenConfig(prefix_len=8, gen_len=24, budget=8, seed=2)
        calls.update(softmax=0, target=0)
        _, metrics = generate(target, draft, prompt, config)
        assert calls["softmax"] > 0
        assert calls["target"] == sum(s.accepted for s in metrics.steps)
        calls.update(softmax=0, target=0)
        tokens, metrics = generate(target, draft, prompt, config)
        assert calls["softmax"] == 0
        assert calls["target"] == sum(s.accepted for s in metrics.steps)

        cold_target, cold_draft = pair(seed=5, draft_temp=0.6, target_temp=0.6)
        cold_tokens, cold_metrics = generate(cold_target, cold_draft, prompt, config)
        assert tokens == cold_tokens
        assert metrics.steps == cold_metrics.steps

    def test_other_target_temperature_stays_warm(self, monkeypatch):
        """A pair made at 0.6 and run at target temperature 0 keeps its
        temperature-0 sibling, so only the first call computes softmaxes."""
        import dyspec.lm as lm

        calls = []

        def counting(logits, temp):
            calls.append(temp)
            return softmax_with_temperature(logits, temp)

        monkeypatch.setattr(lm, "softmax_with_temperature", counting)
        target, draft = make_model_pair(ModelPairSpec())
        prompt = make_prompt(target, 8, seed=1)
        config = GenConfig(prefix_len=8, gen_len=16, budget=8, target_temp=0.0, seed=2)
        counts = []
        for _ in range(3):
            calls.clear()
            generate(target, draft, prompt, config)
            counts.append(len(calls))
        assert counts[0] > 0 and counts[1:] == [0, 0]

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.integers(1, 12),
        st.sampled_from([0.0, 0.6]),
        st.integers(0, 2**16),
    )
    def test_warm_pair_equals_cold_pair(self, prompt_seed, budget, target_temp, seed):
        warm, cold = warm_pair(), pair(seed=3, vocab=8)
        prompt = make_prompt(cold[0], 6, seed=prompt_seed)
        config = GenConfig(
            prefix_len=6, gen_len=12, budget=budget, target_temp=target_temp, seed=seed
        )
        warm_tokens, warm_metrics = generate(*warm, prompt, config)
        cold_tokens, cold_metrics = generate(*cold, prompt, config)
        assert warm_tokens == cold_tokens
        assert warm_metrics.steps == cold_metrics.steps
        assert warm_metrics.branch_events == cold_metrics.branch_events


class TestBaselineTrees:
    def test_chain_shape(self):
        _, draft = pair(seed=5)
        tree = build_baseline_tree("chain", draft, [0, 1], 4, seed=2)
        assert len(tree) == 4
        assert tree.depth() == 4

    def test_static_tree_shape(self):
        _, draft = pair(seed=5)
        tree = build_baseline_tree(
            "static_tree", draft, [0, 1], 8, seed=2, branching=(2, 2)
        )
        assert len(tree) == 6
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
        assert len(tree) == 6
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
        prompt = make_prompt(target, 8, seed=8)
        config = GenConfig(prefix_len=8, gen_len=24, budget=8, seed=13)
        _, metrics = generate(target, draft, prompt, config)
        rows = acceptance_vs_draft_bins(metrics.branch_events, 10)
        for _, _, rate, count in rows:
            if count:
                assert rate == 1.0

    def test_empty_events_rejected(self):
        with pytest.raises(ValueError):
            acceptance_vs_draft_bins([], 10)

    # Probabilities on and next to bin edges, where truncation decides the bin.
    edge_probs = st.integers(0, 40).flatmap(
        lambda i: st.sampled_from([i / 40, np.nextafter(i / 40, 0.0), np.nextafter(i / 40, 1.0)])
    ).map(lambda p: float(min(max(p, 0.0), 1.0)))

    @given(st.lists(st.tuples(st.one_of(edge_probs, st.floats(0.0, 1.0)), st.booleans()),
                    min_size=1, max_size=30),
           st.integers(1, 41))
    def test_bins_equal_per_event_loop(self, draws, bin_count):
        events = [BranchTrace(i, accepted, 0.5, 0.5, p) for i, (p, accepted) in enumerate(draws)]
        accepted, totals = [0] * bin_count, [0] * bin_count
        for ev in events:
            idx = min(int(ev.draft_prob * bin_count), bin_count - 1)
            totals[idx] += 1
            accepted[idx] += ev.accepted
        rows = acceptance_vs_draft_bins(events, bin_count)
        assert [row[3] for row in rows] == totals
        for (_, _, rate, _), a, n in zip(rows, accepted, totals):
            assert rate == a / n if n else math.isnan(rate)

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
        prompt = make_prompt(target, 8, seed=5)
        config = GenConfig(prefix_len=8, gen_len=8, budget=6, seed=0)
        outcome = generate_step(
            target.with_temperature(0.6), draft.with_temperature(0.6), prompt, config, 3
        )
        assert len(outcome.tree) == 6
        assert len(outcome.result.accepted) >= 1

    @pytest.mark.parametrize("target_temp", [0.0, 0.6])
    @pytest.mark.parametrize("seed", range(4))
    def test_target_rows_only_where_verification_reads(self, seed, target_temp, monkeypatch):
        import dyspec.lm as lm

        target, draft = pair(seed=seed, target_temp=target_temp)
        prompt = make_prompt(target, 8, seed=seed)
        rows = []
        plain = lm.LanguageModel.dist

        def dist(self, context):
            if self is target:
                rows.append(tuple(context))
            return plain(self, context)

        monkeypatch.setattr(lm.LanguageModel, "dist", dist)
        config = GenConfig(prefix_len=8, gen_len=8, budget=24, target_temp=target_temp, seed=0)
        outcome = generate_step(target, draft, prompt, config, seed)
        ids = outcome.result.accepted_node_ids
        assert len(outcome.tree) == 24
        assert rows == [tuple(prompt) + tuple(outcome.result.accepted[:k])
                        for k in range(len(ids) + 1)]
