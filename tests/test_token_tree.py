
import numpy as np
import pytest

from dyspec.categorical import Categorical
from dyspec.construct import (
    build_tree_fixed,
    build_tree_threshold,
    closed_form_values,
    draft_conditional_probs,
)
from dyspec.engine import build_baseline_tree
from dyspec.lm import ModelPairSpec, make_model_pair
from dyspec.token_tree import ROOT, TokenTree


def fresh_tree(root_probs=(0.5, 0.3, 0.2)):
    tree = TokenTree()
    tree.open_position(ROOT, Categorical(list(root_probs)))
    return tree


def random_draft(seed, vocab=8):
    spec = ModelPairSpec(
        vocab_size=vocab, markov_order=1, target_seed=seed, noise_sigma=1.0
    )
    _, draft = make_model_pair(spec)
    return draft.with_temperature(0.6)


def random_built_tree(seed, budget=12, vocab=8):
    return build_tree_fixed(random_draft(seed, vocab), [0, 1], budget, seed)


# One tree per order and shape of the walk: greedy, and layered with the
# threshold rule and each fixed shape's rule.
BUILDERS = {
    "fixed": lambda draft, seed: build_tree_fixed(draft, [0, 1], 12, seed),
    "threshold": lambda draft, seed: build_tree_threshold(draft, [0, 1], 0.02, 40, seed),
    "chain": lambda draft, seed: build_baseline_tree("chain", draft, [0, 1], 6, seed),
    "k_chains": lambda draft, seed: build_baseline_tree("k_chains", draft, [0, 1], 12, seed, k=3),
    "static_tree": lambda draft, seed: build_baseline_tree(
        "static_tree", draft, [0, 1], 30, seed, branching=(3, 2, 2)
    ),
}


def previous_siblings(tree, node_id):
    """Earlier samplings at the same position, in sampling order."""
    node = tree.nodes[node_id]
    return list(tree.positions[node.parent].node_ids[: node.sibling_index])


class TestAddNode:
    def test_first_node_at_root(self):
        tree = fresh_tree()
        nid = tree.add_node(ROOT, 0, 1.0)
        node = tree.nodes[nid]
        assert (nid, node.depth, node.sibling_index) == (0, 1, 0)

    def test_second_sampling_increments_sibling_index(self):
        tree = fresh_tree()
        tree.add_node(ROOT, 0, 1.0)
        nid = tree.add_node(ROOT, 1, 0.5)
        assert tree.nodes[nid].sibling_index == 1

    def test_child_depth(self):
        tree = fresh_tree()
        a = tree.add_node(ROOT, 0, 1.0)
        tree.open_position(a, Categorical([0.25, 0.75, 0.0]))
        c = tree.add_node(a, 1, 0.5)
        assert tree.nodes[c].depth == 2
        assert tree.nodes[c].sibling_index == 0

    def test_duplicate_token_rejected(self):
        tree = fresh_tree()
        tree.add_node(ROOT, 0, 1.0)
        with pytest.raises(ValueError):
            tree.add_node(ROOT, 0, 0.5)

    def test_exhausted_position_rejected(self):
        tree = fresh_tree((1.0, 0.0, 0.0))
        tree.add_node(ROOT, 0, 1.0)
        with pytest.raises(ValueError, match="exhausted"):
            tree.add_node(ROOT, 1, 0.5)

    def test_fold_waits_for_the_next_read(self):
        tree = fresh_tree((0.5, 0.3, 0.2))
        state = tree.positions[ROOT]
        tree.add_node(ROOT, 0, 1.0)
        assert len(state.chain) == 1
        tree.add_node(ROOT, 1, 0.5)  # reads residual 1, folded now
        assert len(state.chain) == 2
        np.testing.assert_allclose(state.residual.probs, [0.0, 0.0, 1.0])
        assert len(state.chain) == 3

    def test_residual_updates_on_add(self):
        tree = fresh_tree((0.5, 0.3, 0.2))
        tree.add_node(ROOT, 0, 1.0)
        np.testing.assert_allclose(
            tree.positions[ROOT].residual.probs, [0.0, 0.6, 0.4]
        )

    def test_second_sampling_prob_is_the_residual_prob(self):
        tree = fresh_tree((0.5, 0.3, 0.2))
        first = tree.add_node(ROOT, 0, 1.0)
        second = tree.add_node(ROOT, 1, 0.5)
        # token 1 has residual prob 0.3 / (1 - 0.5) at the second sampling
        assert draft_conditional_probs(tree) == pytest.approx({first: 0.5, second: 0.6})


class TestAncestors:
    def test_root_level_node_is_its_own_path(self):
        tree = fresh_tree()
        a = tree.add_node(ROOT, 0, 1.0)
        assert tree.ancestors(a) == [a]

    def test_chain(self):
        tree = fresh_tree()
        a = tree.add_node(ROOT, 0, 1.0)
        tree.open_position(a, Categorical([0.0, 1.0, 0.0]))
        b = tree.add_node(a, 1, 0.5)
        tree.open_position(b, Categorical([1.0, 0.0, 0.0]))
        c = tree.add_node(b, 0, 0.25)
        assert tree.ancestors(c) == [a, b, c]
        assert tree.token_path(c) == [0, 1, 0]
        assert tree.positions[b].path == (0, 1)

    def test_siblings_do_not_share_ancestry(self):
        tree = fresh_tree()
        tree.add_node(ROOT, 0, 1.0)
        b = tree.add_node(ROOT, 1, 0.5)
        assert tree.ancestors(b) == [b]


class TestPreviousSiblings:
    def test_first_sampling_has_none(self):
        tree = fresh_tree()
        a = tree.add_node(ROOT, 0, 1.0)
        assert previous_siblings(tree, a) == []

    def test_order_preserved(self):
        tree = fresh_tree()
        a = tree.add_node(ROOT, 0, 1.0)
        b = tree.add_node(ROOT, 1, 0.5)
        c = tree.add_node(ROOT, 2, 0.2)
        assert previous_siblings(tree, c) == [a, b]
        assert previous_siblings(tree, b) == [a]


class TestInvariantsOnBuiltTrees:
    def test_residual_fold_invariant(self):
        for seed in range(10):
            random_built_tree(seed).check_residuals()

    def test_residual_chain_keeps_every_sampling_residual(self):
        tree = fresh_tree((0.5, 0.3, 0.2))
        tree.add_node(ROOT, 0, 1.0)
        tree.add_node(ROOT, 1, 0.5)
        state = tree.positions[ROOT]
        residual = state.residual
        assert len(state.chain) == len(state.sampled) + 1
        assert state.chain[0] is state.draft_full
        np.testing.assert_allclose(state.chain[1].probs, [0.0, 0.6, 0.4])
        np.testing.assert_allclose(state.chain[2].probs, [0.0, 0.0, 1.0])
        assert residual is state.chain[-1]

    def test_check_residuals_catches_a_drifted_middle_entry(self):
        tree = random_built_tree(3)
        state = next(s for s in tree.positions.values() if len(s.sampled) >= 2)
        state.residual
        state.chain[1] = state.draft_full
        with pytest.raises(AssertionError, match="residual drifted"):
            tree.check_residuals()

    def test_values_in_unit_interval_and_monotone(self):
        for seed in range(10):
            tree = random_built_tree(seed)
            for node in tree.nodes:
                assert 0.0 < node.value <= 1.0
                if node.parent != ROOT:
                    assert node.value <= tree.nodes[node.parent].value + 1e-12
                sibs = previous_siblings(tree, node.node_id)
                if sibs:
                    assert node.value < tree.nodes[sibs[-1]].value

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_value_recurrence_matches_closed_form(self, builder):
        for seed in range(10):
            tree = BUILDERS[builder](random_draft(seed), seed)
            assert len(tree) > 0
            closed = closed_form_values(tree)
            for node in tree.nodes:
                assert node.value == pytest.approx(closed[node.node_id], abs=1e-9)

    @pytest.mark.parametrize("builder", ["threshold", "chain", "k_chains", "static_tree"])
    def test_layer_walk_creates_nodes_in_depth_order(self, builder):
        # Layer order: depth, then the value of the position's first
        # sampling (descending), owner id and sibling index.
        for seed in range(10):
            tree = BUILDERS[builder](random_draft(seed), seed)
            keys = []
            for node in tree.nodes:
                first = tree.positions[node.parent].node_ids[0]
                keys.append((node.depth, -tree.nodes[first].value, node.parent, node.sibling_index))
            assert keys == sorted(keys)

    @pytest.mark.parametrize("builder", ["fixed", "threshold"])
    def test_each_position_is_opened_once_from_the_draft(self, builder, monkeypatch):
        opened = []
        open_position = TokenTree.open_position

        def counting(tree, *args):
            opened.append(args[0])
            return open_position(tree, *args)

        monkeypatch.setattr(TokenTree, "open_position", counting)
        for seed in range(5):
            draft = random_draft(seed)
            opened.clear()
            tree = BUILDERS[builder](draft, seed)
            assert sorted(opened) == sorted(tree.positions)
            for state in tree.positions.values():
                assert state.draft_full == draft.dist([0, 1] + list(state.path))

    def test_node_count_matches_sampled_totals(self):
        tree = random_built_tree(3)
        total = sum(len(p.sampled) for p in tree.positions.values())
        assert total == len(tree.nodes)

