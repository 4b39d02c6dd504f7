from itertools import count

import numpy as np
import pytest

from dyspec.categorical import Categorical
from dyspec.construct import build_tree_fixed
from dyspec.lm import ModelPairSpec, make_model_pair, target_distributions_for_tree
from dyspec.rng import keyed_uniform
from dyspec.token_tree import ROOT, TokenTree
from dyspec.verify import (
    VerificationError,
    replay_trace,
    true_branch_acceptance,
    verify_tree,
)


def single_branch_tree(draft_probs, token):
    tree = TokenTree()
    tree.open_position(ROOT, Categorical(draft_probs))
    tree.add_node(ROOT, token, 1.0)
    return tree


def uniforms(*values):
    seq = iter(values)
    return lambda: next(seq)


def built_case(seed, budget=10, vocab=8, temp=0.6):
    spec = ModelPairSpec(
        vocab_size=vocab, markov_order=1, target_seed=seed, noise_sigma=1.0
    )
    target, draft = make_model_pair(spec)
    target = target.with_temperature(temp)
    draft = draft.with_temperature(temp)
    prompt = [seed % vocab, (seed + 1) % vocab]
    tree = build_tree_fixed(draft, prompt, budget, seed=seed)
    dists = target_distributions_for_tree(target, prompt, tree)
    return tree, dists


class TestInvariantErrors:
    def test_impossible_rejection_raises_typed_error(self):
        # draft equals target, so every branch passes for uniforms in [0, 1);
        # a uniform of 1.5 forces a rejection that leaves no residual mass
        tree = single_branch_tree([0.6, 0.4], 0)
        dists = {ROOT: Categorical([0.6, 0.4])}
        with pytest.raises(VerificationError, match="residual vanished"):
            verify_tree(tree, dists, 0, uniform_fn=lambda: 1.5)

    def test_memoized_zero_fold_raises_on_every_walk(self):
        # The first walk keeps the zero fold on the position; the second
        # reads it from there and must raise as well.
        tree = single_branch_tree([0.6, 0.4], 0)
        dists = {ROOT: Categorical([0.6, 0.4])}
        for _ in range(2):
            with pytest.raises(VerificationError, match="residual vanished"):
                verify_tree(tree, dists, 0, uniform_fn=lambda: 1.5)
        assert tree.positions[ROOT].verdicts[2][0].is_zero


class TestSingleBranch:
    # D[y]=0.6, T[y]=0.3: acceptance threshold is 0.3/0.6 = 0.5
    def test_rejection_samples_residual_bonus(self):
        tree = single_branch_tree([0.6, 0.4], 0)
        dists = {ROOT: Categorical([0.3, 0.7])}
        res = verify_tree(tree, dists, 0, uniform_fn=uniforms(0.6, 0.2))
        assert res.accepted_node_ids == []
        assert res.bonus_from_residual
        # residual normalize(relu(T-D)) = [0, 1]
        assert res.accepted == [1]
        assert res.trace[0].threshold == pytest.approx(0.5)
        assert not res.trace[0].accepted

    def test_acceptance_below_threshold(self):
        tree = single_branch_tree([0.6, 0.4], 0)
        dists = {
            ROOT: Categorical([0.3, 0.7]),
            0: Categorical([1.0, 0.0]),
        }
        res = verify_tree(tree, dists, 0, uniform_fn=uniforms(0.4, 0.0))
        assert res.accepted_node_ids == [0]
        assert res.accepted == [0, 0]  # branch token then bonus from target
        assert not res.bonus_from_residual

    def test_identical_distributions_always_accept(self):
        for u in (0.0, 0.5, 0.999999):
            tree = single_branch_tree([0.6, 0.4], 0)
            dists = {ROOT: Categorical([0.6, 0.4]), 0: Categorical([0.5, 0.5])}
            res = verify_tree(tree, dists, 0, uniform_fn=uniforms(u, 0.1))
            assert res.accepted_node_ids == [0]


class TestMultiBranch:
    def test_all_rejected_bonus_from_folded_residual(self):
        # target point-mass at 1; branches 0 and 2 both reject, bonus is 1
        tree = TokenTree()
        tree.open_position(ROOT, Categorical([0.5, 0.3, 0.2]))
        tree.add_node(ROOT, 0, 1.0)
        tree.add_node(ROOT, 2, 0.5)
        dists = {ROOT: Categorical([0.0, 1.0, 0.0])}
        res = verify_tree(tree, dists, 0, uniform_fn=uniforms(0.5, 0.5, 0.7))
        assert res.accepted_node_ids == []
        assert res.accepted == [1]
        assert res.bonus_from_residual
        assert [t.accepted for t in res.trace] == [False, False]

    def test_branches_tested_in_sampling_order(self):
        tree = TokenTree()
        tree.open_position(ROOT, Categorical([0.4, 0.3, 0.3]))
        first = tree.add_node(ROOT, 1, 1.0)
        second = tree.add_node(ROOT, 0, 0.6)
        dists = {
            ROOT: Categorical([0.5, 0.1, 0.4]),
            first: Categorical([1.0, 0.0, 0.0]),
            second: Categorical([1.0, 0.0, 0.0]),
        }
        res = verify_tree(tree, dists, 0, uniform_fn=uniforms(0.9, 0.1, 0.5))
        assert [t.node_id for t in res.trace] == [first, second]

    def test_full_support_position_always_accepts_a_branch(self):
        # once every token is sampled at a position, the verification walk
        # cannot reject them all: the last surviving branch ends up certain
        tree = TokenTree()
        tree.open_position(ROOT, Categorical([0.5, 0.3, 0.2]))
        for token in (0, 1, 2):
            tree.add_node(ROOT, token, 1.0 if token == 0 else 0.5)
        dists = {
            ROOT: Categorical([0.1, 0.2, 0.7]),
            0: Categorical([1.0, 0.0, 0.0]),
            1: Categorical([1.0, 0.0, 0.0]),
            2: Categorical([1.0, 0.0, 0.0]),
        }
        probs = true_branch_acceptance(tree, dists)
        assert probs[2] == pytest.approx(1.0)
        for seed in range(50):
            res = verify_tree(tree, dists, seed)
            assert len(res.accepted_node_ids) == 1


class TestVerifyTreeOnBuiltTrees:
    def test_deterministic_given_seed(self):
        tree, dists = built_case(3)
        a = verify_tree(tree, dists, 42)
        b = verify_tree(tree, dists, 42)
        assert a.accepted == b.accepted
        assert [t.uniform for t in a.trace] == [t.uniform for t in b.trace]

    def test_bonus_always_emitted(self):
        for seed in range(20):
            tree, dists = built_case(seed)
            res = verify_tree(tree, dists, seed * 13)
            assert len(res.accepted) == len(res.accepted_node_ids) + 1

    def test_accepted_ids_form_root_path(self):
        for seed in range(20):
            tree, dists = built_case(seed)
            res = verify_tree(tree, dists, seed)
            if res.accepted_node_ids:
                assert tree.ancestors(res.accepted_node_ids[-1]) == res.accepted_node_ids

    def test_trace_respects_sampling_order(self):
        for seed in range(20):
            tree, dists = built_case(seed)
            res = verify_tree(tree, dists, seed + 100)
            seen_at = {}
            for t in res.trace:
                pos = tree.nodes[t.node_id].parent
                k = tree.nodes[t.node_id].sibling_index
                assert seen_at.get(pos, -1) == k - 1
                seen_at[pos] = k

    def test_trace_replay_matches(self):
        for seed in range(20):
            tree, dists = built_case(seed)
            res = verify_tree(tree, dists, seed)
            assert replay_trace(tree, dists, res)

    def test_draft_side_read_from_residual_chain(self, monkeypatch):
        import dyspec.verify as verify_mod

        def no_renorm(*args):
            raise AssertionError("verify_tree refolded a draft residual")

        for seed in range(10):
            tree, dists = built_case(seed)
            monkeypatch.setattr(verify_mod, "remove_and_renorm", no_renorm)
            res = verify_tree(tree, dists, seed)
            monkeypatch.undo()
            assert replay_trace(tree, dists, res)

    def test_default_uniforms_are_keyed_by_seed_in_visit_order(self):
        for seed in range(10):
            tree, dists = built_case(seed)
            keyed = (keyed_uniform(seed, "verify", (), i) for i in count())
            assert verify_tree(tree, dists, seed) == verify_tree(
                built_case(seed)[0], dists, 0, uniform_fn=keyed.__next__
            )

    def test_replay_does_not_read_the_memo(self):
        # A corrupted memoized threshold steers the next walk, and the
        # replay, which folds from scratch, must reject that walk.
        for seed in range(10):
            tree, dists = built_case(seed)
            before = true_branch_acceptance(tree, dists)
            assert replay_trace(tree, dists, verify_tree(tree, dists, seed))
            tests = tree.positions[ROOT].verdicts[1]
            threshold, d_prob = tests[0]
            tests[0] = ((threshold + 0.5) % 1.0, d_prob)
            res = verify_tree(tree, dists, seed)
            assert res.trace[0].threshold == (threshold + 0.5) % 1.0
            assert not replay_trace(tree, dists, res)
            assert true_branch_acceptance(tree, dists) == before

    def test_missing_distribution_raises(self):
        tree, dists = built_case(1)
        incomplete = {k: v for k, v in dists.items() if k != ROOT}
        with pytest.raises(KeyError):
            verify_tree(tree, incomplete, 0)


class TestTrueBranchAcceptance:
    def test_matches_manual_two_branch_fold(self):
        tree = TokenTree()
        draft = Categorical([0.5, 0.3, 0.2])
        tree.open_position(ROOT, draft)
        a = tree.add_node(ROOT, 0, 1.0)
        b = tree.add_node(ROOT, 1, 0.5)
        target = Categorical([0.2, 0.5, 0.3])
        probs = true_branch_acceptance(tree, {ROOT: target})
        assert probs[a] == pytest.approx(0.4)  # 0.2 / 0.5
        # after rejecting a: R = norm(relu(T - D)) = [0, .2, .1]/0.3
        # D = [0, .6, .4]; ratio (0.2/0.3)/0.6 > 1 capped at 1
        assert probs[b] == pytest.approx(min(1.0, (0.2 / 0.3) / 0.6))

    def test_uncapped_second_branch(self):
        tree = TokenTree()
        tree.open_position(ROOT, Categorical([0.5, 0.3, 0.2]))
        tree.add_node(ROOT, 0, 1.0)
        b = tree.add_node(ROOT, 1, 0.5)
        target = Categorical([0.1, 0.2, 0.7])
        probs = true_branch_acceptance(tree, {ROOT: target})
        # R after rejecting token 0: relu(T-D) = [0, 0, .5] -> [0, 0, 1]
        # threshold for token 1: 0 / 0.6 = 0
        assert probs[b] == pytest.approx(0.0)

    def test_acceptance_probs_bounded(self):
        for seed in range(10):
            tree, dists = built_case(seed)
            for p in true_branch_acceptance(tree, dists).values():
                assert 0.0 <= p <= 1.0
