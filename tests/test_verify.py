import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyspec.categorical import Categorical
from dyspec.construct import build_tree_fixed, expected_accepted
from dyspec.lm import ModelPairSpec, TargetRows, make_model_pair, target_distributions_for_tree
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


def built_case(seed, budget=10, vocab=8, temp=0.6, draft_temp=None):
    spec = ModelPairSpec(
        vocab_size=vocab, markov_order=1, target_seed=seed, noise_sigma=1.0
    )
    target, draft = make_model_pair(spec)
    target = target.with_temperature(temp)
    draft = draft.with_temperature(temp if draft_temp is None else draft_temp)
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
        # The first walk keeps the zero fold in the position's memo; the
        # second reads it from there and must raise as well.
        tree = single_branch_tree([0.6, 0.4], 0)
        dists = {ROOT: Categorical([0.6, 0.4])}
        for _ in range(2):
            with pytest.raises(VerificationError, match="residual vanished"):
                verify_tree(tree, dists, 0, uniform_fn=lambda: 1.5)
        assert tree.verify_memo[ROOT][2][0].is_zero


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

    def test_zero_uniform_rejects_a_token_the_target_cannot_emit(self):
        # T[y] = 0 makes the threshold 0, which no uniform in [0, 1) passes,
        # 0 included; a trace that accepted there fails the replay.
        tree = single_branch_tree([0.6, 0.4], 0)
        dists = {ROOT: Categorical([0.0, 1.0])}
        res = verify_tree(tree, dists, 0, uniform_fn=uniforms(0.0, 0.0))
        assert (res.trace[0].threshold, res.trace[0].accepted) == (0.0, False)
        assert res.accepted == [1] and res.bonus_from_residual
        assert replay_trace(tree, dists, res)
        res.trace[0].accepted = True
        assert not replay_trace(tree, dists, res)

    @pytest.mark.parametrize("opened", [False, True])
    def test_position_without_branches_samples_raw_target(self, opened):
        # An unopened position and an opened one with no samplings alike:
        # one uniform, read against the target row itself.
        tree = TokenTree()
        if opened:
            tree.open_position(ROOT, Categorical([0.5, 0.5]))
        dists = {ROOT: Categorical([0.25, 0.75])}
        for u, token in ((0.2, 0), (0.3, 1)):
            res = verify_tree(tree, dists, 0, uniform_fn=uniforms(u))
            assert (res.accepted, res.accepted_node_ids, res.trace) == ([token], [], [])
            assert res.bonus_token == token
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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(-2**63, 2**63 - 1), case=st.integers(0, 2**20),
           budget=st.integers(1, 16), temp=st.sampled_from([0.0, 0.6]))
    @example(seed=-2**63, case=0, budget=10, temp=0.6)
    @example(seed=2**63 - 1, case=1, budget=10, temp=0.0)
    def test_default_uniforms_are_keyed_by_seed_in_visit_order(self, seed, case, budget, temp):
        # The default draws are keyed_uniform(seed, "verify", (), i) in visit
        # order, one per tested branch and one for the bonus.  The target
        # runs at temp and the draft at 0.6, so both accepts and rejects occur.
        tree, dists = built_case(case, budget, temp=temp, draft_temp=0.6)
        drawn = []

        def keyed():
            drawn.append(keyed_uniform(seed, "verify", (), len(drawn)))
            return drawn[-1]

        default = verify_tree(tree, dists, seed)
        injected = verify_tree(tree, dists, 0, uniform_fn=keyed)  # reads the memo the first walk filled
        assert default == injected
        assert len(drawn) == len(injected.trace) + 1

    def test_replay_does_not_read_the_memo(self):
        # A corrupted memoized threshold steers the next walk, and the
        # replay, which folds from scratch, must reject that walk.  A
        # tampered threshold can also reject a branch the true fold cannot
        # reject, and the walk then raises on the vanished residual: either
        # way the tampering is detected.
        for seed in range(10):
            tree, dists = built_case(seed)
            before = true_branch_acceptance(tree, dists)
            assert replay_trace(tree, dists, verify_tree(tree, dists, seed))
            tests = tree.verify_memo[ROOT][1]
            threshold, d_prob = tests[0]
            tests[0] = ((threshold + 0.5) % 1.0, d_prob)
            try:
                res = verify_tree(tree, dists, seed)
            except VerificationError:
                pass
            else:
                assert res.trace[0].threshold == (threshold + 0.5) % 1.0
                assert not replay_trace(tree, dists, res)
            assert true_branch_acceptance(tree, dists) == before

    def test_replay_draws_the_bonus_without_the_memo(self):
        # A tampered kept CDF steers the next walk's bonus to another token
        # with mass in the same row; the replay, which folds and samples
        # from scratch, must reject that walk.  It must also reject a result
        # whose bonus source flag was flipped.
        tampered_walks = 0
        for seed in range(10):
            tree, dists = built_case(seed)
            res = verify_tree(tree, dists, seed)
            assert replay_trace(tree, dists, res)
            res.bonus_from_residual = not res.bonus_from_residual
            assert not replay_trace(tree, dists, res)
            owner = res.accepted_node_ids[-1] if res.accepted_node_ids else ROOT
            row, cdf = tree.verify_memo[owner][3]
            others = [int(t) for t in np.flatnonzero(row.probs > 0.0) if t != res.bonus_token]
            if not others:
                continue
            cdf[:] = [0.0] * others[0] + [1.0] * (len(cdf) - others[0])
            steered = verify_tree(tree, dists, seed)
            assert steered.bonus_token == others[0]
            assert not replay_trace(tree, dists, steered)
            tampered_walks += 1
        assert tampered_walks > 0

    @pytest.mark.parametrize("check", [
        lambda tree, rows: verify_tree(tree, rows, 0, uniform_fn=lambda: 0.0),
        true_branch_acceptance,
    ], ids=["verify_tree", "true_branch_acceptance"])
    def test_missing_row_raises_the_mappings_key_error(self, check):
        tree, dists = built_case(1)
        assert tree.positions[0].node_ids  # the first accepted node's position is read
        with pytest.raises(KeyError):
            check(tree, {k: v for k, v in dists.items() if k != ROOT})
        with pytest.raises(KeyError):
            check(tree, {k: v for k, v in dists.items() if k != 0})
        # Rows of an empty tree cover only ROOT: node 0 is past its last node.
        target, _ = make_model_pair(ModelPairSpec(vocab_size=8, markov_order=1, target_seed=1))
        with pytest.raises(KeyError):
            check(tree, TargetRows(target, [1, 2], TokenTree()))


class TestBonusMemo:
    @pytest.fixture
    def cumsums(self, monkeypatch):
        """The rows verify_tree cumsums, in order."""
        import dyspec.verify as verify_mod

        rows = []
        monkeypatch.setattr(verify_mod, "_cumsum", lambda p: rows.append(p) or np.cumsum(p))
        return rows

    @pytest.mark.parametrize("stop", ["leaf", "all rejected"])
    def test_a_position_walked_many_times_cumsums_its_bonus_row_once(self, cumsums, stop):
        tree = TokenTree()
        tree.open_position(ROOT, Categorical([0.5, 0.3, 0.2]))
        tree.add_node(ROOT, 0, 1.0)
        tree.add_node(ROOT, 2, 0.5)
        if stop == "leaf":
            # the draft's own row accepts the first branch on every walk
            dists = {ROOT: Categorical([0.5, 0.3, 0.2]), 0: Categorical([0.25, 0.75, 0.0])}
        else:
            # the target cannot emit either branch, so both are always rejected
            dists = {ROOT: Categorical([0.0, 1.0, 0.0])}
        for seed in range(50):
            res = verify_tree(tree, dists, seed)
            assert res.bonus_from_residual == (stop != "leaf")
            assert replay_trace(tree, dists, res)
        assert len(cumsums) == 1

    def test_an_equal_valued_copy_of_the_row_cuts_a_new_cdf(self, cumsums):
        tree = TokenTree()
        dists = {ROOT: Categorical([0.25, 0.75])}
        verify_tree(tree, dists, 0)
        row, cdf = tree.verify_memo[ROOT][3]
        dists[ROOT] = Categorical(row.probs.copy())
        for seed in range(3):
            verify_tree(tree, dists, seed)
        assert len(cumsums) == 2
        memo = tree.verify_memo[ROOT]
        assert memo[0] is dists[ROOT] and memo[3][0] is dists[ROOT]
        assert memo[3][1] == cdf and memo[3][1] is not cdf


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

    def test_a_draft_equal_to_the_target_accepts_the_first_child_chain(self):
        # With noise 0 and equal temperatures every first branch passes and
        # leaves a zero fold, yet the greedy walk samples later siblings,
        # which are never tested.
        spec = ModelPairSpec(vocab_size=16, target_seed=3, noise_sigma=0.0)
        target, draft = make_model_pair(spec)
        later_siblings = 0
        for seed in range(20):
            prompt = [seed % 16, 7 * seed % 16]
            tree = build_tree_fixed(draft, prompt, 16, seed=seed)
            dists = target_distributions_for_tree(target, prompt, tree)
            probs = true_branch_acceptance(tree, dists)
            for state in tree.positions.values():
                first, *later = state.node_ids
                assert probs[first] == 1.0
                assert [probs[n] for n in later] == [0.0] * len(later)
                later_siblings += len(later)
            chain, owner = [], ROOT
            while owner in tree.positions:
                owner = tree.positions[owner].node_ids[0]
                chain.append(owner)
            assert expected_accepted(tree, probs) == len(chain)
            for walk_seed in range(5):
                assert verify_tree(tree, dists, walk_seed).accepted_node_ids == chain
        assert later_siblings > 0
