"""Property-based tests of the numeric core: Categorical, sampling, the
target rows of a tree, verification and exact verification."""

import itertools
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dyspec.categorical import (
    SUM_TOL,
    Categorical,
    remove_and_renorm,
    residual_target,
    sample,
    softmax_with_temperature,
)
from dyspec.construct import build_tree_fixed, grow_tree, tree_shape
from dyspec.lm import (
    _LOG_FLOAT_MAX,
    _NOISE_SIGMA_MAX,
    MarkovModel,
    ModelPairSpec,
    TargetRows,
    make_model_pair,
    target_distributions_for_tree,
)
from dyspec.oracle import exact_verify_distribution, fixed_chain_emission
from dyspec.rng import derive_seed, keyed_uniform, keyed_uniforms
from dyspec.token_tree import ROOT
from dyspec.verify import VerificationError, replay_trace, verify_tree

# Weight vectors with zeros allowed anywhere (leading, inner, trailing) and
# at least one positive entry.
weight_entries = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))
weights = st.lists(weight_entries, min_size=1, max_size=8).filter(lambda w: any(x > 0.0 for x in w))

unit_interval = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


def normalized(w):
    p = np.asarray(w, dtype=np.float64)
    return p / p.sum()


class TestCategoricalProperties:
    @given(weights, st.floats(min_value=-0.5, max_value=0.5))
    def test_sum_within_tolerance_accepted(self, w, frac):
        p = normalized(w)
        scaled = p * (1.0 + frac * SUM_TOL)
        assume(abs(float(scaled.sum()) - 1.0) <= SUM_TOL)
        dist = Categorical(scaled)
        assert not dist.is_zero
        assert dist.support_size == int(np.count_nonzero(p))

    @given(weights, st.floats(min_value=10.0, max_value=1e6), st.booleans())
    def test_sum_outside_tolerance_rejected(self, w, factor, above):
        p = normalized(w)
        scale = 1.0 + factor * SUM_TOL if above else 1.0 - factor * SUM_TOL
        with pytest.raises(ValueError, match="sum to"):
            Categorical(p * scale)

    @given(st.lists(st.floats(), min_size=1, max_size=8), st.data())
    def test_nan_entry_rejected(self, entries, data):
        entries[data.draw(st.integers(min_value=0, max_value=len(entries) - 1))] = np.nan
        with pytest.raises(ValueError):
            Categorical(entries)

    @given(st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=8))
    def test_nan_temperature_rejected(self, logits):
        with pytest.raises(ValueError, match="temperature"):
            softmax_with_temperature(logits, np.nan)

    @given(st.integers(min_value=1, max_value=16), unit_interval)
    def test_zero_vector_is_flagged_and_never_sampled(self, size, u):
        dist = Categorical(np.zeros(size))
        assert dist.is_zero
        assert dist == Categorical.zero(size)
        assert dist.support_size == 0
        with pytest.raises(ValueError, match="exhausted"):
            sample(dist, u)

    @given(weights, unit_interval, st.floats(min_value=-0.5, max_value=0.5))
    def test_sample_lands_on_positive_mass(self, w, u, frac):
        # A sum a little under 1 leaves u past the last cumulative entry;
        # the clamp must return the last positive token, never a zero one.
        probs = normalized(w) * (1.0 + frac * SUM_TOL)
        assume(abs(float(probs.sum()) - 1.0) <= SUM_TOL)
        dist = Categorical(probs)
        idx = sample(dist, u)
        assert 0 <= idx < dist.size
        assert dist.probs[idx] > 0.0
        cdf = np.cumsum(dist.probs)
        if u < cdf[-1]:
            assert idx == int(np.searchsorted(cdf, u, side="right"))
        else:
            assert idx == int(np.flatnonzero(dist.probs > 0.0)[-1])

    @given(weights, st.lists(unit_interval, min_size=1, max_size=8),
           st.floats(min_value=-0.5, max_value=0.5))
    def test_sample_equals_the_module_function_form(self, w, us, frac):
        # sample calls np.add.accumulate and ndarray.searchsorted; the
        # module functions give the same bits, clamp included, and seeded
        # outputs depend on it.
        probs = normalized(w) * (1.0 + frac * SUM_TOL)
        assume(abs(float(probs.sum()) - 1.0) <= SUM_TOL)
        dist = Categorical(probs)
        for u in us + [np.nextafter(1.0, 0.0)]:
            cdf = np.cumsum(dist.probs)
            idx = int(np.searchsorted(cdf, u, side="right"))
            if idx >= dist.size or dist.probs[idx] == 0.0:
                idx = int(np.flatnonzero(dist.probs > 0.0)[-1])
            assert sample(dist, u) == idx

    @given(weights, st.integers(0, 3), unit_interval, st.floats(min_value=-0.5, max_value=0.5))
    def test_sample_with_a_kept_cdf_equals_sample_without(self, w, trailing_zeros, u, frac):
        # verify_tree bisects a kept CDF list where sample alone cumsums the
        # row and searchsorts it; the index, clamp included, must not change,
        # also for u on a CDF entry or next to one.
        probs = normalized(w + [0.0] * trailing_zeros) * (1.0 + frac * SUM_TOL)
        assume(abs(float(probs.sum()) - 1.0) <= SUM_TOL)
        dist = Categorical(probs)
        cdf = np.cumsum(dist.probs).tolist()
        near = [v for c in cdf for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 2.0))]
        for v in [u] + near:
            assert sample(dist, float(v), cdf) == sample(dist, float(v))

    @given(weights)
    def test_sample_just_below_one_takes_last_positive(self, w):
        dist = Categorical(normalized(w))
        last = int(np.flatnonzero(dist.probs > 0.0)[-1])
        assert sample(dist, np.nextafter(1.0, 0.0)) == last

    @given(weights, st.data())
    def test_folds_equal_the_method_call_form(self, w, data):
        # The folds call np.add.reduce and divide in place; the method-call
        # form gave the same bits, and seeded outputs depend on it.
        dist = Categorical(normalized(w))
        t = data.draw(st.integers(0, dist.size - 1))
        p = dist.probs.copy()
        p[t] = 0.0
        folded = remove_and_renorm(dist, t)
        assert folded.is_zero == (p.sum() <= 0.0)
        assert np.array_equal(folded.probs, p if folded.is_zero else p / p.sum())
        assert np.array_equal(dist.probs, normalized(w))  # the input row is untouched

        other = Categorical(normalized(data.draw(
            st.lists(weight_entries, min_size=dist.size, max_size=dist.size)
            .filter(lambda v: any(x > 0.0 for x in v))
        )))
        x = np.maximum(other.probs - dist.probs, 0.0)
        corrective = residual_target(other, dist)
        assert corrective.is_zero == (x.sum() <= 0.0)
        assert np.array_equal(corrective.probs, x if corrective.is_zero else x / x.sum())
        assert np.array_equal(dist.probs, normalized(w))

    @given(st.integers(1, 64), st.data())
    def test_residual_target_equals_the_two_array_form_bit_for_bit(self, size, data):
        # residual_target clamps its difference in place; the two-array
        # form gave the same bits, -0.0 and subnormals included.  Rows are
        # drawn near-equal half the time, where the difference is tiny.
        row = st.lists(weight_entries, min_size=size, max_size=size).filter(
            lambda v: any(x > 0.0 for x in v)
        )
        draft = Categorical(normalized(data.draw(row)))
        if data.draw(st.booleans()):
            jitter = np.asarray(data.draw(st.lists(
                st.floats(min_value=-1e-12, max_value=1e-12), min_size=size, max_size=size
            )))
            target = Categorical(normalized(draft.probs * (1.0 + jitter)))
        else:
            target = Categorical(normalized(data.draw(row)))
        before = target.probs.copy(), draft.probs.copy()
        x = np.maximum(target.probs - draft.probs, 0)
        total = x.sum()
        folded = residual_target(target, draft)
        assert folded.is_zero == (total <= 0.0)
        expected = x if folded.is_zero else x / total
        assert folded.probs.dtype == expected.dtype
        assert folded.probs.tobytes() == expected.tobytes()
        assert target.probs.tobytes() == before[0].tobytes()
        assert draft.probs.tobytes() == before[1].tobytes()


# Seeds and position paths as keyed_uniform packs them: signed 64-bit
# integers, with -1 (the ROOT id) among the tag entries.
int64s = st.integers(-(2**63), 2**63 - 1)
key_seeds = st.one_of(st.sampled_from([0, -1, 2**62, -(2**62)]), int64s)
key_tags = st.lists(st.one_of(st.just(-1), st.integers(0, 63), int64s), max_size=12).map(tuple)


class TestConstructionStep:
    @given(key_seeds, st.lists(key_tags, min_size=1, max_size=4, unique=True), st.data())
    def test_prefix_cached_uniform_equals_keyed_uniform(self, seed, tags, data):
        # Each tag is asked twice in round-robin order, then in a drawn
        # order, so later queries reuse a kept prefix state between
        # queries of other tags.
        queries = [(tag, k) for k in (0, 1) for tag in tags]
        queries += data.draw(st.lists(st.tuples(st.sampled_from(tags), st.integers(0, 2**40)), max_size=16))
        streams = {tag: keyed_uniforms(seed, "construct", tag) for tag in tags}
        for tag, k in queries:
            assert streams[tag](k) == keyed_uniform(seed, "construct", tag, k)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 6),
        st.integers(1, 2),
        st.integers(1, 24),
        st.floats(min_value=0.0, max_value=2.0),
        st.sampled_from([0.0, 0.3, 1.0]),
        st.integers(0, 2**16),
        st.integers(0, 3),
    )
    def test_every_token_drawn_from_positive_residual_mass(
        self, vocab, order, budget, sigma, draft_temp, seed, width
    ):
        # The walk appends without add_node's checks: a token must come from
        # the positive mass of its residual, so it can neither repeat at its
        # position nor be drawn at an exhausted one.
        spec = ModelPairSpec(
            vocab_size=vocab, markov_order=order, target_seed=seed,
            noise_sigma=sigma, draft_temp=draft_temp,
        )
        _, draft = make_model_pair(spec)
        prompt = [seed % vocab]
        trees = [
            build_tree_fixed(draft, prompt, budget, seed=seed),
            # Up to width + 1 samplings per position: wider than the support
            # of small vocabularies and of temperature-0 rows.
            grow_tree(draft, prompt, seed, budget, lambda value, depth, count: count <= width),
        ]
        for tree in trees:
            for state in tree.positions.values():
                assert len(set(state.sampled)) == len(state.sampled)
                state.residual
                for token, drawn_from in zip(state.sampled, state.chain):
                    assert not drawn_from.is_zero
                    assert drawn_from.probs[token] > 0.0
                # The path built once when the position opened is its token path.
                owner = state.owner
                assert list(state.path) == ([] if owner == ROOT else tree.token_path(owner))
            tree.check_residuals()

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 8),
        st.integers(1, 2),
        st.integers(1, 24),
        st.floats(min_value=0.0, max_value=2.0),
        st.sampled_from([0.0, 0.3, 1.0]),
        st.integers(0, 2**16),
        st.sampled_from(["greedy", "threshold", "chain", "k_chains", "static_tree"]),
        st.data(),
    )
    def test_walk_folds_and_draws_as_the_reference_functions(
        self, vocab, order, budget, sigma, draft_temp, seed, shape, data
    ):
        # grow_tree folds and draws inline; every residual it keeps and every
        # token it draws must be, bit for bit, what remove_and_renorm and
        # sample give, and injecting keyed_uniform must change nothing.
        if shape == "greedy":
            fields = dict(budget=budget)
        elif shape == "threshold":
            fields = dict(threshold=data.draw(st.floats(1e-4, 1.0)), size_cap=budget)
        elif shape == "k_chains":
            fields = dict(structure=shape, budget=budget, k=data.draw(st.integers(1, budget)))
        elif shape == "static_tree":
            branching = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
            assume(sum(np.prod(branching[:d]) for d in range(1, len(branching) + 1)) <= budget)
            fields = dict(structure=shape, budget=budget, branching=branching)
        else:
            fields = dict(structure=shape, budget=budget)
        spec = ModelPairSpec(
            vocab_size=vocab, markov_order=order, target_seed=seed,
            noise_sigma=sigma, draft_temp=draft_temp,
        )
        _, draft = make_model_pair(spec)
        prompt = [seed % vocab]
        size_cap, keep = tree_shape(**fields)
        tree = grow_tree(draft, prompt, seed, size_cap, keep)
        for state in tree.positions.values():
            assert len(state.chain) in (len(state.sampled), len(state.sampled) + 1)
            for k, (before, after) in enumerate(zip(state.chain, state.chain[1:])):
                folded = remove_and_renorm(before, state.sampled[k])
                assert after.is_zero == folded.is_zero
                assert np.array_equal(after.probs, folded.probs)
            for k, (token, drawn_from) in enumerate(zip(state.sampled, state.chain)):
                u = keyed_uniform(seed, "construct", state.path, k)
                assert token == sample(drawn_from, u)
        injected = grow_tree(draft, prompt, seed, size_cap, keep,
                             lambda tag, k: keyed_uniform(seed, "construct", tag, k))
        assert injected.nodes == tree.nodes
        assert injected.positions.keys() == tree.positions.keys()
        for owner, state in tree.positions.items():
            other = injected.positions[owner]
            assert (other.path, other.sampled, other.node_ids) == (state.path, state.sampled, state.node_ids)
            assert other.chain == state.chain


class TestExactVerifyNearEqual:
    """Draft equal or nearly equal to the target: the emitted law is the target."""

    @settings(deadline=None)
    @given(weights.filter(lambda w: len(w) <= 6), st.data())
    def test_draft_equal_to_target(self, w, data):
        dist = Categorical(normalized(w))
        k = data.draw(st.integers(min_value=0, max_value=dist.support_size))
        law = exact_verify_distribution(dist, dist, k)
        np.testing.assert_allclose(law.probs, dist.probs, atol=1e-12)

    @settings(deadline=None)
    @given(
        weights.filter(lambda w: len(w) <= 6),
        st.lists(st.floats(min_value=-1e-6, max_value=1e-6), min_size=6, max_size=6),
        st.data(),
    )
    def test_draft_nearly_equal_to_target(self, w, jitter, data):
        draft = Categorical(normalized(w))
        target = Categorical(normalized(draft.probs * (1.0 + np.asarray(jitter[: draft.size]))))
        k = data.draw(st.integers(min_value=0, max_value=draft.support_size))
        law = exact_verify_distribution(draft, target, k)
        np.testing.assert_allclose(law.probs, target.probs, atol=1e-12)


class TestExactVerifyIsTheSumOverChains:
    """The integrated law is each ordered draft draw's fixed-chain law,
    weighted by the draw's probability under the draft residual chain."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_exact_law_equals_the_sum_of_fixed_chain_laws(self, vocab, data):
        row = st.lists(weight_entries, min_size=vocab, max_size=vocab)
        row = row.filter(lambda w: any(x > 0.0 for x in w))
        draft, target = (Categorical(normalized(data.draw(row))) for _ in range(2))
        k = data.draw(st.integers(1, min(3, draft.support_size)))
        total = np.zeros(draft.size)
        for draw in itertools.permutations(np.flatnonzero(draft.probs).tolist(), k):
            prob, residual = 1.0, draft
            for token in draw:
                prob *= residual[token]
                residual = remove_and_renorm(residual, token)
            total += prob * fixed_chain_emission(draft, target, list(draw))
        law = exact_verify_distribution(draft, target, k)
        np.testing.assert_allclose(total, law.probs, rtol=0.0, atol=1e-12)


class TestVerifyProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 6),
        st.integers(1, 2),
        st.integers(1, 16),
        st.floats(min_value=0.0, max_value=2.0),
        st.sampled_from([0.0, 0.6, 1.0]),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_walk_replays_and_emits_tokens_with_mass(
        self, vocab, order, budget, sigma, draft_temp, seed, data
    ):
        spec = ModelPairSpec(
            vocab_size=vocab, markov_order=order, target_seed=seed,
            noise_sigma=sigma, draft_temp=draft_temp,
        )
        _, draft = make_model_pair(spec)
        tree = build_tree_fixed(draft, [seed % vocab], budget, seed=seed)
        row_weights = st.lists(weight_entries, min_size=vocab, max_size=vocab).filter(
            lambda w: any(x > 0.0 for x in w)
        )
        rows = {}
        for owner in [ROOT] + [node.node_id for node in tree.nodes]:
            state = tree.positions.get(owner)
            # Some rows equal the draft's, where every branch is accepted.
            if state is not None and data.draw(st.booleans()):
                rows[owner] = state.draft_full
            else:
                rows[owner] = Categorical(normalized(data.draw(row_weights)))
        result = verify_tree(tree, rows, seed)

        assert replay_trace(tree, rows, result)
        owner = ROOT
        for node_id in result.accepted_node_ids:
            assert tree.nodes[node_id].parent == owner
            owner = node_id
        assert [tree.nodes[i].token for i in result.accepted_node_ids] == result.accepted[:-1]
        assert result.accepted[-1] == result.bonus_token
        source = rows[owner]
        if result.bonus_from_residual:
            state = tree.positions[owner]
            for draft_row in state.chain[: len(state.sampled)]:
                source = residual_target(source, draft_row)
        assert source[result.bonus_token] > 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 6),
        st.integers(1, 2),
        st.integers(1, 12),
        st.floats(min_value=0.0, max_value=2.0),
        st.sampled_from([0.0, 0.6, 1.0]),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_repeated_walks_equal_walks_on_a_rebuilt_tree(
        self, vocab, order, budget, sigma, draft_temp, seed, data
    ):
        # One tree is verified again and again, which fills and reuses the
        # memo of its positions; each walk must equal the same walk on a
        # tree rebuilt from scratch, which has no memo.  Between walks a
        # target row is swapped for an equal-valued copy or a new row, or a
        # position gains a sampling.
        spec = ModelPairSpec(
            vocab_size=vocab, markov_order=order, target_seed=seed,
            noise_sigma=sigma, draft_temp=draft_temp,
        )
        _, draft = make_model_pair(spec)
        prompt = [seed % vocab]
        row_weights = st.lists(weight_entries, min_size=vocab, max_size=vocab).filter(
            lambda w: any(x > 0.0 for x in w)
        )
        grown = []  # (owner, opening draft row or None, token) in order

        def build():
            fresh = build_tree_fixed(draft, prompt, budget, seed=seed)
            for owner, opening, token in grown:
                if opening is not None:
                    fresh.open_position(owner, opening)
                fresh.add_node(owner, token, 0.5)
            return fresh

        def walk(tree, walk_seed):
            try:
                return verify_tree(tree, rows, walk_seed)
            except VerificationError as exc:
                return str(exc)

        tree = build()
        rows = {}
        for owner in [ROOT] + [node.node_id for node in tree.nodes]:
            state = tree.positions.get(owner)
            if state is not None and data.draw(st.booleans()):
                rows[owner] = state.draft_full
            else:
                rows[owner] = Categorical(normalized(data.draw(row_weights)))
        seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=3))
        events = data.draw(st.lists(
            st.one_of(
                st.tuples(st.just("walk"), st.sampled_from(seeds)),
                st.tuples(st.sampled_from(["copy", "new", "grow"]), st.integers(0, 2**16)),
            ),
            min_size=1, max_size=12,
        ))
        for kind, arg in events + [("walk", seed) for seed in seeds]:
            owners = [ROOT] + [node.node_id for node in tree.nodes]
            owner = owners[arg % len(owners)]
            if kind == "walk":
                assert walk(tree, arg) == walk(build(), arg)
            elif kind == "copy":
                rows[owner] = Categorical(rows[owner].probs.copy())
            elif kind == "new":
                rows[owner] = Categorical(normalized(data.draw(row_weights)))
            else:
                state = tree.positions.get(owner)
                opening = None
                if state is None:
                    opening = Categorical(normalized(data.draw(row_weights)))
                    state = tree.open_position(owner, opening)
                left = np.flatnonzero(state.residual.probs > 0.0)
                if left.size == 0:
                    continue
                token = int(left[arg % left.size])
                grown.append((owner, opening, token))
                node_id = tree.add_node(owner, token, 0.5)
                rows[node_id] = Categorical(normalized(data.draw(row_weights)))
        assert tree.verify_memo[ROOT][1]  # the walks kept thresholds at ROOT


# Logit vectors over up to 16 tokens.  Integer-valued logits make tied
# maxima common, which exercises the temperature-0 tie break.
logit_values = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
logit_vectors = st.lists(logit_values, min_size=1, max_size=16)
temperatures = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=4.0))


class TestSoftmax:
    @given(logit_vectors, temperatures)
    def test_probabilities_follow_the_logits(self, logits, temp):
        probs = softmax_with_temperature(logits, temp).probs
        assert probs.shape == (len(logits),)
        if temp == 0.0:
            expected = np.zeros(len(logits))
            expected[logits.index(max(logits))] = 1.0  # lowest index of the maximum
            np.testing.assert_array_equal(probs, expected)
            return
        assert abs(probs.sum() - 1.0) <= SUM_TOL
        for i, a in enumerate(logits):
            for j, b in enumerate(logits):
                if a == b:
                    assert probs[i] == probs[j]
                elif a > b:  # up to the rounding of exp
                    assert probs[i] >= probs[j] * (1.0 - 1e-12)

    @given(logit_vectors, temperatures, st.data())
    def test_one_non_finite_entry_rejects_the_logits(self, logits, temp, data):
        i = data.draw(st.integers(0, len(logits) - 1))
        logits[i] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(ValueError, match="finite"):
            softmax_with_temperature(logits, temp)


def reference_markov_row(seed, vocab, concentration, spread, key):
    """A Markov row by its reference expressions, from a new Philox of its key:
    ``rng.uniform(-s, s)`` jitter, then the gammas."""
    rng = np.random.Generator(np.random.Philox(key=[derive_seed(seed, "markov-row", *key), 0]))
    alpha = concentration * math.exp(rng.uniform(-spread, spread))
    gammas = rng.standard_gamma(alpha, size=vocab)
    return np.log(np.maximum(gammas, 1e-300))


def reference_noise_row(seed, sigma, base_logits, key):
    """A draft-noise row by its reference expressions."""
    rng = np.random.Generator(np.random.Philox(key=[derive_seed(seed, "draft-noise", *key), 0]))
    shifted = base_logits - base_logits.max()
    base_probs = np.exp(shifted)
    base_probs /= base_probs.sum()
    scale = sigma * (1.0 - base_probs)
    noise = rng.standard_normal(base_logits.size) * scale
    flatten = 1.0 + 1.5 * sigma
    return shifted / flatten + noise


def reference_softmax(logits, temp):
    """softmax_with_temperature's probabilities by the reference expressions."""
    z = np.asarray(logits, dtype=np.float64)
    if temp == 0.0:
        probs = np.zeros(z.size, dtype=np.float64)
        probs[int(np.argmax(z))] = 1.0
        return probs
    e = np.exp(np.maximum(z - z.max(), -746.0 * temp) / temp)
    return np.divide(e, e.sum(), out=e)


def same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestColdRows:
    """Every generated row and ``dist`` equals its reference expressions bit
    for bit: a row's operation order is part of the stream contract."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 64),
        st.integers(1, 3),
        st.integers(-(2**63), 2**63 - 1),
        st.one_of(st.just(0.0), st.floats(0.0, _LOG_FLOAT_MAX), st.just(_LOG_FLOAT_MAX)),
        st.sampled_from([0.0, 0.5, _NOISE_SIGMA_MAX]),
        st.sampled_from([0.0, 5e-324, 1e-3, 0.6, 1.0]),
        st.sampled_from([0.0, 5e-324, 1e-3, 0.6, 1.0]),
        st.lists(st.lists(st.integers(0, 63), max_size=4), min_size=1, max_size=4),
    )
    def test_rows_and_dists_equal_the_seed_expressions(
        self, vocab, order, seed, spread, sigma, draft_temp, target_temp, contexts
    ):
        spec = ModelPairSpec(vocab_size=vocab, markov_order=order, target_seed=seed,
                             entropy_spread=spread, noise_sigma=sigma,
                             draft_temp=draft_temp, target_temp=target_temp)
        target, draft = make_model_pair(spec)
        draft_seed = derive_seed(seed, "draft")
        for context in contexts:
            context = [t % vocab for t in context]
            key = target.context_key(context)
            markov = reference_markov_row(seed, vocab, spec.concentration, spread, key)
            noisy = reference_noise_row(draft_seed, sigma, markov, key) if sigma else markov
            assert same_bits(draft.next_logits(context), noisy)
            assert same_bits(target.next_logits(context), markov)
            assert same_bits(draft.dist(context).probs, reference_softmax(noisy, draft_temp))
            assert same_bits(target.dist(context).probs, reference_softmax(markov, target_temp))


class CountingMarkov(MarkovModel):
    """Records the context key of every ``next_logits`` call."""

    def next_logits(self, context):
        self.__dict__.setdefault("keys", []).append(self.context_key(context))
        return super().next_logits(context)


class TiedMarkov(CountingMarkov):
    """Logits rounded down to multiples of 4: most rows have tied maxima."""

    def next_logits(self, context):
        return np.floor(super().next_logits(context) / 4.0) * 4.0


class TestTargetPass:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 12),
        st.integers(1, 3),
        st.integers(1, 40),
        st.lists(st.integers(0, 11), min_size=0, max_size=4),
        st.sampled_from([0.0, 0.6]),
        st.booleans(),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_rows_equal_a_fresh_models_dist(
        self, vocab, order, budget, prompt, temp, tied, seed, data
    ):
        prompt = [t % vocab for t in prompt]
        spec = ModelPairSpec(vocab_size=vocab, markov_order=order, target_seed=seed)
        _, draft = make_model_pair(spec)
        tree = build_tree_fixed(draft, prompt, budget, seed=seed)
        model = TiedMarkov if tied else CountingMarkov
        target = model(vocab_size=vocab, order=order, seed=seed, temperature=temp)
        fresh = model(vocab_size=vocab, order=order, seed=seed, temperature=temp)
        rows = TargetRows(target, prompt, tree)

        assert len(rows) == len(tree.nodes) + 1
        assert list(rows) == [ROOT] + [node.node_id for node in tree.nodes]
        # Rows read in any order, and again, equal a fresh model's dist.
        for owner in data.draw(st.permutations(list(rows))):
            path = [] if owner == ROOT else tree.token_path(owner)
            assert rows[owner] == fresh.dist(prompt + path)
            assert rows[owner] is rows[owner]
        assert len(target.keys) == len(set(target.keys))  # each key's logits read once
        assert target_distributions_for_tree(target, prompt, tree) == rows
        for missing in (-2, len(tree.nodes)):
            assert missing not in rows
            with pytest.raises(KeyError):
                rows[missing]

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 12),
        st.integers(1, 3),
        st.integers(1, 40),
        st.lists(st.integers(0, 11), min_size=0, max_size=4),
        st.sampled_from([0.0, 0.6, 1.0]),
        st.integers(0, 2**16),
    )
    def test_tree_pass_equals_fresh_dist_and_stays_cached(
        self, vocab, order, budget, prompt, temp, seed
    ):
        prompt = [t % vocab for t in prompt]
        spec = ModelPairSpec(vocab_size=vocab, markov_order=order, target_seed=seed, target_temp=temp)
        _, draft = make_model_pair(spec)
        tree = build_tree_fixed(draft, prompt, budget, seed=seed)
        target = CountingMarkov(vocab_size=vocab, order=order, seed=seed, temperature=temp)
        dists = target_distributions_for_tree(target, prompt, tree)

        assert len(target.keys) == len(set(target.keys))
        fresh = MarkovModel(vocab_size=vocab, order=order, seed=seed, temperature=temp)
        assert dists[ROOT] == fresh.dist(prompt)
        for node in tree.nodes:
            assert dists[node.node_id] == fresh.dist(prompt + tree.token_path(node.node_id))
        # A second pass reads no logits and returns the cached rows themselves.
        target.keys.clear()
        again = target_distributions_for_tree(target, prompt, tree)
        assert target.keys == []
        assert all(again[owner] is dists[owner] for owner in dists)


FAILING_PROPERTY = textwrap.dedent("""
    import warnings

    from hypothesis import given, strategies as st

    @given(st.integers())
    def test_property_fails(x):
        assert x < 5

    def test_own_warning_fails():
        warnings.warn("raised by the code under test", DeprecationWarning)

    def test_after_them_runs():
        pass
""")


def test_failing_property_reports_its_example(tmp_path):
    """Under the repository's pytest settings a failing ``@given`` test is one
    failure with its falsifying example, not an internal error ending the
    session; any other warning still fails its test."""
    ini = Path(__file__).resolve().parent.parent / "pyproject.toml"
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(ini), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1, run.stdout
    assert "Falsifying example: test_property_fails(" in run.stdout
    assert "2 failed, 1 passed" in run.stdout
