import dataclasses
import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from dyspec.categorical import Categorical, softmax_with_temperature
from dyspec.construct import build_tree_fixed
from dyspec import lm
from dyspec.lm import (
    _NOISE_SIGMA_MAX,
    _ROW_GENERATOR,
    LanguageModel,
    MarkovModel,
    ModelPairSpec,
    NoisyDraftModel,
    TargetRows,
    derive_draft,
    make_model_pair,
    target_distributions_for_tree,
)
from dyspec.rng import derive_seed
from dyspec.token_tree import ROOT, TokenTree


def kl_divergence(d: Categorical, t: Categorical) -> float:
    """KL(d || t) with 0*log(0) = 0; +inf when d has mass outside t's support."""
    if d.size != t.size:
        raise ValueError("distributions must share a vocabulary")
    mask = d.probs > 0.0
    if np.any(t.probs[mask] == 0.0):
        return math.inf
    p = d.probs[mask]
    q = t.probs[mask]
    return float(np.sum(p * np.log(p / q)))


def small_model(seed=7, vocab=4, order=1, **kw):
    return MarkovModel(vocab_size=vocab, order=order, seed=seed, **kw)


class TestMarkovModel:
    def test_deterministic_logits(self):
        m = small_model()
        a = m.next_logits([1, 2, 3])
        b = m.next_logits([1, 2, 3])
        np.testing.assert_array_equal(a, b)
        m2 = small_model()
        np.testing.assert_array_equal(a, m2.next_logits([1, 2, 3]))

    def test_rows_sum_to_one(self):
        m = small_model(vocab=16)
        for ctx in ([0], [3, 1], []):
            assert m.dist(ctx).probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_high_concentration_approaches_uniform(self):
        m = MarkovModel(
            vocab_size=2, order=1, seed=3, concentration=1e6, entropy_spread=0.0
        )
        for token in range(100):
            probs = m.dist([token % 2]).probs
            assert np.max(np.abs(probs - 0.5)) < 1e-2

    def test_context_key_pads_short_contexts(self):
        m = small_model(order=3)
        assert m.context_key([5]) == (0, 0, 5)
        assert m.context_key([1, 2, 3, 4]) == (2, 3, 4)
        assert m.context_key([]) == (0, 0, 0)
        assert m.context_key([1, 2, 3]) == (1, 2, 3)
        assert m.context_key((4, 5, 6)) == (4, 5, 6)

    def test_order_limits_dependence(self):
        m = small_model(order=2)
        a = m.next_logits([9, 1, 2])
        b = m.next_logits([5, 1, 2])
        np.testing.assert_array_equal(a, b)


class TestDeriveDraft:
    def test_sigma_zero_is_identity(self):
        target = small_model(vocab=8)
        draft = derive_draft(target, 0.0, seed=1)
        for ctx in ([0], [1, 2], [7]):
            np.testing.assert_array_equal(draft.next_logits(ctx), target.next_logits(ctx))
            assert kl_divergence(draft.dist(ctx), target.dist(ctx)) == 0.0

    def test_positive_sigma_diverges(self):
        target = small_model(vocab=64, seed=0)
        draft = derive_draft(target, 0.5, seed=1)
        kls = [kl_divergence(draft.dist([c]), target.dist([c])) for c in range(50)]
        assert np.mean(kls) > 0.0

    def test_mean_kl_monotone_in_sigma(self):
        target = small_model(vocab=32, seed=4, order=1)
        contexts = [[c % 32] for c in range(1000)]
        means = []
        for sigma in (0.25, 0.5, 1.0):
            draft = derive_draft(target, sigma, seed=9)
            means.append(
                np.mean([kl_divergence(draft.dist(c), target.dist(c)) for c in contexts])
            )
        assert means[0] <= means[1] <= means[2]

    def test_noise_sigma_bounds_match_the_spec(self):
        # derive_draft takes exactly the noise scales ModelPairSpec takes.
        target = MarkovModel(vocab_size=8, order=1, seed=0)
        for sigma, message in ((1e308, "must be <="), (math.inf, "finite"), (-0.1, ">= 0")):
            with pytest.raises(ValueError, match=message):
                derive_draft(target, sigma, 1)
            with pytest.raises(ValueError, match=message):
                ModelPairSpec(noise_sigma=sigma)
        draft = derive_draft(target, _NOISE_SIGMA_MAX, 1)
        for c in range(8):
            assert draft.dist([c]).probs.sum() == pytest.approx(1.0)

    def test_draft_deterministic(self):
        target = small_model(vocab=8)
        d1 = derive_draft(target, 0.7, seed=2)
        d2 = derive_draft(target, 0.7, seed=2)
        np.testing.assert_array_equal(d1.next_logits([3]), d2.next_logits([3]))

    def test_warm_draft_makes_no_base_call(self, monkeypatch):
        target = small_model(vocab=8)
        draft = derive_draft(target, 0.7, seed=2)
        cold = draft.next_logits([3])
        calls = []
        monkeypatch.setattr(MarkovModel, "next_logits", lambda self, ctx: calls.append(ctx))
        np.testing.assert_array_equal(draft.next_logits([5, 3]), cold)
        assert calls == []


class CountingMarkov(MarkovModel):
    """Records the context key of every ``next_logits`` call."""

    def next_logits(self, context):
        self.__dict__.setdefault("keys", []).append(self.context_key(context))
        return super().next_logits(context)


class TestDist:
    def test_equals_a_fresh_models_dist_in_any_order(self):
        contexts = [[1, 2], [3], [0, 3], [2], [1, 2]]
        warm = small_model(vocab=8, temperature=0.6)
        got = [warm.dist(c) for c in contexts]
        for c, row in zip(reversed(contexts), reversed(got)):
            assert row == small_model(vocab=8, temperature=0.6).dist(c)
        assert got[0] is got[4] and got[1] is got[2]  # one row per context key

    def test_reads_each_key_once_and_keeps_it(self):
        model = CountingMarkov(vocab_size=8, order=1, seed=7)
        for context in ([4], [0, 4], [5], [1, 5], [4]):
            model.dist(context)
        assert model.keys == [(4,), (5,)]
        assert list(model.__dict__["_dists"]) == [(4,), (5,)]
        model.keys.clear()
        model.dist([2, 4])
        model.dist([5])
        assert model.keys == []


class TestWithTemperature:
    def test_own_temperature_returns_the_instance(self):
        target, draft = make_model_pair(ModelPairSpec(vocab_size=8, markov_order=1))
        for model in (target, draft):
            warm = model.dist([3])
            assert model.with_temperature(model.temperature) is model
            assert model.with_temperature(model.temperature).dist([3]) is warm

    def test_other_temperature_shares_tables_with_a_fresh_cache(self):
        target, draft = make_model_pair(ModelPairSpec(vocab_size=8, markov_order=1))
        draft.dist([3])
        target.dist([3])
        hot_target, hot_draft = target.with_temperature(1.5), draft.with_temperature(1.5)
        assert hot_target is not target and hot_draft is not draft
        assert hot_target.temperature == hot_draft.temperature == 1.5
        assert hot_target._rows is target._rows
        assert hot_draft._noise is draft._noise
        assert "_dists" not in hot_target.__dict__ and "_dists" not in hot_draft.__dict__
        assert hot_draft.dist([3]) == softmax_with_temperature(draft.next_logits([3]), 1.5)

    def test_each_temperature_has_one_sibling(self):
        target, draft = make_model_pair(ModelPairSpec(vocab_size=8, markov_order=1))
        for model in (target, draft):
            hot = model.with_temperature(1.5)
            warm = hot.dist([3])
            assert model.with_temperature(1.5) is hot
            assert model.with_temperature(1.5).dist([3]) is warm
            assert model.with_temperature(0.0) is not hot

    def test_dropped_pair_frees_its_siblings_without_gc(self):
        target, draft = make_model_pair(ModelPairSpec(vocab_size=8, markov_order=1))
        models = [target, draft, target.with_temperature(0.0), draft.with_temperature(1.5)]
        for model in models:
            model.dist([3])
        refs = [weakref.ref(model) for model in models]
        gc.disable()
        try:
            del target, draft, model, models
            assert [ref() for ref in refs] == [None] * 4
        finally:
            gc.enable()


ROW_KEYS = [(0, 0), (3, 5), (15, 2), (7, 7), (5, 3)]


def fresh_model(which, seed=11):
    """The target (a MarkovModel) or the draft (a NoisyDraftModel) of a
    fresh V=16 order-2 pair, every row still ungenerated."""
    target, draft = make_model_pair(ModelPairSpec(vocab_size=16, target_seed=seed))
    return target if which == "target" else draft


@pytest.mark.parametrize("which", ["target", "draft"])
class TestRowIndependence:
    """A row's draws depend only on (seed, domain, row key)."""

    def test_same_row_first_or_after_other_rows(self, which):
        first = fresh_model(which).next_logits([3, 5])
        model = fresh_model(which)
        fresh_model(which, seed=12).next_logits([3, 5])  # another seed's stream
        for key in ROW_KEYS[2:] + ROW_KEYS[:1]:
            model.next_logits(list(key))
        getattr(model, "base", model).next_logits([3, 5])  # a draft's base row made first
        np.testing.assert_array_equal(model.next_logits([3, 5]), first)

    def test_fresh_model_of_the_same_seed_makes_the_same_rows(self, which):
        a, b = fresh_model(which), fresh_model(which)
        for key in ROW_KEYS:
            row = a.next_logits(list(key))
            other = b.next_logits(list(key))
            assert other is not row
            np.testing.assert_array_equal(other, row)

    def test_rows_made_in_two_threads_at_once(self, which):
        # A short switch interval interleaves the threads between re-keying
        # and drawing, which a generator shared across threads would not
        # survive.
        keys = [(a, b) for a in range(16) for b in range(16)]
        made = {}

        def make(name):
            model = fresh_model(which)
            made[name] = [model.next_logits(list(key)) for key in keys]

        threads = [threading.Thread(target=make, args=(n,)) for n in ("a", "b")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        main = fresh_model(which)
        for key, a, b in zip(keys, made["a"], made["b"]):
            np.testing.assert_array_equal(a, main.next_logits(list(key)))
            np.testing.assert_array_equal(b, main.next_logits(list(key)))

    def test_rows_of_other_keys_or_seeds_differ(self, which):
        model, other_seed = fresh_model(which), fresh_model(which, seed=12)
        rows = [model.next_logits(list(key)) for key in ROW_KEYS]
        for i, row in enumerate(rows):
            assert not np.array_equal(row, other_seed.next_logits(list(ROW_KEYS[i])))
            for later in rows[i + 1:]:
                assert not np.array_equal(row, later)


def test_row_streams_are_philox_keyed_by_domain():
    # The per-thread generator, re-keyed, is a new Philox of the row's key.
    for domain in ("markov-row", "draft-noise"):
        expected = np.random.Generator(
            np.random.Philox(key=[derive_seed(11, domain, 3, 5), 0])
        ).standard_normal(8)
        _ROW_GENERATOR.keyed(0, "other", (1,)).standard_normal(3)  # leave a stream mid-way
        np.testing.assert_array_equal(
            _ROW_GENERATOR.keyed(11, domain, (3, 5)).standard_normal(8), expected
        )
    markov = _ROW_GENERATOR.keyed(11, "markov-row", (3, 5)).standard_normal(8)
    noise = _ROW_GENERATOR.keyed(11, "draft-noise", (3, 5)).standard_normal(8)
    assert not np.array_equal(markov, noise)


class TestTracerRowContract:
    """perfbench's tracer counts a ``dist`` miss as a ``next_logits`` call
    inside ``dist``, and a generated Markov or noise row as an
    ``rng.derive_seed`` call made inside ``next_logits``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """(caller, callee) of every dist, next_logits and derive_seed call."""
        stack, log = ["outside"], []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                log.append((stack[-1], name))
                stack.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            return wrapper

        for owner, attr, name in ((LanguageModel, "dist", "dist"),
                                  (MarkovModel, "next_logits", "markov"),
                                  (NoisyDraftModel, "next_logits", "noise"),
                                  (lm, "derive_seed", "derive_seed")):
            monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
        return log

    def test_each_row_derives_one_seed_inside_its_next_logits(self, calls):
        target, draft = make_model_pair(ModelPairSpec(vocab_size=8))
        calls.clear()
        draft.dist([3, 5])
        assert calls == [("outside", "dist"), ("dist", "noise"), ("noise", "markov"),
                         ("markov", "derive_seed"), ("noise", "derive_seed")]
        calls.clear()
        target.dist([4])  # key (0, 4): a cold Markov row
        assert calls == [("outside", "dist"), ("dist", "markov"), ("markov", "derive_seed")]
        calls.clear()
        draft.dist([0, 4])  # warm Markov row, cold noise row
        assert calls == [("outside", "dist"), ("dist", "noise"), ("noise", "markov"),
                         ("noise", "derive_seed")]

    def test_warm_dist_calls_neither(self, calls):
        target, draft = make_model_pair(ModelPairSpec(vocab_size=8))
        draft.dist([3, 5])
        target.dist([3, 5])
        calls.clear()
        for model in (draft, target):
            model.dist([1, 3, 5])  # the same context key
        assert calls == [("outside", "dist")] * 2

    def test_noiseless_draft_generates_only_the_markov_row(self, calls):
        _, draft = make_model_pair(ModelPairSpec(vocab_size=8, noise_sigma=0.0))
        calls.clear()
        draft.dist([2])
        assert calls == [("outside", "dist"), ("dist", "noise"), ("noise", "markov"),
                         ("markov", "derive_seed")]


class TestKLDivergence:
    def test_identity_is_zero(self):
        d = Categorical([0.3, 0.7])
        assert kl_divergence(d, d) == 0.0

    def test_point_mass_vs_uniform(self):
        got = kl_divergence(Categorical([1.0, 0.0]), Categorical([0.5, 0.5]))
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_support_violation_is_infinite(self):
        assert math.isinf(
            kl_divergence(Categorical([0.5, 0.5]), Categorical([1.0, 0.0]))
        )


class TestTargetDistributionsForTree:
    def test_empty_tree_gives_root_only(self):
        target = small_model()
        tree = TokenTree()
        dists = target_distributions_for_tree(target, [0, 1], tree)
        assert set(dists) == {ROOT}
        np.testing.assert_array_equal(dists[ROOT].probs, target.dist([0, 1]).probs)

    def test_chain_contexts(self):
        target = small_model(vocab=6)
        tree = TokenTree()
        tree.open_position(ROOT, target.dist([5]))
        a = tree.add_node(ROOT, 2, 1.0)
        tree.open_position(a, target.dist([5, 2]))
        b = tree.add_node(a, 4, 0.5)
        dists = target_distributions_for_tree(target, [5], tree)
        assert set(dists) == {ROOT, a, b}
        np.testing.assert_array_equal(dists[a].probs, target.dist([5, 2]).probs)
        np.testing.assert_array_equal(dists[b].probs, target.dist([5, 2, 4]).probs)

    def test_siblings_share_prefix_not_extension(self):
        target = small_model(vocab=6)
        tree = TokenTree()
        tree.open_position(ROOT, target.dist([3]))
        a = tree.add_node(ROOT, 0, 1.0)
        b = tree.add_node(ROOT, 1, 0.5)
        dists = target_distributions_for_tree(target, [3], tree)
        np.testing.assert_array_equal(dists[a].probs, target.dist([3, 0]).probs)
        np.testing.assert_array_equal(dists[b].probs, target.dist([3, 1]).probs)

    def test_count_is_node_count_plus_one(self):
        spec = ModelPairSpec(vocab_size=16, markov_order=1, target_seed=3)
        target, draft = make_model_pair(spec)
        prompt = [1, 2, 3]
        tree = build_tree_fixed(draft, prompt, 12, seed=5)
        dists = target_distributions_for_tree(target, prompt, tree)
        assert len(dists) == len(tree.nodes) + 1
        for node in tree.nodes:
            ctx = prompt + tree.token_path(node.node_id)
            np.testing.assert_array_equal(
                dists[node.node_id].probs, target.dist(ctx).probs
            )

    @pytest.mark.parametrize("key", [1.0, 2.5, "0"])
    def test_key_that_is_no_node_id_is_missing(self, key):
        # 1.0 equals node id 1, yet is no node id: Mapping's contract is a
        # False from ``in`` and a KeyError from ``[]``, not a TypeError.
        spec = ModelPairSpec(vocab_size=16, markov_order=1, target_seed=3)
        target, draft = make_model_pair(spec)
        rows = TargetRows(target, [1], build_tree_fixed(draft, [1], 4, seed=5))
        assert 1 in rows
        assert key not in rows
        with pytest.raises(KeyError):
            rows[key]


class TestModelPairSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelPairSpec(vocab_size=1)
        with pytest.raises(ValueError):
            ModelPairSpec(markov_order=0)
        with pytest.raises(ValueError):
            ModelPairSpec(noise_sigma=-1.0)
        with pytest.raises(ValueError):
            ModelPairSpec(concentration=0.0)

    @pytest.mark.parametrize("name, bad", [
        ("vocab_size", 8.0), ("vocab_size", True), ("markov_order", 1.5),
        ("markov_order", True), ("target_seed", 1.5), ("target_seed", True),
    ], ids=["vocab_size-float", "vocab_size-bool", "markov_order-float",
            "markov_order-bool", "target_seed-float", "target_seed-bool"])
    def test_integer_fields_reject_floats_and_bools(self, name, bad):
        # A float failed only at the first row or in derive_seed, and True
        # was read as 1.
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not {bad!r}$"):
            ModelPairSpec(**{name: bad})
        target, draft = make_model_pair(ModelPairSpec(**{name: np.int64(2)}))
        assert draft.dist([1, 0]) == make_model_pair(ModelPairSpec(**{name: 2}))[1].dist([1, 0])

    def test_round_trips_through_dict(self):
        spec = ModelPairSpec(vocab_size=32, noise_sigma=0.25)
        assert ModelPairSpec(**dataclasses.asdict(spec)) == spec
