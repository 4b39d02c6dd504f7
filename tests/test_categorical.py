import math
import warnings

import numpy as np
import pytest

from dyspec.categorical import (
    Categorical,
    remove_and_renorm,
    residual_target,
    sample,
    softmax_with_temperature,
)
from dyspec import rng
from dyspec.rng import derive_seed, keyed_uniform, keyed_uniforms


class TestSoftmaxWithTemperature:
    def test_symmetric_logits_give_uniform(self):
        out = softmax_with_temperature([0.0, 0.0], 1.0)
        np.testing.assert_allclose(out.probs, [0.5, 0.5])

    def test_temp_zero_is_argmax_one_hot(self):
        out = softmax_with_temperature([3.0, 1.0], 0.0)
        np.testing.assert_array_equal(out.probs, [1.0, 0.0])

    def test_log_two_logit(self):
        out = softmax_with_temperature([math.log(2.0), 0.0], 1.0)
        np.testing.assert_allclose(out.probs, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_temp_zero_tie_breaks_to_lowest_index(self):
        out = softmax_with_temperature([2.0, 2.0, 1.0], 0.0)
        assert out.probs[0] == 1.0

    def test_temp_zero_support_size_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = softmax_with_temperature(rng.normal(size=8), 0.0)
            assert out.support_size == 1

    @pytest.mark.parametrize("temp", [1e-320, 5e-324])
    def test_tiny_temperature_splits_the_tied_maxima_without_warning(self, temp):
        # Logit gaps over such a temperature overflow to -inf, and exp gives 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = softmax_with_temperature([0.0, -1.0, 2.0, 2.0], temp)
        np.testing.assert_array_equal(out.probs, [0.0, 0.0, 0.5, 0.5])

    def test_non_finite_logits_rejected(self):
        with pytest.raises(ValueError):
            softmax_with_temperature([0.0, float("inf")], 1.0)
        with pytest.raises(ValueError):
            softmax_with_temperature([0.0, float("nan")], 0.0)

    @pytest.mark.parametrize("temp", [0.0, 0.6])
    @pytest.mark.parametrize("where", [0, 3, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    def test_every_non_finite_logit_raises(self, bad, where, temp):
        # The check reads the max and min reductions: NaN reaches both, +inf
        # only the max and -inf only the min.
        logits = np.linspace(-1.0, 1.0, 7)
        logits[where] = bad
        with pytest.raises(ValueError, match="^logits must be finite$"):
            softmax_with_temperature(logits, temp)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            softmax_with_temperature([0.0, 1.0], -0.5)


class TestSample:
    def test_point_mass(self):
        dist = Categorical([1.0, 0.0, 0.0])
        for u in (0.0, 0.3, 0.999):
            assert sample(dist, u) == 0

    def test_inverse_cdf_boundaries(self):
        assert sample(Categorical([0.5, 0.5]), 0.25) == 0
        assert sample(Categorical([0.2, 0.3, 0.5]), 0.6) == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            sample(Categorical.zero(3), 0.5)

    def test_never_returns_zero_mass_token(self):
        dist = Categorical([0.0, 0.5, 0.0, 0.5])
        tokens = {sample(dist, u) for u in np.linspace(0.0, 0.999999, 101)}
        assert tokens <= {1, 3}

    def test_empirical_frequencies_match(self):
        # Vectorized draw over the same inverse CDF the scalar path uses,
        # plus a scalar-agreement spot check.
        probs = np.array([0.05, 0.2, 0.3, 0.1, 0.35])
        dist = Categorical(probs)
        n = 1_000_000
        us = np.random.default_rng(7).random(n)
        draws = np.searchsorted(np.cumsum(probs), us, side="right")
        freqs = np.bincount(draws, minlength=5) / n
        stderr = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freqs - probs) <= 5 * stderr)
        for u in us[:2000]:
            assert sample(dist, float(u)) == np.searchsorted(np.cumsum(probs), u, side="right")


class TestResidualTarget:
    def test_basic_residual(self):
        out = residual_target(Categorical([0.3, 0.7]), Categorical([0.6, 0.4]))
        np.testing.assert_allclose(out.probs, [0.0, 1.0])

    def test_identical_distributions_flagged_zero(self):
        out = residual_target(Categorical([0.5, 0.5]), Categorical([0.5, 0.5]))
        assert out.is_zero

    def test_three_way(self):
        out = residual_target(
            Categorical([0.5, 0.25, 0.25]), Categorical([0.25, 0.5, 0.25])
        )
        np.testing.assert_allclose(out.probs, [1.0, 0.0, 0.0])

    def test_support_is_exactly_where_target_exceeds_draft(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = Categorical(rng.dirichlet(np.ones(6)))
            d = Categorical(rng.dirichlet(np.ones(6)))
            out = residual_target(t, d)
            assert not out.is_zero
            np.testing.assert_array_equal(out.probs > 0, t.probs > d.probs)
            assert abs(out.probs.sum() - 1.0) < 1e-12

    def test_vocab_mismatch_rejected(self):
        with pytest.raises(ValueError):
            residual_target(Categorical([1.0]), Categorical([0.5, 0.5]))


class TestRemoveAndRenorm:
    def test_basic_removal(self):
        out = remove_and_renorm(Categorical([0.5, 0.3, 0.2]), 0)
        np.testing.assert_allclose(out.probs, [0.0, 0.6, 0.4])

    def test_point_mass_removal_exhausts(self):
        assert remove_and_renorm(Categorical([1.0, 0.0]), 0).is_zero

    def test_remove_last_entry(self):
        out = remove_and_renorm(Categorical([0.25, 0.25, 0.5]), 2)
        np.testing.assert_allclose(out.probs, [0.5, 0.5, 0.0])

    def test_preserves_ratios(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            probs = rng.dirichlet(np.ones(5))
            dist = Categorical(probs)
            out = remove_and_renorm(dist, 2)
            for i in (0, 1, 3, 4):
                for j in (0, 1, 3, 4):
                    assert out.probs[i] / out.probs[j] == pytest.approx(
                        probs[i] / probs[j], rel=1e-12
                    )


class TestCategoricalInvariants:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Categorical([0.5, -0.1, 0.6])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Categorical([0.5, 0.6])

    @pytest.mark.parametrize("row", [[1e308, 1e308], [0.0, 9e307, 9e307, float("nan")]])
    def test_sum_past_the_float_range_is_a_bad_sum(self, row):
        # The sum overflows to inf (or NaN): a ValueError, not numpy's
        # overflow warning, which the test run raises as an error.
        with pytest.raises(ValueError, match="sum to"):
            Categorical(row)

    def test_all_zero_is_flagged(self):
        assert Categorical([0.0, 0.0]).is_zero

    def test_support_size(self):
        assert Categorical([0.5, 0.0, 0.5]).support_size == 2


class FixedDigest:
    """Stands in for a blake2b state whose digest is always ``value``."""

    def __init__(self, value):
        self.value = value

    def copy(self):
        return self

    def update(self, data):
        pass

    def digest(self):
        return self.value.to_bytes(8, "little")


class TestKeyedUniform:
    def test_deterministic(self):
        a = keyed_uniform(42, "construct", (1, 2, 3), 0)
        b = keyed_uniform(42, "construct", (1, 2, 3), 0)
        assert a == b

    def test_varies_with_each_component(self):
        base = keyed_uniform(42, "construct", (1, 2, 3), 0)
        assert base != keyed_uniform(43, "construct", (1, 2, 3), 0)
        assert base != keyed_uniform(42, "verify", (1, 2, 3), 0)
        assert base != keyed_uniform(42, "construct", (1, 2, 4), 0)
        assert base != keyed_uniform(42, "construct", (1, 2, 3), 1)

    def test_in_unit_interval(self):
        us = [keyed_uniform(0, "x", (), i) for i in range(1000)]
        assert all(0.0 <= u < 1.0 for u in us)
        # crude uniformity check
        assert 0.4 < sum(us) / len(us) < 0.6

    def test_pinned_values(self):
        # Every seeded output rests on these streams; a change to the key
        # encoding shows up here before it shows up in the golden fixtures.
        assert keyed_uniform(0, "construct", (), 0) == 0.822677131103133
        assert keyed_uniform(7, "verify", (3, -1, 2), 5) == 0.9409963379954277
        assert keyed_uniform(2**62, "x", (1,), 2**40) == 0.9372870148898861
        assert derive_seed(0, "draft") == 1874194164889341805
        assert derive_seed(123, "markov-row", 4, 17) == 5459639155950737558
        assert derive_seed(-5, "mc-verify", 9) == 7137721377220351249

    @pytest.mark.parametrize("digest, expected", [
        (2**64 - 1, 1.0 - 2.0**-53),  # scaling all 64 bits would round to 1.0
        (2**11 - 1, 0.0),
        (2**11, 2.0**-53),
        (0, 0.0),
    ])
    def test_top_53_bits_of_the_digest(self, monkeypatch, digest, expected):
        monkeypatch.setattr(rng, "_domain_hash", lambda domain: FixedDigest(digest))
        assert keyed_uniform(1, "x", (2,), 3) == expected
        assert keyed_uniforms(1, "x", (2,))(3) == expected
