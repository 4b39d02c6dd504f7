"""Property-based tests of the numeric core: Categorical and exact verification."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dyspec.categorical import SUM_TOL, Categorical, sample
from dyspec.oracle import exact_verify_distribution

# Weight vectors with zeros allowed anywhere (leading, inner, trailing) and
# at least one positive entry.
weights = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
    min_size=1,
    max_size=8,
).filter(lambda w: any(x > 0.0 for x in w))

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

    @given(weights)
    def test_sample_just_below_one_takes_last_positive(self, w):
        dist = Categorical(normalized(w))
        last = int(np.flatnonzero(dist.probs > 0.0)[-1])
        assert sample(dist, np.nextafter(1.0, 0.0)) == last


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
