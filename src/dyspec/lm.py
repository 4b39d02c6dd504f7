"""Synthetic draft/target language-model pairs.

Real checkpoint pairs are replaced by order-n Markov table models whose
rows are drawn from a symmetric Dirichlet construction, plus a noisy wrapper
that perturbs the target's logits to produce a draft model at a controllable
divergence.  The draft/target gap (and hence acceptance behaviour) is tuned
entirely through ``noise_sigma``.

Each Markov or draft-noise row draws from a Philox counter-based generator
(Salmon et al., SC 2011) keyed by ``derive_seed(seed, domain, *row key)`` at
counter 0, so a row depends only on (seed, domain, row key), not on the rows,
model instance or thread before it.  Each thread keeps one generator and
re-keys it per row, at about a tenth of the cost of building one.  A row's
draw and operation order is part of the stream contract: a rewrite must give
the old bits.  The Markov jitter spells out numpy's ``uniform``, assuming no
FMA fusion there; ``TestColdRows`` guards it, else use ``rng.uniform(-s, s)``.
"""

from __future__ import annotations

import math
import numbers
import sys
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, Mapping, Sequence, Tuple

import numpy as np

from .categorical import Categorical, _max, _total, softmax_with_temperature
from .rng import check_integer, check_real, check_seed, derive_seed
from .token_tree import ROOT

TokenSeq = Sequence[int]


class LanguageModel:
    """Conditional next-token distribution, deterministic given its seed.

    Subclasses are frozen dataclasses with a ``temperature`` field and
    implement :meth:`next_logits` as a pure function of the context.  Every
    model keys on its last ``order`` tokens (:meth:`context_key`).
    ``temperature`` is applied at query time by :meth:`dist`, the one place
    a next-token distribution is computed, draft and target alike.  It
    caches one distribution per context key (at most V^order) for the
    instance's life, across trees and ``generate`` calls.  Caches aside,
    instances are immutable and safe to query from multiple threads.
    """

    vocab_size: int
    order: int
    temperature: float

    def next_logits(self, context: TokenSeq) -> np.ndarray:
        raise NotImplementedError

    def context_key(self, context: TokenSeq) -> Tuple[int, ...]:
        """The last ``order`` tokens of ``context``, left-padded with token 0."""
        ctx = tuple(context[-self.order:])
        return (0,) * (self.order - len(ctx)) + ctx

    def dist(self, context: TokenSeq) -> Categorical:
        key = self.context_key(context)
        cache = self.__dict__.get("_dists")
        if cache is None:
            cache = self.__dict__["_dists"] = {}  # frozen dataclasses bar setattr
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = softmax_with_temperature(self.next_logits(key), self.temperature)
        return hit

    def with_temperature(self, temp: float) -> "LanguageModel":
        """This instance, warm dist cache included, at its own temperature;
        otherwise its sibling at ``temp``, made on first request and kept by
        this instance, so its dist cache stays warm across ``generate``
        calls.  A sibling shares the generated tables (Markov rows, draft
        noise) and holds no reference back, so dropping a model frees its
        siblings without the cycle collector."""
        if temp == self.temperature:
            return self
        siblings = self.__dict__.setdefault("_siblings", {})
        if temp not in siblings:
            siblings[temp] = replace(self, temperature=temp)
        return siblings[temp]


class _RowGenerator(threading.local):
    """The calling thread's Philox generator, re-keyed for each row."""

    def __init__(self):
        self._generator = np.random.Generator(np.random.Philox(0))
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,  # buffer empty: the next draw runs the counter
            "has_uint32": 0,
            "uinteger": 0,
        }

    def keyed(self, seed: int, domain: str, key: Tuple[int, ...]) -> np.random.Generator:
        """The generator keyed by ``derive_seed(seed, domain, *key)`` at
        counter 0, the same stream as a new ``Philox`` of that key.  Draw a
        row's values before keying another row in the same thread."""
        state, generator = self._state, self._generator
        state["state"]["key"] = (derive_seed(seed, domain, *key), 0)
        generator.bit_generator.state = state
        return generator


_ROW_GENERATOR = _RowGenerator()


_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # math.exp overflows above it
_NOISE_SIGMA_MAX = sys.float_info.max / 16


def check_noise_sigma(noise_sigma: float) -> None:
    """ValueError unless draft noise of scale ``noise_sigma`` keeps rows finite."""
    check_real(noise_sigma, "noise_sigma")
    if not 0 <= noise_sigma < math.inf:
        raise ValueError("noise_sigma must be >= 0 and finite")
    if noise_sigma > _NOISE_SIGMA_MAX:
        raise ValueError(f"noise_sigma must be <= {_NOISE_SIGMA_MAX!r}")


def check_temperatures(draft_temp: float, target_temp: float) -> None:
    """ValueError unless both temperatures are real numbers >= 0 and finite."""
    check_real(draft_temp, "draft_temp")
    check_real(target_temp, "target_temp")
    if not (0 <= draft_temp < math.inf and 0 <= target_temp < math.inf):
        raise ValueError("temperatures must be >= 0 and finite")


@dataclass(frozen=True)
class ModelPairSpec:
    """Parameters of one synthetic draft/target pair.

    Row arithmetic must not overflow.  A Markov row scales its concentration
    by ``exp(u)``, ``|u| <= entropy_spread``, so the spread and
    ``log(concentration) + entropy_spread`` are at most log(float max) ~ 709.78.
    Draft noise is sigma times normal draws, which numpy keeps below 13.71 in
    size, so ``noise_sigma`` is at most float max / 16.  Counts and seeds are
    integers (not bools), and seeds fit in int64; the other fields are real
    numbers, and temperatures are >= 0 and finite.
    """

    vocab_size: int = 64
    markov_order: int = 2
    target_seed: int = 0
    noise_sigma: float = 0.5
    concentration: float = 0.02
    entropy_spread: float = 2.5
    draft_temp: float = 0.6
    target_temp: float = 0.6

    def __post_init__(self):
        check_integer(self.vocab_size, "vocab_size")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        check_integer(self.markov_order, "markov_order")
        if self.markov_order < 1:
            raise ValueError("markov_order must be >= 1")
        check_seed(self.target_seed, "target_seed")
        check_noise_sigma(self.noise_sigma)
        check_real(self.concentration, "concentration")
        check_real(self.entropy_spread, "entropy_spread")
        check_temperatures(self.draft_temp, self.target_temp)
        if not 0 < self.concentration < math.inf:
            raise ValueError("concentration must be > 0 and finite")
        if not 0 <= self.entropy_spread < math.inf:
            raise ValueError("entropy_spread must be >= 0 and finite")
        if self.entropy_spread > _LOG_FLOAT_MAX:
            raise ValueError(f"entropy_spread must be <= {_LOG_FLOAT_MAX!r}")
        if self.concentration * math.exp(self.entropy_spread) == math.inf:
            raise ValueError("concentration * exp(entropy_spread) must be finite")


@dataclass(frozen=True)
class MarkovModel(LanguageModel):
    """Order-n table model with Dirichlet-drawn logit rows.

    A row is keyed by the context key and generated lazily: logits are the
    log of a symmetric-Dirichlet sample, so temperature-1 softmax recovers
    the Dirichlet row exactly.  The per-row concentration is the configured
    value jittered on a log scale, so one model mixes near-deterministic
    contexts with flat ones the way natural text does; ``entropy_spread = 0``
    disables the jitter.  A row draws the jitter uniform, then ``vocab_size``
    gammas, from the Philox stream keyed by ``(seed, "markov-row", key)``,
    so it is the same whenever and wherever it is made.  Rows are cached;
    the cache is an implementation detail and does not affect determinism.
    """

    vocab_size: int
    order: int
    seed: int
    concentration: float = 0.5
    temperature: float = 1.0
    entropy_spread: float = 3.0
    _rows: Dict[Tuple[int, ...], np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    def next_logits(self, context: TokenSeq) -> np.ndarray:
        key = self.context_key(context)
        row = self._rows.get(key)
        if row is None:
            rng = _ROW_GENERATOR.keyed(self.seed, "markov-row", key)
            s = self.entropy_spread  # numpy's uniform(-s, s): low + (high - low) * double
            alpha = self.concentration * math.exp(-s + (s - -s) * rng.random())
            gammas = rng.standard_gamma(alpha, size=self.vocab_size)
            # log of the unnormalized Dirichlet sample; softmax normalizes.
            row = self._rows[key] = np.log(np.maximum(gammas, 1e-300))
        return row


# How strongly the draft's entropy rises with the noise scale.  Calibrated
# so that sigma 0.5 puts the draft/target overlap near what small/large
# model pairs realize in practice (~0.7-0.85 per context).
_FLATTEN_PER_SIGMA = 1.5


@dataclass(frozen=True)
class NoisyDraftModel(LanguageModel):
    """Weaker stand-in for a target model, divergence set by one knob.

    Two effects combine, both proportional to ``sigma`` so that ``sigma ==
    0`` reproduces the target exactly: the target's logits are flattened
    (a weaker model is less confident everywhere, so its tail is fatter
    and its top thinner), and per-(context, token) Gaussian noise scatters
    individual predictions, with confident tokens perturbed least.  This
    is what makes draft probability predictive of acceptance: the target
    systematically concentrates relative to the draft on the draft's own
    high-probability tokens, while zero-mean noise alone would leave
    acceptance independent of draft confidence.  Noise is keyed on the
    base model's context key, so an order-n target yields an order-n
    draft: a row's ``vocab_size`` normals come from the Philox stream keyed
    by ``(seed, "draft-noise", context key)``.
    """

    base: LanguageModel
    sigma: float
    seed: int
    temperature: float = 1.0
    _noise: Dict[Tuple[int, ...], np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def vocab_size(self) -> int:  # type: ignore[override]
        return self.base.vocab_size

    @property
    def order(self) -> int:  # type: ignore[override]
        return self.base.order

    def next_logits(self, context: TokenSeq) -> np.ndarray:
        key = self.context_key(context)
        if self.sigma == 0.0:
            return self.base.next_logits(key)
        perturbed = self._noise.get(key)
        if perturbed is None:
            base_logits = self.base.next_logits(key)
            # Keyed only now: making the base row re-keys this thread's generator.
            rng = _ROW_GENERATOR.keyed(self.seed, "draft-noise", key)
            sigma = self.sigma
            shifted = base_logits - _max(base_logits)
            base_probs = np.exp(shifted)
            base_probs /= _total(base_probs)
            noise = rng.standard_normal(base_logits.size) * (sigma * (1.0 - base_probs))
            perturbed = self._noise[key] = shifted / (1.0 + _FLATTEN_PER_SIGMA * sigma) + noise
        return perturbed


def derive_draft(target: LanguageModel, noise_sigma: float, seed: int) -> NoisyDraftModel:
    """Perturb a target model into a draft at divergence set by noise_sigma."""
    check_noise_sigma(noise_sigma)
    return NoisyDraftModel(
        base=target, sigma=noise_sigma, seed=seed, temperature=target.temperature
    )


def make_model_pair(spec: ModelPairSpec) -> Tuple[MarkovModel, NoisyDraftModel]:
    """Target and draft models at the spec's respective temperatures."""
    target = MarkovModel(
        vocab_size=spec.vocab_size,
        order=spec.markov_order,
        seed=spec.target_seed,
        concentration=spec.concentration,
        temperature=spec.target_temp,
        entropy_spread=spec.entropy_spread,
    )
    draft = derive_draft(target, spec.noise_sigma, derive_seed(spec.target_seed, "draft"))
    return target, draft.with_temperature(spec.draft_temp)


def target_distributions_for_tree(
    target: LanguageModel, prefix: TokenSeq, tree
) -> Dict[int, Categorical]:
    """Every row of :class:`TargetRows` (a decoding step reads its rows
    lazily): ROOT first, then each node id in creation order."""
    return dict(TargetRows(target, prefix, tree))


class TargetRows(Mapping):
    """The target's next-token distribution at each position of a tree: on
    lookup, ``target.dist`` of the prefix plus the position's path.  Keys are
    ROOT (the prompt position) and every node id (its child position); others
    raise KeyError."""

    def __init__(self, target: LanguageModel, prefix: TokenSeq, tree):
        self._target, self._prefix, self._tree = target, list(prefix), tree

    def __getitem__(self, owner: int) -> Categorical:
        if not isinstance(owner, numbers.Integral) or not ROOT <= owner < len(self._tree.nodes):
            raise KeyError(owner)
        return self._target.dist(self._prefix + list(self._tree.position_path(owner)))

    def __len__(self) -> int:
        return len(self._tree.nodes) + 1

    def __iter__(self) -> Iterator[int]:
        return iter(range(ROOT, len(self._tree.nodes)))  # ROOT (-1), then every node id
