"""Deterministic discrete sampling helpers.

The synthetic corpus generator and the workload shaping code both need
Zipf-skewed categorical sampling that is reproducible from a seed and
independent of third-party library versions, so a small bisect-based
sampler is implemented here.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from typing import List, Sequence, TypeVar

T = TypeVar("T")


def zipf_weights(n: int, exponent: float) -> List[float]:
    """Unnormalized Zipf weights ``1/rank^exponent`` for ranks 1..n.

    An *exponent* (the Zipf "slope") of 0 degenerates to uniform
    weights, matching how the paper's "w-zipf" stream with slope 0.5 is
    a mildly skewed popularity distribution.  Very large exponents make
    ``rank ** exponent`` overflow the float range for tail ranks; those
    weights underflow to 0.0 (head-only sampling) rather than raising.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    weights = []
    for rank in range(1, n + 1):
        try:
            weights.append(1.0 / (rank ** exponent))
        except OverflowError:
            weights.append(0.0)
    return weights


class CategoricalSampler:
    """Sample items with fixed relative weights, reproducibly.

    Uses precomputed cumulative sums + binary search: O(log n) per draw.
    """

    def __init__(self, items: Sequence[T], weights: Sequence[float]) -> None:
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        if not items:
            raise ValueError("cannot sample from an empty sequence")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        self.items: List[T] = list(items)
        self._cumulative = list(itertools.accumulate(weights))
        self._total = self._cumulative[-1]
        if self._total <= 0:
            raise ValueError("total weight must be positive")

    def sample(self, rng: random.Random) -> T:
        """Draw one item using *rng*."""
        x = rng.random() * self._total
        return self.items[min(bisect_right(self._cumulative, x), len(self.items) - 1)]

    def sample_many(self, rng: random.Random, count: int) -> List[T]:
        """Draw *count* items with replacement, in bulk.

        Exactly equivalent to *count* :meth:`sample` calls — the RNG is
        consumed identically (one ``rng.random()`` per draw, in draw
        order) and each uniform maps through the same cumulative-sum
        rule — but instead of one O(log n) bisection per draw, the
        draws are argsorted and resolved by a single monotone merge
        over the cumulative array: O(count·log count + n) total, O(1)
        amortized per draw once count approaches the support size.
        The streaming corpus generator leans on this for its per-doc
        term draws.
        """
        if count <= 0:
            return []
        total = self._total
        uniforms = [rng.random() * total for __ in range(count)]
        order = sorted(range(count), key=uniforms.__getitem__)
        cumulative = self._cumulative
        items = self.items
        last = len(items) - 1
        result: List[T] = [items[0]] * count
        j = 0
        for position in order:
            x = uniforms[position]
            # Equivalent to min(bisect_right(cumulative, x), last):
            # uniforms arrive ascending, so j never moves backwards.
            while j < last and cumulative[j] <= x:
                j += 1
            result[position] = items[j]
        return result

    def sample_distinct(self, rng: random.Random, count: int) -> List[T]:
        """Draw up to *count* distinct items (weighted, without
        replacement via rejection; falls back to exhaustive selection
        when the pool is nearly exhausted)."""
        if count >= len(self.items):
            return list(dict.fromkeys(self.items))
        chosen: List[T] = []
        seen = set()
        attempts = 0
        max_attempts = 50 * count
        while len(chosen) < count and attempts < max_attempts:
            item = self.sample(rng)
            attempts += 1
            if item not in seen:
                seen.add(item)
                chosen.append(item)
        if len(chosen) < count:
            for item in self.items:
                if item not in seen:
                    seen.add(item)
                    chosen.append(item)
                    if len(chosen) == count:
                        break
        return chosen


class ZipfSampler(CategoricalSampler):
    """Categorical sampler with Zipf weights over item rank order."""

    def __init__(self, items: Sequence[T], exponent: float) -> None:
        super().__init__(items, zipf_weights(len(items), exponent))
