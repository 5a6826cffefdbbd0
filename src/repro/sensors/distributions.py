"""Attribute-value distributions for selectivity estimation.

The tier-1 cost model needs ``sel(q, N_k)`` — "the percentage of sensor
nodes in N_k whose readings can satisfy the query predicates" (Eq. 1).  The
paper maintains a data distribution per routing-tree level but, "to save
maintenance cost", its experiments use a single distribution for all levels;
we default to the same.

Two estimators are provided:

* :class:`UniformDistribution` — closed-form selectivity under the uniform
  assumption of the paper's worked example;
* :class:`HistogramDistribution` — an equi-width histogram maintained from
  observed readings, the "independent problem studied in other literatures"
  the paper defers to (e.g. model-driven acquisition [3]).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from .field import AttributeSpec


class Distribution:
    """Interface: probability that an attribute value falls in [lo, hi]."""

    def probability(self, lo: float, hi: float) -> float:
        raise NotImplementedError

    def observe(self, value: float) -> bool:
        """Feed an observed reading; True if estimates may have changed.

        Analytic distributions learn nothing and return False.
        """
        return False


@dataclass(frozen=True)
class UniformDistribution(Distribution):
    """Closed-form uniform distribution over ``[spec.lo, spec.hi]``."""

    spec: AttributeSpec

    def probability(self, lo: float, hi: float) -> float:
        if self.spec.span <= 0:
            return 1.0 if lo <= self.spec.lo <= hi else 0.0
        clipped_lo = max(lo, self.spec.lo)
        clipped_hi = min(hi, self.spec.hi)
        if clipped_hi <= clipped_lo:
            return 0.0
        return (clipped_hi - clipped_lo) / self.spec.span


class HistogramDistribution(Distribution):
    """Equi-width histogram over the attribute range, updated online.

    Starts uniform (one pseudo-count per bucket) so early estimates are
    sane, then converges to the empirical distribution as readings arrive.
    """

    def __init__(self, spec: AttributeSpec, n_buckets: int = 20) -> None:
        if n_buckets < 1:
            raise ValueError(f"need at least one bucket (got {n_buckets})")
        self.spec = spec
        self._counts = [1.0] * n_buckets
        self._total = float(n_buckets)
        self._width = spec.span / n_buckets if spec.span > 0 else 1.0

    @property
    def n_buckets(self) -> int:
        return len(self._counts)

    def observe(self, value: float) -> bool:
        idx = self._bucket(value)
        self._counts[idx] += 1.0
        self._total += 1.0
        return True

    def probability(self, lo: float, hi: float) -> float:
        clipped_lo = max(lo, self.spec.lo)
        clipped_hi = min(hi, self.spec.hi)
        if clipped_hi <= clipped_lo or self._total <= 0:
            return 0.0
        mass = 0.0
        for idx, count in enumerate(self._counts):
            b_lo = self.spec.lo + idx * self._width
            b_hi = b_lo + self._width
            overlap = min(clipped_hi, b_hi) - max(clipped_lo, b_lo)
            if overlap > 0:
                mass += count * (overlap / self._width)
        return mass / self._total

    def _bucket(self, value: float) -> int:
        if self.spec.span <= 0:
            return 0
        idx = int((value - self.spec.lo) / self._width)
        return min(max(idx, 0), len(self._counts) - 1)


class DistributionSet:
    """All per-attribute distributions the base station maintains.

    One distribution is shared across routing-tree levels (the paper's
    experimental simplification, which "actually biases against" the
    technique — we keep the bias for fidelity).
    """

    def __init__(self, distributions: Mapping[str, Distribution]) -> None:
        self._distributions: Dict[str, Distribution] = dict(distributions)
        #: Bumped whenever an observation changed some estimate, so a cost
        #: derived from these statistics can be stored and told stale.
        #: Readings must therefore arrive through :meth:`observe` here, not
        #: through a member distribution.
        self.version = 0

    @classmethod
    def uniform(cls, specs: Mapping[str, AttributeSpec]) -> "DistributionSet":
        return cls({name: UniformDistribution(spec) for name, spec in specs.items()})

    @classmethod
    def histograms(cls, specs: Mapping[str, AttributeSpec],
                   n_buckets: int = 20) -> "DistributionSet":
        return cls({name: HistogramDistribution(spec, n_buckets)
                    for name, spec in specs.items()})

    def probability(self, attribute: str, lo: float, hi: float) -> float:
        dist = self._distributions.get(attribute)
        if dist is None:
            raise KeyError(f"no distribution for attribute {attribute!r}")
        return dist.probability(lo, hi)

    def observe(self, attribute: str, value: float) -> None:
        dist = self._distributions.get(attribute)
        if dist is not None and dist.observe(value):
            self.version += 1

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._distributions
