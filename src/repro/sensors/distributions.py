"""Attribute-value distributions for selectivity estimation.

The tier-1 cost model needs ``sel(q, N_k)`` — "the percentage of sensor
nodes in N_k whose readings can satisfy the query predicates" (Eq. 1).  The
paper maintains a data distribution per routing-tree level but, "to save
maintenance cost", its experiments use a single distribution for all levels;
we default to the same.

Two estimators are provided:

* :class:`UniformDistribution` — closed-form selectivity under the uniform
  assumption of the paper's worked example;
* :class:`AttributeHistogram` — an equi-width histogram maintained from
  observed readings, the "independent problem studied in other literatures"
  the paper defers to (e.g. model-driven acquisition [3]); the service
  planner's mergeable statistics store keeps the same type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

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


#: Default bucket count for learned and collected attribute histograms.
DEFAULT_BUCKETS = 20


@dataclass
class AttributeHistogram(Distribution):
    """Fixed-bucket equi-width histogram over one attribute's range.

    Integer bucket counts make ``merge`` exact and order-independent.
    ``probability`` smooths with one pseudo-count per bucket, so an empty
    histogram is the uniform assumption.
    """

    name: str
    lo: float
    hi: float
    counts: List[int]

    @classmethod
    def from_spec(cls, spec: AttributeSpec,
                  n_buckets: int = DEFAULT_BUCKETS) -> "AttributeHistogram":
        if n_buckets < 1:
            raise ValueError(f"need at least one bucket (got {n_buckets})")
        return cls(name=spec.name, lo=float(spec.lo), hi=float(spec.hi),
                   counts=[0] * n_buckets)

    @property
    def n_buckets(self) -> int:
        return len(self.counts)

    def observe(self, value: float) -> bool:
        span = self.hi - self.lo
        index = (int((value - self.lo) / span * self.n_buckets)
                 if span > 0 else 0)
        self.counts[max(0, min(index, self.n_buckets - 1))] += 1
        return True

    def probability(self, lo: float, hi: float) -> float:
        """Estimated P(value in [lo, hi]) — monotone in the interval.

        Each bucket contributes its (smoothed) mass times the fraction of
        the bucket the interval overlaps; shrinking ``[lo, hi]`` can only
        shrink every overlap term, so tighter predicates never get larger
        estimates (the property test pins this).
        """
        span = self.hi - self.lo
        if span <= 0:
            return 1.0 if lo <= self.lo <= hi else 0.0
        total = float(sum(self.counts) + self.n_buckets)
        width = span / self.n_buckets
        mass = 0.0
        for j, count in enumerate(self.counts):
            b_lo = self.lo + j * width
            b_hi = self.lo + (j + 1) * width
            overlap = min(hi, b_hi) - max(lo, b_lo)
            if overlap > 0:
                mass += (count + 1) * min(overlap / width, 1.0)
        return min(mass / total, 1.0)

    def merge(self, other: "AttributeHistogram") -> "AttributeHistogram":
        if (self.name, self.lo, self.hi, self.n_buckets) != (
                other.name, other.lo, other.hi, other.n_buckets):
            raise ValueError(
                f"histogram shape mismatch for {self.name!r}: "
                f"[{self.lo}, {self.hi}]x{self.n_buckets} vs "
                f"[{other.lo}, {other.hi}]x{other.n_buckets}")
        return AttributeHistogram(
            name=self.name, lo=self.lo, hi=self.hi,
            counts=[a + b for a, b in zip(self.counts, other.counts)])

    def to_dict(self) -> dict:
        return {"name": self.name, "lo": self.lo, "hi": self.hi,
                "counts": list(self.counts)}

    @classmethod
    def from_dict(cls, payload: dict) -> "AttributeHistogram":
        return cls(name=payload["name"], lo=float(payload["lo"]),
                   hi=float(payload["hi"]),
                   counts=[int(c) for c in payload["counts"]])


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
                   n_buckets: int = DEFAULT_BUCKETS) -> "DistributionSet":
        return cls({name: AttributeHistogram.from_spec(spec, n_buckets)
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
