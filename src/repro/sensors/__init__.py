"""Synthetic sensed environment and data-distribution statistics (S2)."""

from .distributions import (
    AttributeHistogram,
    Distribution,
    DistributionSet,
    UniformDistribution,
)
from .field import (
    AttributeSpec,
    CorrelatedModel,
    LIGHT_RANGE,
    SensorWorld,
    TEMP_RANGE,
    UniformModel,
    standard_attributes,
)
from .sampler import Sampler

__all__ = [
    "AttributeHistogram",
    "AttributeSpec",
    "CorrelatedModel",
    "Distribution",
    "DistributionSet",
    "LIGHT_RANGE",
    "Sampler",
    "SensorWorld",
    "TEMP_RANGE",
    "UniformDistribution",
    "UniformModel",
    "standard_attributes",
]
