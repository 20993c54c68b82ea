"""Density estimation: how peers learn the key distribution ``f``.

Substrate for Section 4.2 (adaptive network construction) and for the
Mercury baseline: estimators turn sampled peer identifiers into
:class:`~repro.distributions.Distribution` objects that plug straight
into :func:`repro.core.build_skewed_model`.
"""

from repro.estimation.histogram import HistogramEstimator
from repro.estimation.kde import KernelDensityEstimate, silverman_bandwidth
from repro.estimation.sampling import random_walk_sample, uniform_id_sample

__all__ = [
    "HistogramEstimator",
    "KernelDensityEstimate",
    "silverman_bandwidth",
    "random_walk_sample",
    "uniform_id_sample",
]
