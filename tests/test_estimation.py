"""Unit tests for the density-estimation substrate."""

import numpy as np
import pytest

from repro.core import build_uniform_model
from repro.distributions import PowerLaw, TruncatedNormal, Uniform
from repro.estimation import (
    HistogramEstimator,
    KernelDensityEstimate,
    random_walk_sample,
    silverman_bandwidth,
    uniform_id_sample,
)


class TestHistogramEstimator:
    def test_fit_returns_piecewise_distribution(self, rng):
        est = HistogramEstimator(n_bins=16)
        dist = est.fit(rng.random(500))
        assert dist.cdf(1.0) == pytest.approx(1.0)
        assert dist.n_cells == 16

    def test_recovers_skewed_cdf(self, rng):
        truth = PowerLaw(alpha=1.5, shift=1e-2)
        est = HistogramEstimator(n_bins=64).fit(truth.sample(20_000, rng))
        grid = np.linspace(0.05, 0.95, 19)
        err = np.max(np.abs(np.asarray(est.cdf(grid)) - np.asarray(truth.cdf(grid))))
        assert err < 0.03

    def test_incremental_observation(self, rng):
        est = HistogramEstimator(n_bins=8)
        est.observe(rng.random(100))
        est.observe(rng.random(100))
        assert est.n_observed == 200

    def test_smoothing_keeps_support_full(self):
        est = HistogramEstimator(n_bins=4, smoothing=0.5)
        est.observe([0.1, 0.12])  # only the first bin sees data
        dist = est.distribution()
        assert dist.pdf(0.9) > 0.0

    def test_empty_estimator_is_uniformish(self):
        dist = HistogramEstimator(n_bins=4).distribution()
        assert dist.cdf(0.5) == pytest.approx(0.5)

    def test_observe_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            HistogramEstimator().observe([1.5])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HistogramEstimator(n_bins=0)
        with pytest.raises(ValueError):
            HistogramEstimator(smoothing=-1.0)


class TestKDE:
    def test_is_valid_distribution(self, rng):
        kde = KernelDensityEstimate(rng.random(200))
        assert kde.cdf(0.0) == pytest.approx(0.0, abs=1e-9)
        assert kde.cdf(1.0) == pytest.approx(1.0, abs=1e-9)
        grid = np.linspace(0.01, 0.99, 21)
        assert np.all(np.diff(np.asarray(kde.cdf(grid))) >= 0)

    def test_pdf_integrates_to_one(self, rng):
        kde = KernelDensityEstimate(rng.random(100), bandwidth=0.05)
        mid = (np.arange(2000) + 0.5) / 2000
        assert float(np.asarray(kde.pdf(mid)).mean()) == pytest.approx(1.0, rel=0.01)

    def test_recovers_mode(self, rng):
        truth = TruncatedNormal(mu=0.3, sigma=0.05)
        kde = KernelDensityEstimate(truth.sample(2000, rng))
        assert kde.pdf(0.3) > kde.pdf(0.7) * 3

    def test_silverman_positive(self, rng):
        assert silverman_bandwidth(rng.random(50)) > 0

    def test_silverman_degenerate_sample(self):
        assert silverman_bandwidth(np.full(10, 0.5)) > 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KernelDensityEstimate([])

    def test_rejects_bad_bandwidth(self, rng):
        with pytest.raises(ValueError):
            KernelDensityEstimate(rng.random(10), bandwidth=0.0)


class TestSampling:
    def test_uniform_id_sample_from_population(self, rng):
        ids = np.linspace(0.0, 0.99, 100)
        samples = uniform_id_sample(ids, 500, rng)
        assert len(samples) == 500
        assert set(np.round(samples, 6)) <= set(np.round(ids, 6))

    def test_uniform_id_sample_empty_raises(self, rng):
        with pytest.raises(ValueError):
            uniform_id_sample(np.array([]), 10, rng)

    def test_random_walk_returns_graph_ids(self, rng):
        graph = build_uniform_model(n=64, rng=rng)
        samples = random_walk_sample(graph, 50, rng, walk_length=5)
        assert len(samples) == 50
        assert set(np.round(samples, 9)) <= set(np.round(graph.ids, 9))

    def test_random_walk_zero_length_stays_at_start(self, rng):
        graph = build_uniform_model(n=32, rng=rng)
        samples = random_walk_sample(graph, 20, rng, walk_length=0, start=3)
        assert np.allclose(samples, graph.ids[3])

    def test_random_walk_rejects_negative(self, rng):
        graph = build_uniform_model(n=16, rng=rng)
        with pytest.raises(ValueError):
            random_walk_sample(graph, -1, rng)
        with pytest.raises(ValueError):
            random_walk_sample(graph, 5, rng, walk_length=-1)
