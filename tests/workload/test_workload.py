"""Workload generation: Zipf sampling, Poisson arrivals, traces."""

from collections import Counter

import pytest

from repro.media import uniform_catalog
from repro.sim import RandomSource
from repro.workload import PoissonArrivals, WorkloadGenerator, ZipfSampler


class TestZipfSampler:
    def test_pmf_sums_to_one(self):
        sampler = ZipfSampler(10, theta=1.0)
        assert sum(sampler.pmf()) == pytest.approx(1.0)

    def test_rank_skew(self):
        sampler = ZipfSampler(5, theta=1.0)
        assert sampler.probability(0) / sampler.probability(4) == \
            pytest.approx(5.0)

    def test_theta_zero_is_uniform(self):
        sampler = ZipfSampler(4, theta=0.0)
        assert sampler.pmf() == pytest.approx([0.25] * 4)

    def test_samples_match_pmf_roughly(self):
        sampler = ZipfSampler(5, theta=1.0, rng=RandomSource(1))
        draws = sampler.sample_many(20_000)
        freq0 = draws.count(0) / len(draws)
        assert freq0 == pytest.approx(sampler.probability(0), abs=0.02)

    def test_samples_in_range(self):
        sampler = ZipfSampler(5, theta=1.2, rng=RandomSource(2))
        assert all(0 <= r < 5 for r in sampler.sample_many(1000))

    def test_determinism(self):
        a = ZipfSampler(5, 1.0, RandomSource(3)).sample_many(10)
        b = ZipfSampler(5, 1.0, RandomSource(3)).sample_many(10)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(3, theta=-0.5)
        with pytest.raises(IndexError):
            ZipfSampler(3).probability(3)


class TestPoissonArrivals:
    def test_mean_rate_respected(self):
        arrivals = PoissonArrivals(rate_per_s=2.0, rng=RandomSource(1))
        times = list(arrivals.times_until(5000.0))
        assert len(times) / 5000.0 == pytest.approx(2.0, rel=0.05)

    def test_times_sorted_and_bounded(self):
        arrivals = PoissonArrivals(0.5, RandomSource(2))
        times = list(arrivals.times_until(100.0))
        assert times == sorted(times)
        assert all(0 < t < 100.0 for t in times)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)
        with pytest.raises(ValueError):
            list(PoissonArrivals(1.0).times_until(0.0))


class TestWorkloadGenerator:
    def test_trace_is_time_ordered(self):
        catalog = uniform_catalog(5, 0.1875, 10)
        generator = WorkloadGenerator(catalog, arrival_rate_per_s=1.0, seed=1)
        trace = generator.trace(100.0)
        times = [r.arrival_time_s for r in trace]
        assert times == sorted(times)
        assert all(r.object_name in catalog for r in trace)

    def test_popular_objects_requested_more(self):
        catalog = uniform_catalog(5, 0.1875, 10)
        generator = WorkloadGenerator(catalog, arrival_rate_per_s=5.0,
                                      zipf_theta=1.0, seed=2)
        mix = Counter(r.object_name for r in generator.trace(2000.0))
        assert mix["object-0"] > mix["object-4"]

    def test_arrival_cycle_mapping(self):
        from repro.workload import StreamRequest
        request = StreamRequest(10.0, "m")
        assert request.arrival_cycle(0.25) == 40
        with pytest.raises(ValueError):
            request.arrival_cycle(0.0)

    def test_empty_catalog_rejected(self):
        from repro.media import Catalog
        with pytest.raises(ValueError):
            WorkloadGenerator(Catalog(), 1.0)

    def test_determinism(self):
        catalog = uniform_catalog(3, 0.1875, 10)
        a = WorkloadGenerator(catalog, 1.0, seed=5).trace(50.0)
        b = WorkloadGenerator(catalog, 1.0, seed=5).trace(50.0)
        assert a == b
