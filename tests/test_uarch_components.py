"""Unit tests for cache, predictors, line-fill buffer and configuration."""

import pytest

from repro.uarch.cache import L1DCache
from repro.uarch.config import UarchConfig, coffee_lake, preset, preset_names, skylake
from repro.uarch.lfb import LineFillBuffer
from repro.uarch.predictors import (
    BranchTargetBuffer,
    ConditionalBranchPredictor,
    MemoryDisambiguator,
    ReturnStackBuffer,
)


class TestCache:
    def test_miss_then_hit(self):
        cache = L1DCache()
        assert not cache.access(0x10000)
        assert cache.access(0x10000)
        assert cache.access(0x10004)  # same line

    def test_set_mapping(self):
        cache = L1DCache()
        assert cache.set_index(0) == 0
        assert cache.set_index(64) == 1
        assert cache.set_index(64 * 64) == 0  # wraps

    def test_lru_eviction(self):
        cache = L1DCache(num_sets=1, ways=2)
        cache.access(0)
        cache.access(64)
        cache.access(128)  # evicts 0 (LRU)
        assert not cache.contains(0)
        assert cache.contains(64) and cache.contains(128)

    def test_lru_updated_on_hit(self):
        cache = L1DCache(num_sets=1, ways=2)
        cache.access(0)
        cache.access(64)
        cache.access(0)  # refresh 0
        cache.access(128)  # evicts 64 now
        assert cache.contains(0) and not cache.contains(64)

    def test_set_never_exceeds_ways(self):
        cache = L1DCache(num_sets=2, ways=4)
        for i in range(100):
            cache.access(i * 128)  # all map to set 0
        assert all(len(lines) <= 4 for lines in cache.snapshot_tags())

    def test_flush_line(self):
        cache = L1DCache()
        cache.access(0x10040)
        cache.flush_line(0x10040)
        assert not cache.contains(0x10040)

    def test_flush_all(self):
        cache = L1DCache()
        cache.access(0x10040)
        cache.flush_all()
        assert not cache.contains(0x10040)

    def test_prime_probe_empty(self):
        cache = L1DCache()
        cache.prime()
        assert cache.probe() == set()

    def test_prime_probe_detects_access(self):
        cache = L1DCache()
        cache.prime()
        cache.access(0x10000 + 5 * 64)  # set 5
        cache.access(0x10000 + 9 * 64)  # set 9
        assert cache.probe() == {(0x10000 // 64 + 5) % 64, (0x10000 // 64 + 9) % 64}

    def test_probe_aliasing_same_set(self):
        cache = L1DCache()
        cache.prime()
        cache.access(64)
        cache.access(64 + 64 * 64)  # same set, different line
        assert cache.probe() == {1}

    def test_evict_region_and_cached_lines(self):
        cache = L1DCache()
        base = 0x10000
        cache.access(base)
        cache.access(base + 64)
        cache.evict_region(base, 4096)
        assert cache.cached_lines(base, 4096) == set()
        cache.access(base + 3 * 64)
        assert cache.cached_lines(base, 4096) == {3}


class TestConditionalPredictor:
    def test_initial_weakly_not_taken(self):
        predictor = ConditionalBranchPredictor()
        assert predictor.predict(0) is False

    def test_training(self):
        predictor = ConditionalBranchPredictor()
        predictor.update(0, True)
        assert predictor.predict(0) is True  # 1 -> 2
        predictor.update(0, False)
        assert predictor.predict(0) is False

    def test_saturation(self):
        predictor = ConditionalBranchPredictor()
        for _ in range(10):
            predictor.update(0, True)
        predictor.update(0, False)
        assert predictor.predict(0) is True  # 3 -> 2, still taken

    def test_per_pc_isolation(self):
        predictor = ConditionalBranchPredictor()
        predictor.update(0, True)
        assert predictor.predict(1) is False

    def test_reset(self):
        predictor = ConditionalBranchPredictor()
        predictor.update(0, True)
        predictor.reset()
        assert predictor.predict(0) is False


class TestBTBAndRSB:
    def test_btb_last_target(self):
        btb = BranchTargetBuffer()
        assert btb.predict(5) is None
        btb.update(5, 10)
        assert btb.predict(5) == 10
        btb.update(5, 20)
        assert btb.predict(5) == 20

    def test_rsb_lifo(self):
        rsb = ReturnStackBuffer()
        rsb.push(1)
        rsb.push(2)
        assert rsb.pop() == 2
        assert rsb.pop() == 1
        assert rsb.pop() is None

    def test_rsb_bounded(self):
        rsb = ReturnStackBuffer(depth=2)
        rsb.push(1)
        rsb.push(2)
        rsb.push(3)  # drops 1
        assert rsb.pop() == 3
        assert rsb.pop() == 2
        assert rsb.pop() is None


class TestMemoryDisambiguator:
    def test_optimistic_initially(self):
        disambiguator = MemoryDisambiguator()
        assert disambiguator.predict_no_alias(0)

    def test_trained_by_squash(self):
        disambiguator = MemoryDisambiguator()
        disambiguator.predict_no_alias(0)
        disambiguator.update(0, aliased=True)
        assert not disambiguator.predict_no_alias(0)

    def test_decay_re_enables_bypass(self):
        """After a wrong bypass, the counter decays back: bypass, skip,
        bypass, skip ... — a deterministic alternation (needed for
        repeatable traces)."""
        disambiguator = MemoryDisambiguator()
        outcomes = []
        for _ in range(6):
            prediction = disambiguator.predict_no_alias(0)
            outcomes.append(prediction)
            if prediction:
                disambiguator.update(0, aliased=True)
        assert outcomes == [True, False, True, False, True, False]


class TestLFB:
    def test_stale_value_is_newest(self):
        lfb = LineFillBuffer()
        assert lfb.stale_value() is None
        lfb.record(0x100, 1)
        lfb.record(0x140, 2)
        assert lfb.stale_value() == 2

    def test_bounded(self):
        lfb = LineFillBuffer(num_entries=2)
        for i in range(5):
            lfb.record(i, i)
        assert len(lfb) == 2
        assert lfb.entries() == ((3, 3), (4, 4))

    def test_reset(self):
        lfb = LineFillBuffer()
        lfb.record(0, 9)
        lfb.reset()
        assert lfb.stale_value() is None


class TestConfig:
    def test_presets(self):
        assert set(preset_names()) == {
            "skylake",
            "skylake-v4-patched",
            "coffee-lake",
        }
        for name in preset_names():
            assert isinstance(preset(name), UarchConfig)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("alderlake")

    def test_skylake_v4_patch_toggles_bypass(self):
        assert skylake(v4_patch=False).store_bypass
        assert not skylake(v4_patch=True).store_bypass

    def test_skylake_is_mds_vulnerable(self):
        assert skylake().assists_leak_stale_data
        assert not skylake().speculative_stores_update_cache

    def test_coffee_lake_is_mds_patched(self):
        config = coffee_lake()
        assert not config.assists_leak_stale_data  # LVI-Null zeros
        assert config.speculative_stores_update_cache  # §6.4

    def test_division_latency_operand_dependent(self):
        config = skylake()
        fast = config.division_latency(10, 3)
        slow = config.division_latency(1 << 50, 3)
        assert slow > fast
        assert config.division_latency(0, 0) == config.div_base_latency

    def test_with_overrides(self):
        config = skylake().with_overrides(rob_size=100)
        assert config.rob_size == 100
        assert skylake().rob_size == 250  # original untouched

    def test_disambiguation_window_exceeds_miss_latency(self):
        # dependents of a bypassed load must be able to issue before the
        # squash even when the load misses
        config = skylake()
        assert config.disambiguation_penalty > config.load_miss_latency - config.store_agu_latency
