"""Tests for the central SoC configuration."""

import pytest

from repro.params import FPGA_CONFIG, SoCConfig


def test_defaults_match_table2():
    cfg = FPGA_CONFIG
    assert cfg.num_cores == 2
    assert cfg.l1_size == 8 * 1024 and cfg.l1_ways == 4 and cfg.l1_latency == 2
    assert cfg.l2_size == 64 * 1024 and cfg.l2_ways == 8 and cfg.l2_latency == 30
    assert cfg.dram_latency == 300
    assert cfg.maple_instances == 1
    assert cfg.scratchpad_bytes == 1024
    assert cfg.maple_tlb_entries == 16 == cfg.core_tlb_entries


def test_queue_entries_derived_from_tapeout_geometry():
    # 1KB / 8 queues / 4B = 32 entries (§5.3).
    assert SoCConfig().queue_entries == 32
    assert SoCConfig(scratchpad_bytes=2048).queue_entries == 64
    assert SoCConfig(queue_entry_bytes=8).queue_entries == 16


def test_words_per_line():
    assert SoCConfig().words_per_line == 8


def test_with_overrides_returns_new_frozen_config():
    cfg = SoCConfig()
    other = cfg.with_overrides(num_cores=8)
    assert other.num_cores == 8
    assert cfg.num_cores == 2
    with pytest.raises(Exception):
        cfg.num_cores = 4  # frozen


def test_validation_rejects_bad_geometry():
    with pytest.raises(ValueError):
        SoCConfig(line_size=48)
    with pytest.raises(ValueError):
        SoCConfig(l1_size=1000)
    with pytest.raises(ValueError):
        SoCConfig(l2_size=1000)
    with pytest.raises(ValueError):
        SoCConfig(page_size=100)
    with pytest.raises(ValueError):
        SoCConfig(scratchpad_bytes=1000, maple_num_queues=3)
