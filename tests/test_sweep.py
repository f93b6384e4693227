"""Tests for the parameter sweeps."""

from repro.sim.sweep import (
    sweep_powerchop_thresholds,
    sweep_signature_lengths,
    sweep_timeout_periods,
    sweep_window_sizes,
)
from repro.uarch.config import SERVER


class TestSweeps:
    def test_threshold_sweep_monotone_gating(self, tiny_profile):
        records = sweep_powerchop_thresholds(
            SERVER, tiny_profile, (0.0001, 0.9), max_instructions=250_000
        )
        assert len(records) == 2
        # A near-1.0 threshold must gate the VPU at least as much as a
        # near-zero threshold.
        assert records[1]["vpu_gated_frac"] >= records[0]["vpu_gated_frac"]

    def test_window_sweep_records_miss_rate(self, tiny_profile):
        records = sweep_window_sizes(
            SERVER, tiny_profile, (100, 400), max_instructions=200_000
        )
        assert all("pvt_miss_rate" in r for r in records)

    def test_signature_sweep(self, tiny_profile):
        records = sweep_signature_lengths(
            SERVER, tiny_profile, (2, 4), max_instructions=200_000
        )
        assert [r["label"] for r in records] == [
            "signature_length=2",
            "signature_length=4",
        ]

    def test_timeout_sweep_gating_decreases_with_period(self, tiny_profile):
        records = sweep_timeout_periods(
            SERVER, tiny_profile, (500.0, 500_000.0), max_instructions=250_000
        )
        assert records[0]["vpu_gated_frac"] >= records[1]["vpu_gated_frac"]
