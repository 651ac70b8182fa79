"""Tests for the per-channel summaries over simulated channels."""

import pytest

from repro.sim import (Channel, Simulator, summarize_channels,
                       traffic_by_tag)


def make_activity():
    sim = Simulator()
    fast = Channel(sim, "fast", bandwidth=100.0)
    slow = Channel(sim, "slow", bandwidth=10.0)
    fast.transfer(100.0, tag="a")   # busy [0, 1]
    slow.transfer(100.0, tag="b")   # busy [0, 10]
    slow.transfer(50.0, tag="a")    # busy [10, 15]
    sim.run()
    return sim, fast, slow


def test_summaries_sorted_by_busy_time():
    _sim, fast, slow = make_activity()
    summaries = summarize_channels([fast, slow])
    assert summaries[0].name == "slow"
    assert summaries[0].busy_time == pytest.approx(15.0)
    assert summaries[1].busy_time == pytest.approx(1.0)


def test_summary_achieved_bandwidth():
    _sim, fast, _slow = make_activity()
    summary = summarize_channels([fast])[0]
    assert summary.achieved_bandwidth == pytest.approx(100.0)
    assert summary.utilization == pytest.approx(1.0 / 15.0)


def test_traffic_by_tag_aggregates_across_channels():
    _sim, fast, slow = make_activity()
    totals = traffic_by_tag([fast, slow])
    assert totals["a"] == pytest.approx(150.0)
    assert totals["b"] == pytest.approx(100.0)
