"""Tests for the bottleneck-attribution layer over DES scenarios."""

import pytest

from repro.hw import default_system
from repro.nn.models import get_model
from repro.perf.analysis import observe
from repro.perf.scenarios import METHODS, simulate_iteration
from repro.perf.workload import make_workload


@pytest.fixture(scope="module")
def workload():
    return make_workload(get_model("gpt2-4.0b"))


@pytest.fixture(scope="module")
def analyses(workload):
    system = default_system(num_csds=10)
    return {method: observe(system, workload, method)
            for method in METHODS}


def test_baseline_bound_by_shared_interconnect(analyses):
    """Fig. 3b's cause: the shared host link is the baseline's limiter."""
    assert analyses["baseline"].bottleneck.name.startswith("host-link")


def test_smartupdate_moves_bottleneck_to_nand(analyses):
    """§IV-A: the bottleneck moves to the per-device flash channels."""
    for method in ("su", "su_o", "su_o_c"):
        assert analyses[method].bottleneck.name.startswith("ssd"), method


def test_smartcomp_sheds_most_shared_link_traffic(analyses):
    base_bytes = analyses["baseline"].shared_link_bytes()
    smart_bytes = analyses["su_o_c"].shared_link_bytes()
    # Table I: from 8M+8M down to ~2M + c% x 2M.
    assert smart_bytes < 0.2 * base_bytes


def test_breakdown_matches_simulate_iteration(workload):
    system = default_system(num_csds=6)
    analysis = observe(system, workload, "su_o")
    direct = simulate_iteration(system, workload, "su_o")
    assert analysis.breakdown.total == pytest.approx(direct.total)


def test_tag_bytes_account_known_flows(analyses):
    tags = analyses["su_o_c"].tag_bytes
    assert "grad-offload" in tags
    assert "masters-up" in tags
    assert tags["masters-up"] > tags["grad-offload"]  # compression


def test_channel_lookup(analyses):
    analysis = analyses["baseline"]
    assert analysis.channel("cpu-updater").bytes_total > 0
    with pytest.raises(KeyError):
        analysis.channel("warp-core")


def test_render_mentions_bottleneck(analyses):
    text = analyses["baseline"].render()
    assert "bottleneck" in text
    assert "host-link" in text


def test_quantized_upstream_method_reduces_upstream(workload):
    system = default_system(num_csds=10)
    plain = observe(system, workload, "su_o_c")
    quant = observe(system, workload, "su_o_c_q")
    assert quant.tag_bytes["masters-up"] == pytest.approx(
        plain.tag_bytes["masters-up"] / 4, rel=0.01)
    assert quant.breakdown.total <= plain.breakdown.total
