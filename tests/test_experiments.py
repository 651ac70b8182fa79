"""Shape checks for every paper experiment.

Heavy experiments run here with reduced settings; the full configurations
are what ``tests/test_golden_results.py`` holds ``results/`` to.  Each test
asserts the *qualitative* result the paper reports — who wins, where things
saturate, what stays equal — and reads every band from
:data:`repro.experiments.PAPER_TARGETS`.
"""

import collections
import dataclasses
import functools
import inspect

import pytest

from repro.experiments import (ALL_EXPERIMENTS, PAPER_TARGETS, REGISTRY,
                               paper, write_results)
from repro.nn.models import get_model
from repro.perf.cost import cost_efficiency
from repro.runtime import expected_traffic
from repro.runtime.partition import distribute_shards


@functools.lru_cache(maxsize=None)
def _run(experiment_id):
    return REGISTRY[experiment_id].run()


def _holds(name, result, scope="all"):
    """Every value of target ``name`` in ``scope`` sits in its band."""
    low, high = PAPER_TARGETS[name].bands[scope]
    values = PAPER_TARGETS[name].scoped(result, scope)
    assert values and all(low <= value <= high
                          for value in values.values()), (
        name, scope, (low, high), values)


def _nondecreasing(values, slack=1e-9):
    return all(later >= earlier - slack
               for earlier, later in zip(values, values[1:]))


def test_registry_covers_all_evaluation_artifacts():
    assert set(ALL_EXPERIMENTS) == {
        "fig3", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
        "fig15", "fig16", "fig17", "table1", "table3", "table4"}


def test_fig3_update_dominates_and_raid_saturates():
    result = _run("fig3")
    for name in ("fig3.update_share", "fig3.saturation", "fig3.plateau"):
        _holds(name, result)
    # Speedup is monotone non-decreasing and capped (the plateau band).
    times = [result.cell(model="gpt2-4.0b", devices=n).total
             for n in range(1, 11)]
    assert _nondecreasing([times[0] / t for t in times])
    assert "Fig 3(a)" in result.render()


def test_table1_measured_equals_closed_form():
    result = _run("table1")
    measured = dict(result.functional)
    params = measured.pop("P")
    shards = [shard.count for shard in distribute_shards(params, 3)]
    assert measured == {method: expected_traffic(
        params, method, shard_sizes=shards if method == "smartcomp"
        else None) for method in paper.TABLE1_METHODS}
    # 8M / 8M for the baseline; 2M / 2M for SmartUpdate.
    p = get_model("gpt2-4.0b").num_parameters
    analytic = {method: expected_traffic(p, method)
                for method in paper.TABLE1_METHODS}
    assert analytic["baseline"]["host_reads"] == 16 * p
    assert analytic["smartupdate"]["host_reads"] == 4 * p
    assert analytic["smartcomp"]["host_writes"] < analytic[
        "smartupdate"]["host_writes"] * 0.03
    # SmartUpdate removes 75% of the baseline's host traffic.
    base, smart = analytic["baseline"], analytic["smartupdate"]
    assert (base["host_reads"] + base["host_writes"]) / (
        smart["host_reads"] + smart["host_writes"]) == 4.0
    assert "Table I" in result.render()


def test_table3_matches_paper_within_tolerance():
    """Every estimated cell within 0.05 pp of the printed one."""
    result = _run("table3")
    names = [name for name in PAPER_TARGETS if name.startswith("table3.")]
    assert len(names) == 8
    for name in names:
        _holds(name, result)
    assert "Table III" in result.render()


def test_fig9_reduced_grid_orders_methods():
    result = _run("fig9")
    for num_ssds in (6, 10):
        su, su_o, su_o_c = (
            result.speedup(model="gpt2-8.4b", devices=num_ssds, method=m)
            for m in ("su", "su_o", "su_o_c"))
        assert 1.0 < su < su_o < su_o_c
    _holds("fig9.su_o_c@10", result, "gpt2-8.4b")
    assert "Fig 9" in result.render()


def test_fig9_full_grid_stays_in_the_paper_bands():
    """Paper: SU 1.18-1.24 @6 and 1.54-1.60 @10; SU+O up to 1.60-1.66
    @10; SU+O+C 1.85-1.98 @10 — with modelling margin, on the grid
    ``results/fig09_ablation.txt`` records."""
    result = _run("fig9")
    for name in ("fig9.su@6", "fig9.su@10", "fig9.su_o@10",
                 "fig9.su_o_c@10", "fig9.update_share"):
        _holds(name, result)
    # "Almost identical" across models: a tight spread, same ordering.
    _holds("fig9.spread", result)
    for num_ssds in (6, 10):
        for model in paper.GRID_MODELS:
            assert (result.speedup(model=model, devices=num_ssds,
                                   method="su")
                    < result.speedup(model=model, devices=num_ssds,
                                     method="su_o")
                    < result.speedup(model=model, devices=num_ssds,
                                     method="su_o_c"))


def test_fig10_stable_speedup_on_large_models():
    result = _run("fig10")
    for name in ("fig10.spread", "fig10.su_o_c@6", "fig10.su_o_c@10"):
        _holds(name, result)
    for model in paper.LARGE_MODELS:
        assert result.speedup(model=model, devices=10, method="su_o_c") > (
            result.speedup(model=model, devices=6, method="su_o_c"))
    assert "Fig 10" in result.render()


def test_fig11_baseline_saturates_smart_scales():
    result = _run("fig11")
    for gpu in ("a5000", "a100"):
        # Throughput normalized to the 1-SSD baseline's.
        reference = result.cell(gpu=gpu, devices=1, method="baseline").total
        base, smart = ([reference / result.cell(gpu=gpu, devices=n,
                                                method=method).total
                        for n in range(1, 11)]
                       for method in ("baseline", "su_o_c"))
        # Baseline gains < 3% from 6 to 10 devices.
        assert base[-1] <= base[5] * 1.03
        # Monotone growth, and 10 devices beat 5 by a wide margin.
        assert _nondecreasing(smart, slack=1e-6)
        assert smart[9] > 1.5 * smart[4]
    assert result.speedup(gpu="a100", devices=10, method="su_o_c") > (
        result.speedup(gpu="a5000", devices=10, method="su_o_c"))
    _holds("fig11.a100@10", result)
    assert "Fig 11" in result.render()


def test_fig12_adam_gains_most():
    result = _run("fig12")
    speedups = {(optimizer, n): result.speedup(optimizer=optimizer,
                                               devices=n, method="su_o_c")
                for optimizer in paper.OPTIMIZERS for n in (6, 10)}
    # Adam's extra state volume means the largest speedup (paper).
    assert all(speedups["adam", n] >= speedups[other, n]
               for other in ("sgd", "adagrad") for n in (6, 10))
    assert {optimizer: paper.Point("gpt2-4.0b", 6, "su_o_c",
                                   optimizer=optimizer).workload()
            .states_per_param for optimizer in paper.OPTIMIZERS} == {
                "adam": 3, "sgd": 2, "adagrad": 2}
    assert all(value > 1.0 for value in speedups.values())
    assert speedups["sgd", 10] > speedups["sgd", 6]
    assert "Fig 12" in result.render()


def test_fig13_other_families_speed_up_and_train():
    result = _run("fig13")
    _holds("fig13.su_o_c", result)
    assert set(result.functional) == {"bloom-tiny", "vit-tiny"}
    for losses in result.functional.values():
        assert losses["last"] < losses["first"]
    assert "BLOOM" in result.render()


def test_fig14_throughput_hierarchy():
    """The updater outruns SSD read and write, the decompressor covers
    read, and in the attributed SU+O+C step neither FPGA engine is
    busier than device 0's NAND read channel, phased or interleaved."""
    modules = paper._fpga_modules()
    assert modules["updater"] > max(modules["ssd_read"],
                                    modules["ssd_write"])
    assert modules["decompressor"] >= modules["ssd_read"]
    occupancy = {name: busy for name, *busy in paper._occupancy(
        _run("fig14"))}
    assert len(occupancy) == 4
    for engine in ("csd0-updater", "csd0-decompressor"):
        assert all(busy <= nand for busy, nand in zip(
            occupancy[engine], occupancy["ssd0-read"]))
    assert paper.SWEEPS["fig14"].panels[0].title == "Fig 14 (hardware model)"


def test_fig15_smart_rises_and_wins_at_scale():
    result = _run("fig15")

    def gflops_per_dollar(method):
        return [cost_efficiency(point.system(), point.workload(), method,
                                result.cell(devices=point.devices,
                                            method=method)).gflops_per_dollar
                for point in paper.grid(model=("gpt2-4.0b",),
                                        devices=range(1, 11),
                                        method=(method,))]

    smart = gflops_per_dollar("su_o_c")
    base = gflops_per_dollar("baseline")
    # Smart-Infinity's efficiency keeps growing with devices while the
    # baseline's plateaus; at >= 6 devices smart clearly wins.
    assert smart[9] > smart[5] > smart[2]
    assert base[9] <= base[5] * 1.05
    _holds("fig15.smart_wins_from", result)
    assert "Fig 15" in result.render()


def test_fig16_ratio_tradeoff():
    result = _run("fig16")
    base = result.cell(method="baseline", ratio=0.02).total
    uncompressed = base / result.cell(method="su_o", ratio=0.02).total
    speedups = [base / result.cell(method="su_o_c", ratio=ratio).total
                for ratio in sorted(paper.RATIOS)]
    # Compression always helps, and a smaller ratio never loses to a
    # larger one (within the sweep).
    assert all(value >= uncompressed for value in speedups)
    assert _nondecreasing(speedups[::-1])
    assert "Fig 16" in result.render()


def test_fig17_congested_topology_still_wins_but_less():
    result = _run("fig17")
    _holds("fig17.su_o_c", result)
    # gpus=0: the default topology's GPT-2 1.16B SU+O+C cell at 10 CSDs.
    default_speedup = result.speedup(gpus=0, method="su_o_c")
    for num_gpus in (1, 2, 3):
        assert result.speedup(gpus=num_gpus, method="su_o_c") < (
            default_speedup)
        # Congestion shows up in BW+Grad, not in the update phase.
        assert (result.cell(gpus=num_gpus, method="su_o_c").backward_grad
                < result.cell(gpus=num_gpus,
                              method="baseline").backward_grad)
    assert "Fig 17" in result.render()


def _accuracy_drop(accuracies, method):
    """Mean dev-accuracy drop of ``method`` against the baseline's."""
    base = accuracies["baseline"]
    return sum(base[task] - accuracies[method][task]
               for task in base) / len(base)


def test_table4_su_exact_and_compression_mild():
    """One task, two epochs, three methods through Table IV's hook; the
    speedup column is the row's DES cells (no fine-tune runs for it)."""
    accuracies = paper.finetune_glue(tasks=("sst2",), epochs=2,
                                     methods=("baseline", "su_o", "comp_2"))
    assert accuracies["su_o"] == accuracies["baseline"]
    # Lossy 2% compression may drop accuracy, but not catastrophically.
    assert _accuracy_drop(accuracies, "comp_2") < 0.25
    # Speedup column: compression speeds up over SU+O for each checkpoint.
    speedups = paper._finetune_speedups(_run("table4"))
    for model in paper.FINETUNE_MODELS:
        assert speedups[model, "comp_2"] > speedups[model, "su_o"] > 1.0
    assert "Table IV" in paper.SWEEPS["table4"].panels[1].title


@pytest.mark.exhaustive
def test_table4_full_configuration():
    """All four tasks, three epochs, every ratio (~30 s): the run
    ``results/table4_finetune.txt`` records."""
    result = _run("table4")
    accuracies = result.functional
    assert accuracies["su_o"] == accuracies["baseline"]
    for method in paper.COMPRESSED:
        assert _accuracy_drop(accuracies, method) < 0.15, method
    # Compression adds speedup over SU+O; milder ratios sit between.
    speedups = paper._finetune_speedups(result)
    for model in paper.FINETUNE_MODELS:
        assert speedups[model, "comp_1"] >= speedups[
            model, "comp_10"] > speedups[model, "su_o"]
    _holds("table4.speedup", result)


def test_ext_bottlenecks_tells_the_papers_causal_story():
    analyses = _run("ext_bottlenecks").analyses
    assert analyses["baseline"].bottleneck.name.startswith("host-link")
    assert all(analyses[method].bottleneck.name.startswith("ssd")
               for method in ("su", "su_o", "su_o_c"))
    # SU+O+C leaves under 20% of the baseline's shared-link bytes.
    assert (analyses["su_o_c"].shared_link_bytes()
            / analyses["baseline"].shared_link_bytes()) < 0.2


def test_ext_csd_sensitivity_faster_internal_path_helps():
    """The baseline is pinned at the shared link no matter how fast the
    flash gets (§VIII-C), so a faster CSD buys more speedup."""
    from repro.hw.catalog import get_csd

    result = _run("ext_csd_sensitivity")
    speedups = {name: result.speedup(csd=name, method="su_o_c")
                for name in paper.PRODUCTS}
    by_bandwidth = sorted(speedups,
                          key=lambda n: get_csd(n).p2p_read_bandwidth)
    assert _nondecreasing([speedups[name] for name in by_bandwidth])
    assert speedups["gen5"] > speedups["smartssd"]
    _holds("ext_csd_sensitivity.su_o_c", result)


def test_target_residual_is_zero_inside_the_printed_band():
    target = PAPER_TARGETS["fig9.su@6"]
    assert target.paper == (1.18, 1.24)
    assert target.residual([1.20, 1.24]) == 0
    assert target.residual([1.10, 1.20]) == pytest.approx(-0.08)
    assert target.residual([1.20, 1.30, 1.15]) == pytest.approx(0.06)
    assert PAPER_TARGETS["fig9.spread"].residual([0.1]) is None


def test_design_experiment_index_names_modules_that_exist():
    """Every module DESIGN.md §4's Modules column names imports as
    ``repro.<name>``."""
    import importlib
    import re
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "DESIGN.md").read_text()
    section = text.split("## 4.", 1)[1].split("\n## ", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines()
            if line.startswith("| ") and not line.startswith("| ID ")]
    names = {name for row in rows for name in re.findall(r"`([^`]+)`",
                                                          row[3])}
    assert len(rows) >= 20 and "experiments.paper" in names
    for name in sorted(names):
        importlib.import_module(f"repro.{name}")


def test_every_target_names_a_sweep_and_ordered_bands():
    """Each target reads a registry row; every registry entry is called
    the one way ``write_results`` calls it, ``run(memo)``."""
    for name, target in PAPER_TARGETS.items():
        assert isinstance(REGISTRY.get(target.figure), paper.Sweep), name
        assert "all" in target.bands, name
        for low, high in target.bands.values():
            assert low < high, name
    for experiment_id, entry in REGISTRY.items():
        assert list(inspect.signature(entry.run).parameters) == ["memo"], (
            experiment_id)
        assert entry.RESULT_STEM, experiment_id
    assert "isinstance" not in inspect.getsource(write_results)


def test_scoring_the_targets_starts_no_fine_tune(monkeypatch):
    """``paper.run()`` reads DES cells (and Table III's estimator), never
    a fine-tune: with Table IV's and §VIII-B's hooks, and every engine,
    refusing to run, every target still scores."""
    def refuse(*args, **kwargs):
        raise AssertionError("scoring the targets started a fine-tune")

    for figure in ("table4", "ext_modelcomp"):
        monkeypatch.setitem(paper.SWEEPS, figure, dataclasses.replace(
            paper.SWEEPS[figure], hook=refuse))
    monkeypatch.setattr(paper, "create_engine", refuse)
    values = paper.run().values
    assert {name for name, _scope in values} == set(PAPER_TARGETS)
    with pytest.raises(AssertionError, match="fine-tune"):
        paper.SWEEPS["table4"].run().render()


def test_ext_modelcomp_quantized_upstream_is_modelled_faster():
    result = _run("ext_modelcomp")
    assert result.speedup(method="su_o_c_q") >= result.speedup(
        method="su_o_c") > 1.0


@pytest.mark.exhaustive
def test_ext_modelcomp_quantized_upstream_and_pruning():
    runs = _run("ext_modelcomp").functional
    # CSD-side int8 quantization cuts upstream host reads ~4x without
    # wrecking fine-tuning accuracy (the straight-through estimator).
    assert runs["fp32"]["upstream"] > 3.5 * runs["int8"]["upstream"]
    assert runs["int8"]["accuracy"] > runs["fp32"]["accuracy"] - 0.10
    # Pruned fine-tuning keeps the mask and still reaches useful accuracy.
    assert runs["pruned-50%"]["zeros"] >= 0.45
    assert runs["pruned-50%"]["accuracy"] > 0.5


def test_one_registry_run_simulates_each_point_once(monkeypatch, tmp_path):
    """``write_results`` shares one memo across its experiments: the
    cells fig11 and fig12 both read are simulated once, and a repeated
    sweep (its kernel-check hook included) runs once.  The next call
    starts from nothing, so no cell outlives the run that made it."""
    simulated, checks = collections.Counter(), []
    simulate, check = paper.Point.simulate, paper.sanity_check_updater

    def counted_simulate(point):
        simulated[point] += 1
        return simulate(point)

    def counted_check(*args, **kwargs):
        checks.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(paper.Point, "simulate", counted_simulate)
    monkeypatch.setattr(paper, "sanity_check_updater", counted_check)
    fig11, fig12 = paper.SWEEPS["fig11"], paper.SWEEPS["fig12"]
    write_results(str(tmp_path), ["fig11", "fig12", "fig12"])
    shared = set(fig11.points) & set(fig12.points)
    assert shared and set(simulated.values()) == {1}
    assert set(simulated) == set(fig11.points) | set(fig12.points)
    assert len(checks) == len(paper.OPTIMIZERS)
    write_results(str(tmp_path), ["fig12"])
    assert all(simulated[point] == 2 for point in fig12.points)
    assert len(checks) == 2 * len(paper.OPTIMIZERS)
