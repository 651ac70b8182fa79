"""The paper's evaluation as data: Tables I, III, IV, Figs. 3, 9-17 and
the §VIII-B and CSD-product extensions are one :class:`Sweep` each (the
points it simulates, each distinct one once, the axes naming its cells,
its panels, and a hook for its functional half).  :data:`PAPER_TARGETS`
holds the paper's printed numbers they regenerate and the tests' band
per scope; :func:`run` prints their residuals."""

from __future__ import annotations

import itertools
import math
import tempfile
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import (Any, Callable, Dict, Iterable, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from ..api import create_engine
from ..compression.topk import compress_topk
from ..csd.hls import sanity_check_updater, updater_design
from ..csd.kernels import DecompressorKernel, UpdaterKernel
from ..hw.catalog import get_csd
from ..hw.fpga import ku15p
from ..hw.gpu import GPUS
from ..hw.topology import congested_system, default_system
from ..nn import functional as F
from ..nn.data import (make_classification_dataset, make_glue_suite,
                       make_lm_dataset)
from ..nn.models import get_model
from ..nn.transformer import (LanguageModel, SequenceClassifier,
                              bert_config, bloom_config, vit_config)
from ..optim import make_optimizer
from ..perf.analysis import observe
from ..perf.cost import cost_efficiency
from ..perf.scenarios import METHODS, PhaseBreakdown, simulate_iteration
from ..perf.workload import make_workload
from ..runtime.engine import TrainingConfig
from ..runtime.stats import expected_traffic
from ..telemetry.attrib import Attribution
from .report import WALLCLOCK, render_table

RESULT_STEM = "paper_targets"

A5000_A100 = ("a5000", "a100")
BASE_SMART = ("baseline", "su_o_c")
NAMES = {"baseline": "baseline", "su_o_c": "smart"}
PHASES = ("{.forward:.2f}", "{.backward_grad:.2f}", "{.update:.2f}",
          "{.total:.2f}")
MOTIVATION_MODELS = ("gpt2-1.16b", "gpt2-4.0b", "gpt2-8.4b")
GRID_MODELS = MOTIVATION_MODELS + ("bert-1.2b", "bert-4.0b", "bert-8.3b")
LARGE_MODELS = ("gpt2-16.6b", "gpt2-24.6b", "gpt2-33.0b")
OPTIMIZERS = ("adam", "sgd", "adagrad")
FAMILY_MODELS = ("bloom-7.1b", "vit-1.9b")
RATIOS = (0.01, 0.02, 0.05, 0.10)
#: By internal read bandwidth, the order the CSD study prints them in.
PRODUCTS = ("noload", "smartssd", "csd3000", "gen5")
TABLE1_METHODS = {"baseline": "ZeRO-Inf", "smartupdate": "SmartUpdate",
                  "smartcomp": "SmartComp (2%)"}
RESOURCES = ("LUT", "BRAM", "URAM", "DSP")
FINETUNE_MODELS = ("bert-0.34b", "gpt2-0.77b", "gpt2-1.6b")
GLUE_TASKS = ("mnli", "qqp", "sst2", "qnli")
#: Table IV's rows: SU+O, then Top-K from the mildest ratio down.
COMPRESSED = {f"comp_{int(ratio * 100)}": ratio for ratio in RATIOS[::-1]}
FINETUNE_METHODS = ("baseline", "su_o", *COMPRESSED)
GB = 1e9


@dataclass(frozen=True)
class Point:
    """One simulated configuration: model, machine, method, options."""

    model: str
    devices: int
    method: str
    gpu: str = "a5000"   # a --gpu name (hw.gpu.GPUS)
    #: GPUs inside the PCIe expansion (Fig. 17); 0: the default machine.
    gpus: int = 0
    csd: str = "smartssd"
    optimizer: str = "adam"
    ratio: float = 0.02
    schedule: str = "phased"
    #: Phases and attribution from the telemetry observers (Figs. 9, 14).
    attributed: bool = False

    def system(self):
        gpu, csd = GPUS[self.gpu](), get_csd(self.csd)
        if self.gpus:
            return congested_system(self.gpus, self.devices, gpu, csd)
        return default_system(self.devices, gpu, csd)

    def workload(self):
        return make_workload(get_model(self.model), optimizer=self.optimizer)

    def simulate(self) -> Tuple[PhaseBreakdown, Optional[Attribution]]:
        system, workload = self.system(), self.workload()
        options = dict(compression_ratio=self.ratio, schedule=self.schedule)
        if not self.attributed:
            return simulate_iteration(system, workload, self.method,
                                      **options), None
        attribution = observe(system, workload, self.method,
                              **options).attribution
        totals = attribution.phase_totals()
        return PhaseBreakdown(*(totals.get(phase, 0.0) for phase in (
            "forward", "backward_grad", "update"))), attribution


def grid(**axes) -> Tuple[Point, ...]:
    """Points over every combination of the field values (sequences)."""
    return tuple(Point(**dict(zip(axes, values)))
                 for values in itertools.product(*(
                     v if isinstance(v, (tuple, list, range)) else (v,)
                     for v in axes.values())))


@dataclass(frozen=True)
class SweepResult:
    """One sweep's cells, keyed by the values of its axes in order."""

    figure: str
    axes: Tuple[str, ...]
    cells: Dict[tuple, PhaseBreakdown]
    #: Attributed cells' attribution (None elsewhere).
    attributions: Dict[tuple, Optional[Attribution]]

    @cached_property
    def functional(self) -> Dict[str, Any]:
        """The sweep's hook, run when first read: a target scored on the
        DES cells starts no fine-tune."""
        return SWEEPS[self.figure].hook() or {}

    def cell(self, **named) -> PhaseBreakdown:
        return self.cells[tuple(named[axis] for axis in self.axes)]

    def speedup(self, **named) -> float:
        """BASE's iteration time over this cell's, all else equal."""
        base = self.cell(**{**named, "method": "baseline"})
        return base.total / self.cell(**named).total

    def render(self) -> str:
        self.functional  # a written result has run its hook (Fig. 12's)
        return "\n\n".join(
            render_table(panel.headers, [
                tuple("" if value is None else fmt.format(value)
                      for fmt, value in zip(panel.formats, row))
                for row in panel.rows(self)], title=panel.title.format(self))
            for panel in SWEEPS[self.figure].panels)


class Panel(NamedTuple):
    """One table: row values go through their column's format, and the
    title through ``str.format`` with the result as ``{0}``."""

    title: str
    headers: Tuple[str, ...]
    formats: Tuple[str, ...]
    rows: Callable[[SweepResult], Iterable[tuple]]


@dataclass(frozen=True)
class Sweep:
    """One table or figure: a registry entry (``RESULT_STEM``, ``run``)."""

    figure: str
    RESULT_STEM: str
    axes: Tuple[str, ...]
    points: Tuple[Point, ...]
    panels: Tuple[Panel, ...]
    #: Functional work besides the DES: the result's ``functional``.
    hook: Callable[[], Optional[Dict[str, Any]]] = dict

    def run(self, memo: Optional["Memo"] = None) -> SweepResult:
        """This figure's result; within one ``memo`` it runs once (its
        hook, when read, too) and shares every cell another sweep
        simulated."""
        memo = memo or Memo()
        if self.figure not in memo.sweeps:
            cells, attributions = {}, {}
            for point in dict.fromkeys(self.points):
                key = tuple(getattr(point, axis) for axis in self.axes)
                cells[key], attributions[key] = memo.simulate(point)
            memo.sweeps[self.figure] = SweepResult(
                self.figure, self.axes, cells, attributions)
        return memo.sweeps[self.figure]


@dataclass
class Memo:
    """What one registry run has computed: each distinct :class:`Point`'s
    simulation and each sweep's result.  Scoped to the run that made it
    (``write_results``, :func:`run`), so a changed model constant is
    never read from an earlier run."""

    cells: Dict[Point, tuple] = field(default_factory=dict)
    sweeps: Dict[str, SweepResult] = field(default_factory=dict)

    def simulate(self, point: Point) -> tuple:
        if point not in self.cells:
            self.cells[point] = point.simulate()
        return self.cells[point]


def _raid0_speedups(r: SweepResult):
    times = [r.cell(model="gpt2-4.0b", devices=n).total for n in range(1, 11)]
    return [times[0] / t for t in times]


def _normalized(r: SweepResult, gpu: str):
    """Fig. 11(a) rows: throughput over the 1-SSD baseline's."""
    reference = r.cell(gpu=gpu, devices=1, method="baseline").total
    for n in range(1, 11):
        base, smart = (reference / r.cell(gpu=gpu, devices=n, method=m).total
                       for m in BASE_SMART)
        yield n, base, smart, smart / base


def _costs(r: SweepResult, devices: int):
    """Fig. 15: (BASE, Smart-Infinity) cost efficiency at a count."""
    return tuple(cost_efficiency(p.system(), p.workload(), p.method,
                                 r.cell(devices=devices, method=p.method))
                 for p in grid(model="gpt2-4.0b", devices=devices,
                               method=BASE_SMART))


def _check_updaters() -> None:
    """Fig. 12's kernels: each updater is element-wise, bit for bit."""
    for name in OPTIMIZERS:
        sanity_check_updater(make_optimizer(name), num_elements=1024,
                             num_steps=2)


def _loss(model, *batch):
    return model.loss(*batch)


def _measure_traffic() -> Dict[str, Any]:
    """Table I's measured half: one step of a tiny transformer through
    each functional engine, its bytes read off the devices' own ledgers
    (``P``: the engines' parameter count)."""
    data = make_classification_dataset(num_train=8, seq_len=16,
                                       vocab_size=32, seed=0)
    measured: Dict[str, Any] = {}
    for method, kind, options in (
            ("baseline", "baseline", dict(raid_members=3)),
            ("smartupdate", "smart", dict(num_csds=3)),
            ("smartcomp", "smart", dict(num_csds=3, compression_ratio=0.02))):
        model = SequenceClassifier(bert_config(
            vocab_size=32, dim=32, num_layers=2, num_heads=2,
            max_seq_len=16), num_classes=3, seed=1)
        with tempfile.TemporaryDirectory() as workdir:
            engine = create_engine(kind, model, _loss, workdir, config=(
                TrainingConfig(optimizer="adam", optimizer_kwargs={"lr": 1e-3},
                               subgroup_elements=4096, **options)))
            traffic = engine.train_step(data.train_tokens[:4],
                                        data.train_labels[:4]).traffic
            measured["P"] = engine.num_params
            measured[method] = {"host_reads": traffic.host_reads,
                                "host_writes": traffic.host_writes}
            engine.close()
    return measured


def _analytic_traffic(model: str = "gpt2-4.0b"):
    """Table I's closed forms, in units of the fp16 model size M."""
    params = get_model(model).num_parameters
    for method, label in TABLE1_METHODS.items():
        traffic = expected_traffic(params, method)
        yield (label, traffic["host_reads"] / (2 * params),
               traffic["host_writes"] / (2 * params))


def _estimate_resources() -> Dict[str, Dict[str, float]]:
    """Table III's functional half: the HLS estimator's utilization (%)."""
    return {design: updater_design("adam", with_decompressor=topk)
            .utilization(ku15p())
            for design, topk in (("adam", False), ("adam+topk", True))}


def _finetune(dataset, kind: str, seed: int, rng_seed: int, epochs: int,
              **options) -> Tuple[float, int, float]:
    """Fine-tune the Table IV / §VIII-B classifier (Adam 5e-3, batches of
    8 drawn by a per-epoch RNG) through one engine: its dev accuracy,
    the last step's upstream bytes and the trained params' zero share."""
    model = SequenceClassifier(bert_config(
        vocab_size=64, dim=48, num_layers=2, num_heads=4,
        max_seq_len=dataset.train_tokens.shape[1]),
        num_classes=dataset.num_classes, seed=seed)
    with tempfile.TemporaryDirectory() as workdir:
        engine = create_engine(kind, model, _loss, workdir, config=(
            TrainingConfig(optimizer="adam", optimizer_kwargs={"lr": 5e-3},
                           subgroup_elements=8192, **options)))
        for epoch in range(epochs):
            for batch in dataset.batches(
                    8, np.random.default_rng(rng_seed + epoch)):
                step = engine.train_step(*batch)
        model.eval()
        accuracy = F.accuracy(model(dataset.dev_tokens), dataset.dev_labels)
        zeros = float((engine.space.gather_params() == 0).mean())
        engine.close()
    return accuracy, step.traffic.host_reads, zeros


def finetune_glue(tasks: Sequence[str] = GLUE_TASKS, epochs: int = 3,
                  methods: Sequence[str] = FINETUNE_METHODS,
                  ) -> Dict[str, Dict[str, float]]:
    """Table IV's functional half: method -> task -> dev accuracy, each
    synthetic GLUE task fine-tuned through the matching engine."""
    suite, accuracies = make_glue_suite(seed=0), {}
    for task in tasks:
        for method in methods:
            kind, options = (("baseline", dict(raid_members=2))
                             if method == "baseline" else ("smart", dict(
                                 num_csds=3,
                                 compression_ratio=COMPRESSED.get(method))))
            accuracies.setdefault(method, {})[task] = _finetune(
                suite[task], kind, seed=0, rng_seed=1000, epochs=epochs,
                **options)[0]
    return accuracies


def _compress_upstream() -> Dict[str, Dict[str, float]]:
    """§VIII-B's functional half: fine-tune with CSD-side int8 upstream
    quantization and with a 50% pruning mask next to plain SU+O+C."""
    dataset = make_classification_dataset(num_train=192, num_dev=96,
                                          seq_len=32, vocab_size=64,
                                          noise=0.03, seed=9)
    return {variant: dict(zip(("accuracy", "upstream", "zeros"), _finetune(
        dataset, "smart", seed=4, rng_seed=50, epochs=5, num_csds=2,
        compression_ratio=0.05, **options)))
        for variant, options in (
            ("fp32", {}),
            ("int8", dict(quantized_upstream=True, quantization_group=1024)),
            ("pruned-50%", dict(pruning_sparsity=0.5)))}


def _finetune_speedups(r: SweepResult) -> Dict[Tuple[str, str], float]:
    """Table IV's speedup column: (checkpoint, method) over BASE @6."""
    labels = {ratio: label for label, ratio in COMPRESSED.items()}
    return {(model, labels[ratio] if method == "su_o_c" else method):
            r.cells[model, "baseline", 0.02].total / cell.total
            for (model, method, ratio), cell in r.cells.items()
            if method != "baseline"}


def _fpga_modules() -> Dict[str, float]:
    """Fig. 14's hardware model: module and SSD bandwidths (bytes/s)."""
    csd = get_csd("smartssd")
    return {"updater": csd.fpga.updater_bandwidth,
            "decompressor": csd.fpga.decompressor_bandwidth,
            "ssd_read": csd.ssd.read_bandwidth,
            "ssd_write": csd.ssd.write_bandwidth}


def _occupancy(r: SweepResult):
    """Fig. 14's consequence: device 0's busy fractions per schedule."""
    phased, interleaved = (r.attributions[schedule,].usage
                           for schedule in ("phased", "interleaved"))
    return [(name, phased[name].utilization, interleaved[name].utilization)
            for name in ("csd0-decompressor", "csd0-updater", "ssd0-read",
                         "ssd0-write")]


def _bytes_per_second(run: Callable[[int], object], nbytes: int,
                      repeats: int = 3) -> float:
    run(1)  # warm-up
    start = time.perf_counter()
    for step in range(2, repeats + 2):
        run(step)
    return nbytes * repeats / (time.perf_counter() - start)


def _time_kernels(num_elements: int = 1 << 21) -> Dict[str, float]:
    """Fig. 14's wall-clock half: the numpy updater's streamed optimizer
    state and the Top-K scatter's dense output, in bytes/s."""
    rng = np.random.default_rng(0)
    updater = UpdaterKernel(make_optimizer("adam", lr=1e-3))
    params = rng.standard_normal(num_elements).astype(np.float32)
    grads = rng.standard_normal(num_elements).astype(np.float32)
    state = updater.optimizer.init_state(num_elements)
    compressed = compress_topk(np.random.default_rng(1).standard_normal(
        num_elements).astype(np.float32), volume_ratio=0.02)
    decompressor = DecompressorKernel()
    output = np.zeros(num_elements, dtype=np.float32)
    return {
        "updater": _bytes_per_second(
            lambda step: updater.run(params, grads, state, step),
            4 * (1 + updater.optimizer.states_per_param) * num_elements),
        "decompressor": _bytes_per_second(
            lambda _step: decompressor.run(compressed, output),
            4 * num_elements)}


def _train_tiny_families() -> Dict[str, Dict[str, float]]:
    """Fig. 13's functional half: tiny BLOOM (ALiBi decoder) and ViT
    (patch-token encoder) train through the Smart-Infinity engine."""
    bloom = LanguageModel(bloom_config(vocab_size=32, dim=32, num_layers=2,
                                       num_heads=2, max_seq_len=16), seed=0)
    tokens = make_lm_dataset(num_sequences=16, seq_len=17, vocab_size=32,
                             seed=2)[:4]
    vit = SequenceClassifier(vit_config(num_patches=16, num_patch_ids=32,
                                        dim=32, num_layers=2, num_heads=2),
                             num_classes=3, seed=0)
    data = make_classification_dataset(num_train=32, seq_len=16,
                                       vocab_size=32, seed=4)
    rng = np.random.default_rng(0)
    losses = {}
    for name, model, batches in (
            ("bloom-tiny", bloom, [(tokens,)] * 12),
            ("vit-tiny", vit, [batch for _epoch in range(4)
                               for batch in data.batches(8, rng)])):
        with tempfile.TemporaryDirectory() as workdir:
            engine = create_engine(
                "smart", model, _loss, workdir,
                config=TrainingConfig(optimizer_kwargs={"lr": 1e-2},
                                      subgroup_elements=4096, num_csds=2))
            steps = [engine.train_step(*batch).loss for batch in batches]
            engine.close()
        losses[name] = {"first": steps[0], "last": steps[-1]}
    return losses


SWEEPS: Dict[str, Sweep] = {sweep.figure: sweep for sweep in (
    Sweep("table1", "table1_traffic", (), (),
          (Panel("Table I (analytic, gpt2-4.0b, M = fp16 model size)",
                 ("method", "SSD read", "SSD write"),
                 ("{}", "{:.2f}M", "{:.2f}M"), lambda r: _analytic_traffic()),
           Panel("Table I (measured, functional engines, P={0.functional[P]})",
                 ("method", "bytes read", "bytes written"), ("{}",) * 3,
                 lambda r: [(label, *r.functional[method].values())
                            for method, label in TABLE1_METHODS.items()])),
          hook=_measure_traffic),
    Sweep("table3", "table3_resources", (), (),
          (Panel("Table III: KU15P resource utilization",
                 ("module", *RESOURCES),
                 ("{}",) + ("{0[0]:.2f}% (paper {0[1]:.2f}%)",) * 4,
                 lambda r: [(design, *((used[resource], PAPER_TARGETS[
                     f"table3.{design}.{resource}"].paper[0])
                     for resource in RESOURCES))
                     for design, used in r.functional.items()]),),
          hook=_estimate_resources),
    Sweep("fig3", "fig03_motivation", ("model", "devices"),
          grid(model=MOTIVATION_MODELS, devices=1, method="baseline")
          + grid(model="gpt2-4.0b", devices=range(1, 11), method="baseline"),
          (Panel("Fig 3(a): baseline breakdown, 1 SSD",
                 ("model", "iter time", "FW", "BW+Grad", "Update+Opt"),
                 ("{}", "{.total:.2f}s", "{[forward]:.1%}",
                  "{[backward_grad]:.1%}", "{[update]:.1%}"),
                 lambda r: [(m, c, *[c.fractions()] * 3)
                            for m in MOTIVATION_MODELS
                            for c in (r.cell(model=m, devices=1),)]),
           Panel("Fig 3(b): RAID0 scaling of baseline",
                 ("#SSDs (RAID0)", "speedup"), ("{}", "{:.2f}x"),
                 lambda r: enumerate(_raid0_speedups(r), 1)))),
    Sweep("fig9", "fig09_ablation", ("model", "devices", "method"),
          grid(model=sorted(GRID_MODELS), devices=(6, 10),
               method=METHODS, attributed=True),
          (Panel("Fig 9: breakdown and speedup over BASE",
                 ("model", "#SSD", "method", "FW", "BW+Grad", "Update",
                  "total", "speedup", "bottleneck"),
                 ("{}", "{}", "{}", *PHASES, "{:.2f}x",
                  "{0.resource} {0.utilization:.0%}"),
                 lambda r: [(m, n, method.upper().replace("_", "+"),
                             *[r.cells[m, n, method]] * 4,
                             r.speedup(model=m, devices=n, method=method),
                             r.attributions[m, n, method].verdict())
                            for m, n, method in r.cells]),)),
    Sweep("fig10", "fig10_large_models", ("model", "devices", "method"),
          grid(model=LARGE_MODELS, devices=(6, 10), method=BASE_SMART),
          (Panel("Fig 10: scalability to larger models",
                 ("model", "#SSD", "BASE iter", "Smart-Infinity iter",
                  "speedup"),
                 ("{}", "{}", "{.total:.1f}s", "{.total:.1f}s", "{:.2f}x"),
                 lambda r: [(m, n, r.cells[m, n, "baseline"], cell,
                             r.speedup(model=m, devices=n, method=method))
                            for (m, n, method), cell in r.cells.items()
                            if method == "su_o_c"]),)),
    Sweep("fig11", "fig11_scaling", ("gpu", "devices", "method"),
          grid(model="gpt2-4.0b", gpu=A5000_A100, devices=range(1, 11),
               method=BASE_SMART),
          tuple(Panel("Fig 11(a): normalized throughput, "
                      + GPUS[gpu]().name,
                      ("#SSDs", "BASE", "Smart-Infinity", "speedup"),
                      ("{}", "{:.2f}", "{:.2f}", "{:.2f}x"),
                      lambda r, gpu=gpu: _normalized(r, gpu))
                for gpu in A5000_A100)
          + (Panel("Fig 11(b): breakdown with 10 SSDs",
                   ("GPU", "method", "FW", "BW+Grad", "Update", "total"),
                   ("{}", "{}", *PHASES),
                   lambda r: [(GPUS[gpu]().name, NAMES[m],
                               *[r.cells[gpu, 10, m]] * 4)
                              for gpu in A5000_A100 for m in BASE_SMART]),)),
    Sweep("fig12", "fig12_optimizers", ("optimizer", "devices", "method"),
          grid(model="gpt2-4.0b", optimizer=OPTIMIZERS, devices=(6, 10),
               method=BASE_SMART),
          (Panel("Fig 12: SmartUpdate with other optimizers",
                 ("optimizer", "fp32 words/param", "speedup @6 SSDs",
                  "speedup @10 SSDs"),
                 ("{}", "{.states_per_param}", "{:.2f}x", "{:.2f}x"),
                 lambda r: [(name, make_optimizer(name), *(r.speedup(
                     optimizer=name, devices=n, method="su_o_c")
                     for n in (6, 10))) for name in OPTIMIZERS]),),
          hook=_check_updaters),
    Sweep("fig13", "fig13_models", ("model", "devices", "method"),
          grid(model=FAMILY_MODELS, devices=(6, 10), method=BASE_SMART),
          (Panel("Fig 13: Smart-Infinity on BLOOM and ViT",
                 ("model", "speedup @6 SSDs", "speedup @10 SSDs"),
                 ("{}", "{:.2f}x", "{:.2f}x"),
                 lambda r: [(m, *(r.speedup(model=m, devices=n,
                                            method="su_o_c") for n in (6, 10)))
                            for m in FAMILY_MODELS]),
           Panel("Functional training through the Smart-Infinity engine",
                 ("tiny model", "first loss", "last loss"),
                 ("{}", "{[first]:.3f}", "{[last]:.3f}"),
                 lambda r: [(name, losses, losses)
                            for name, losses in r.functional.items()])),
          hook=_train_tiny_families),
    Sweep("fig14", "fig14_throughput", ("schedule",),
          grid(model="gpt2-4.0b", devices=10, method="su_o_c",
               schedule=("phased", "interleaved"), attributed=True),
          (Panel("Fig 14 (hardware model)", ("module", "throughput"),
                 ("{}", "{:.2f} GB/s"),
                 lambda r: [(name, value / GB)
                            for name, value in _fpga_modules().items()]),
           Panel("Attributed SU+O+C pipeline occupancy (device 0, busy "
                 "fraction of step)",
                 ("device channel/engine", "phased", "interleaved"),
                 ("{}", "{:.1%}", "{:.1%}"), _occupancy),
           Panel(f"{WALLCLOCK}: functional emulator throughput (numpy)",
                 ("functional kernel", "throughput on this host"),
                 ("{}", "{:.2f} GB/s"),
                 lambda r: [(name, value / GB)
                            for name, value in r.functional.items()])),
          hook=_time_kernels),
    Sweep("fig15", "fig15_cost", ("devices", "method"),
          grid(model="gpt2-4.0b", devices=range(1, 11), method=BASE_SMART),
          (Panel("Fig 15: cost efficiency (GPT-2 4.0B, A5000)",
                 ("#devices", "BASE cost", "BASE GFLOPS/$", "Smart cost",
                  "Smart GFLOPS/$", "winner"),
                 ("{}", *("${.system_cost_usd:,.0f}",
                          "{.gflops_per_dollar:.3f}") * 2, "{}"),
                 lambda r: [(n, base, base, smart, smart,
                             "smart" if smart.gflops_per_dollar
                             > base.gflops_per_dollar else "base")
                            for n in range(1, 11)
                            for base, smart in (_costs(r, n),)]),)),
    Sweep("table4", "table4_finetune", ("model", "method", "ratio"),
          grid(model=FINETUNE_MODELS, devices=6, method=("baseline", "su_o"))
          + grid(model=FINETUNE_MODELS, devices=6, method="su_o_c",
                 ratio=RATIOS),
          (Panel("Table IV: dev accuracy (functional engines, synthetic "
                 "GLUE)", ("method", *GLUE_TASKS),
                 ("{}",) + ("{:.2%}",) * len(GLUE_TASKS),
                 lambda r: [(method, *accuracies.values())
                            for method, accuracies in r.functional.items()]),
           Panel("Table IV: modelled speedup column",
                 ("checkpoint", "method", "speedup @6 SSDs"),
                 ("{}", "{}", "{:.2f}x"),
                 lambda r: [(*key, speedup) for key, speedup in sorted(
                     _finetune_speedups(r).items())])),
          hook=finetune_glue),
    Sweep("fig16", "fig16_ratio", ("method", "ratio"),
          grid(model="gpt2-4.0b", devices=10, method=("baseline", "su_o"))
          + grid(model="gpt2-4.0b", devices=10, method="su_o_c",
                 ratio=RATIOS),
          (Panel("Fig 16: sensitivity to Top-K compression ratio "
                 "(10 SSDs)", ("compression ratio", "speedup over BASE"),
                 ("{}", "{:.2f}x"),
                 lambda r: [("none (SU+O)" if method == "su_o"
                             else f"{ratio:.0%}",
                             r.cells["baseline", 0.02].total / cell.total)
                            for (method, ratio), cell in r.cells.items()
                            if method != "baseline"]),)),
    Sweep("fig17", "fig17_multigpu", ("gpus", "method"),
          grid(model="gpt2-1.16b", devices=10, gpu="a4000",
               gpus=(1, 2, 3), method=BASE_SMART)
          # gpus=0: the default topology, whose speedup Fig. 17's is below
          + grid(model="gpt2-1.16b", devices=10, method=BASE_SMART),
          (Panel("Fig 17: congested multi-GPU topology "
                 "(A4000s in the expansion, 10 CSDs)",
                 ("#GPUs", "method", "FW", "BW+Grad", "Update", "total",
                  "speedup"),
                 ("{}", "{}", *PHASES, "{:.2f}x"),
                 lambda r: [(g, NAMES[m], *[r.cells[g, m]] * 4,
                             r.speedup(gpus=g, method=m)
                             if m == "su_o_c" else None)
                            for g, m in r.cells if g]),)),
    Sweep("ext_modelcomp", "ext_modelcomp", ("method",),
          grid(model="gpt2-8.4b", devices=10,
               method=("baseline", "su_o_c", "su_o_c_q")),
          (Panel("§VIII-B functional: fine-tuning with compressed upstream",
                 ("variant", "dev accuracy", "upstream/iter"),
                 ("{}", "{:.2%}", "{}"),
                 lambda r: [(name, run["accuracy"], "(as fp32)"
                             if name == "pruned-50%"
                             else f"{run['upstream']:,} B")
                            for name, run in r.functional.items()]),
           Panel("§VIII-B modelled: quantized upstream",
                 ("method", "speedup @10 CSDs"), ("{}", "{:.2f}x"),
                 lambda r: [(method, r.speedup(method=method))
                            for method in ("su_o_c", "su_o_c_q")])),
          hook=_compress_upstream),
    Sweep("ext_csd_sensitivity", "ext_csd_sensitivity", ("csd", "method"),
          grid(model="gpt2-8.4b", devices=10, csd=PRODUCTS, method=BASE_SMART),
          (Panel("CSD product sensitivity (GPT-2 8.4B, 10 devices)",
                 ("CSD product", "internal read BW", "Smart iter",
                  "speedup vs BASE"),
                 ("{}", "{:.1f} GB/s", "{.total:.2f}s", "{:.2f}x"),
                 lambda r: [(name, get_csd(name).p2p_read_bandwidth / 1e9,
                             cell, r.speedup(csd=name, method=method))
                            for (name, method), cell in r.cells.items()
                            if method == "su_o_c"]),)),
)}


@dataclass(frozen=True)
class Target:
    """A number the paper prints (``paper``: None if none), the model's
    values, one per label, and a test band per scope ("all" or a label)."""

    name: str
    quantity: str
    printed: str
    paper: Optional[Tuple[float, float]]
    values: Callable[[SweepResult], Dict[str, float]]
    bands: Dict[str, Tuple[float, float]]

    @property
    def figure(self) -> str:
        return self.name.partition(".")[0]

    def scoped(self, result: SweepResult, scope="all") -> Dict[str, float]:
        return {label: value for label, value in self.values(result).items()
                if scope in ("all", label)}

    def residual(self, values: Iterable[float]) -> Optional[float]:
        """Farthest distance outside the printed band (signed, 0 in)."""
        if self.paper is None:
            return None
        low, high = self.paper
        return max((min(value - low, 0) or max(value - high, 0)
                    for value in values), key=abs)


def _speedups(axis: str, keys: Sequence, **fixed):
    return lambda r: {str(key): r.speedup(**{axis: key}, **fixed)
                      for key in keys}


def _spreads(models: Sequence[str]):
    return lambda r: {f"@{n}": max(v) - min(v) for n in (6, 10) for v in (
        [r.speedup(model=m, devices=n, method="su_o_c") for m in models],)}


PAPER_TARGETS: Dict[str, Target] = {target.name: target for target in (
    Target("fig3.update_share", "baseline update share, 1 SSD", ">80%",
           (0.80, 1.0), lambda r: {m: r.cell(model=m, devices=1).fractions()[
               "update"] for m in MOTIVATION_MODELS}, {"all": (0.70, 1.0)}),
    Target("fig3.saturation", "RAID0 saturates at (#SSDs)",
           "after more than four", (4, 5), lambda r: {"gpt2-4.0b": next(
               n for n, s in enumerate(_raid0_speedups(r), 1)
               if s >= _raid0_speedups(r)[-1] * 0.98)}, {"all": (1, 6)}),
    Target("fig3.plateau", "RAID0 plateau speedup", "-", None,
           lambda r: {"gpt2-4.0b": _raid0_speedups(r)[-1]},
           {"all": (1.0, 5.0)}),
    *(Target(f"table3.{design}.{resource}", f"{design} {resource} utilization "
             "(%)", f"{paper:.2f}%", (paper, paper),
             lambda r, design=design, resource=resource: {
                 design: r.functional[design][resource]},
             {"all": (paper - 0.05, paper + 0.05)})
      for design, printed in (("adam", (33.66, 27.13, 34.38, 11.03)),
                              ("adam+topk", (34.12, 27.13, 35.94, 11.03)))
      for resource, paper in zip(RESOURCES, printed)),
    *(Target(f"fig9.{method}@{n}",
             f"{method.upper().replace('_', '+')} speedup @{n}",
             f"{paper[0]:.2f}-{paper[1]:.2f}x", paper,
             _speedups("model", GRID_MODELS, devices=n, method=method),
             {"gpt2-8.4b": calibration, "all": whole_grid})
      for n, method, paper, calibration, whole_grid in (
          (6, "su", (1.18, 1.24), (1.05, 1.35), (1.00, 1.40)),
          (10, "su", (1.54, 1.60), (1.40, 1.70), (1.35, 1.75)),
          (10, "su_o", (1.60, 1.66), (1.55, 1.85), (1.50, 1.90)),
          (10, "su_o_c", (1.85, 1.98), (1.80, 2.15), (1.75, 2.25)))),
    Target("fig9.spread", "SU+O+C speedup spread over models",
           "almost identical", None, _spreads(GRID_MODELS),
           {"all": (0.0, 0.45)}),
    Target("fig9.update_share", "baseline update share, GPT-2 8.4B @6",
           "75.57%", (0.7557, 0.7557), lambda r: {"gpt2-8.4b": r.cells[
               "gpt2-8.4b", 6, "baseline"].fractions()["update"]},
           {"all": (0.70, 0.85)}),
    *(Target(f"fig10.su_o_c@{n}", f"SU+O+C speedup @{n}, 16.6-33.0B",
             f"{paper}x at 33.0B", (paper, paper), _speedups(
                 "model", LARGE_MODELS, devices=n, method="su_o_c"),
             {"all": band})
      for n, paper, band in ((6, 1.37, (1.2, math.inf)),
                             (10, 1.88, (1.5, 2.5)))),
    Target("fig10.spread", "SU+O+C speedup spread over sizes", "stable",
           None, _spreads(LARGE_MODELS), {"all": (0.0, 0.3)}),
    Target("fig11.a100@10", "A100 SU+O+C speedup @10", "up to 2.11x",
           (2.11, 2.11), _speedups("gpu", ("a100",), devices=10,
                                   method="su_o_c"), {"all": (1.0, 2.45)}),
    Target("fig13.su_o_c", "SU+O+C speedup, BLOOM/ViT @6 and @10",
           "1.32-1.85x", (1.32, 1.85), lambda r: {
               f"{m}@{n}": r.speedup(model=m, devices=n, method="su_o_c")
               for m in FAMILY_MODELS for n in (6, 10)}, {"all": (1.1, 2.4)}),
    Target("fig15.smart_wins_from", "Smart GFLOPS/$ wins from (#devices)",
           "4", (4, 4), lambda r: {"gpt2-4.0b": 1 + max((
               n for n in range(1, 11) for base, smart in (_costs(r, n),)
               if smart.gflops_per_dollar <= base.gflops_per_dollar),
               default=0)}, {"all": (1, 6)}),
    Target("table4.speedup", "SU+O / Top-K speedup @6, 0.34-1.6B",
           "1.10-1.44x", (1.10, 1.44), lambda r: {
               " ".join(key): speedup
               for key, speedup in _finetune_speedups(r).items()},
           {"all": (1.0, 1.6)}),
    Target("fig17.su_o_c", "SU+O+C speedup, 1-3 A4000s, 10 CSDs",
           "1.66-1.86x", (1.66, 1.86), _speedups("gpus", (1, 2, 3),
                                                 method="su_o_c"),
           {"all": (1.0, math.inf)}),
    Target("ext_csd_sensitivity.su_o_c", "SU+O+C speedup per CSD @10", "-",
           None, _speedups("csd", PRODUCTS, method="su_o_c"),
           {"all": (1.5, math.inf)}),
)}


@dataclass(frozen=True)
class TargetsResult:
    """Per target and scope: the model's values."""

    values: Dict[Tuple[str, str], Dict[str, float]]

    def render(self) -> str:
        def span(low: float, high: float, spec: str) -> str:
            return (f"{low:{spec}}" if low == high else f">={low:{spec}}"
                    if high == math.inf else f"{low:{spec}}-{high:{spec}}")
        rows = [(target.figure, target.quantity, scope, target.printed,
                 span(min(values.values()), max(values.values()), ".3f"),
                 "-" if residual is None else "0" if residual == 0
                 else f"{residual:+.3f}", span(*target.bands[scope], "g"))
                for (name, scope), values in self.values.items()
                for target in (PAPER_TARGETS[name],)
                for residual in (target.residual(values.values()),)]
        return render_table(
            ("figure", "quantity", "scope", "paper", "model", "residual",
             "test band"), rows,
            title="Paper targets (residual: 0 inside the printed band)")


def run(memo: Optional[Memo] = None) -> TargetsResult:
    """Run every sweep a target reads (once per ``memo``) and score it."""
    memo = memo or Memo()
    return TargetsResult({
        (name, scope): target.scoped(SWEEPS[target.figure].run(memo), scope)
        for name, target in PAPER_TARGETS.items()
        for scope in target.bands})
