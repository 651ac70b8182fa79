"""The paper's DES-regenerated evaluation as data: Figs. 3, 9-13, 15-17
and the CSD-product extension are one :class:`Sweep` each (the points it
simulates, each distinct one once, the axes naming its cells, its panels).
:data:`PAPER_TARGETS` holds the paper's printed numbers they regenerate
and the tests' band per scope; :func:`run` prints their residuals."""

from __future__ import annotations

import itertools
import math
import tempfile
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from ..api import create_engine
from ..csd.hls import sanity_check_updater
from ..hw.catalog import get_csd
from ..hw.gpu import GPUS
from ..hw.topology import congested_system, default_system
from ..nn.data import make_classification_dataset, make_lm_dataset
from ..nn.models import get_model
from ..nn.transformer import (LanguageModel, SequenceClassifier,
                              bloom_config, vit_config)
from ..optim import make_optimizer
from ..perf.analysis import observe
from ..perf.cost import cost_efficiency
from ..perf.scenarios import METHODS, PhaseBreakdown, simulate_iteration
from ..perf.workload import make_workload
from ..runtime.engine import TrainingConfig
from ..telemetry.attrib import BottleneckVerdict
from .report import render_table

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
    #: Phases and verdict from the telemetry attribution (Fig. 9).
    attributed: bool = False

    def system(self):
        gpu, csd = GPUS[self.gpu](), get_csd(self.csd)
        if self.gpus:
            return congested_system(self.gpus, self.devices, gpu, csd)
        return default_system(self.devices, gpu, csd)

    def workload(self):
        return make_workload(get_model(self.model), optimizer=self.optimizer)

    def simulate(self) -> Tuple[PhaseBreakdown, Optional[BottleneckVerdict]]:
        system, workload = self.system(), self.workload()
        if not self.attributed:
            return simulate_iteration(system, workload, self.method,
                                      compression_ratio=self.ratio), None
        attribution = observe(system, workload, self.method,
                              compression_ratio=self.ratio).attribution
        totals = attribution.phase_totals()
        return PhaseBreakdown(*(totals.get(phase, 0.0) for phase in (
            "forward", "backward_grad", "update"))), attribution.verdict()


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
    #: Attributed cells' bottleneck (None elsewhere).
    verdicts: Dict[tuple, Optional[BottleneckVerdict]]
    functional: Dict[str, Dict[str, float]]

    def cell(self, **named) -> PhaseBreakdown:
        return self.cells[tuple(named[axis] for axis in self.axes)]

    def speedup(self, **named) -> float:
        """BASE's iteration time over this cell's, all else equal."""
        base = self.cell(**{**named, "method": "baseline"})
        return base.total / self.cell(**named).total

    def render(self) -> str:
        return "\n\n".join(
            render_table(panel.headers, [
                tuple("" if value is None else fmt.format(value)
                      for fmt, value in zip(panel.formats, row))
                for row in panel.rows(self)], title=panel.title)
            for panel in SWEEPS[self.figure].panels)


class Panel(NamedTuple):
    """One table: row values go through their column's format."""

    title: str
    headers: Tuple[str, ...]
    formats: Tuple[str, ...]
    rows: Callable[[SweepResult], Iterable[tuple]]


@dataclass(frozen=True)
class Sweep:
    """One figure, with an experiment module's ``RESULT_STEM``/``run()``."""

    figure: str
    RESULT_STEM: str
    axes: Tuple[str, ...]
    points: Tuple[Point, ...]
    panels: Tuple[Panel, ...]
    #: Functional work besides the DES; returns the result's ``functional``.
    hook: Callable[[], Optional[Dict[str, Dict[str, float]]]] = dict

    def run(self, memo: Optional["Memo"] = None) -> SweepResult:
        """This figure's result; within one ``memo`` it runs once (its
        hook included) and shares every cell another sweep simulated."""
        memo = memo or Memo()
        if self.figure not in memo.sweeps:
            functional, cells, verdicts = self.hook() or {}, {}, {}
            for point in dict.fromkeys(self.points):
                key = tuple(getattr(point, axis) for axis in self.axes)
                cells[key], verdicts[key] = memo.simulate(point)
            memo.sweeps[self.figure] = SweepResult(
                self.figure, self.axes, cells, verdicts, functional)
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
                "smart", model, lambda m, *batch: m.loss(*batch), workdir,
                config=TrainingConfig(optimizer_kwargs={"lr": 1e-2},
                                      subgroup_elements=4096, num_csds=2))
            steps = [engine.train_step(*batch).loss for batch in batches]
            engine.close()
        losses[name] = {"first": steps[0], "last": steps[-1]}
    return losses


SWEEPS: Dict[str, Sweep] = {sweep.figure: sweep for sweep in (
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
                             r.verdicts[m, n, method])
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
    results = {figure: sweep.run(memo) for figure, sweep in SWEEPS.items()}
    return TargetsResult({
        (name, scope): target.scoped(results[target.figure], scope)
        for name, target in PAPER_TARGETS.items()
        for scope in target.bands})
