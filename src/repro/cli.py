"""Command-line interface.

Five subcommands, plus ``--list-models`` (the analytic model zoo) and
``--version``:

* ``top`` — the bottleneck observatory dashboard over one simulated
  iteration, or a finished trace file (``--trace``): step time (and, in
  sim mode, the speedup over the baseline), per-link utilization bars,
  the phase x resource ownership table, a bottleneck verdict, the
  critical path and a health/alerts pane (SLO rules over the
  attribution).  ``--once`` renders a single frame, otherwise it
  refreshes live; with nothing to attribute it degrades to a "no data
  yet" notice instead of an error.
* ``whatif`` — the critical-path observatory's counterfactual engine:
  print the critical path of one simulated iteration with slack
  accounting, then re-run the DES once per counterfactual
  (``--scale channel=factor``, ``--add-csds``, ``--compression-ratio``,
  ``--interleave``; by default the busiest channels twice as fast, twice
  the fleet, half the Top-K ratio and the interleaved schedule) and rank
  them by the re-run's step time; ``--jsonl`` writes the
  ``smart-infinity/critpath/v1`` event log.
* ``trace`` — export a Chrome trace-event JSON (open in Perfetto)
  unifying the sim-time DES timeline with wall-clock telemetry spans
  from a functional-engine proxy run of the same ``--method``, then
  print the proxy's step-health report: per-step signals as EWMA
  windows, the SLO alerts that fired, the flight recorder's state with
  the incident dumps written, and the fault counts.
* ``experiment`` — regenerate a paper table or figure by id and print
  it; with ``--write DIR`` write its result file instead, and with no id
  every experiment's (this is how ``results/`` is produced).
* ``scenario`` — declarative chaos + workload campaigns
  (``repro.scenarios``): ``list`` the bundled (or given) scenario
  files, ``run`` them with per-phase pass/fail against any engine mode
  and backend, or ``replay`` one and byte-compare its seeded event log
  against a previous run's.  Bare ``scenario run`` runs every bundled
  campaign in ``examples/scenarios/``.

Examples::

    python -m repro --list-models
    python -m repro top --once --model gpt2-8.4b --csds 10 --method su_o_c
    python -m repro top --once --trace gpt2-4.0b-su_o_c.trace.json
    python -m repro whatif --model gpt2-4.0b --csds 10
    python -m repro whatif --scale host-link-down=0.5 --add-csds 2
    python -m repro trace --model gpt2-4.0b --csds 6 --method su_o_c
    python -m repro trace --fault-plan examples/chaos.json --chaos-seed 7
    python -m repro experiment fig9
    python -m repro experiment --write results
    python -m repro scenario list
    python -m repro scenario run examples/scenarios/dropout_recovery.json
    python -m repro scenario run --backend process --chaos-seed 7
    python -m repro scenario replay examples/scenarios/dropout_recovery.json \\
        --log events.jsonl

``top``, ``whatif`` and ``trace`` name one DES scenario with the same
flags (``--model``, ``--csds``, ``--method``, ``--gpu``, ``--ratio``,
``--batch-size``, ``--optimizer``); ``--method`` is the paper's SU /
SU+O / SU+O+C choice, and ``trace``'s proxy runs that method's engine.
The subcommands that drive the functional engine (``trace``,
``scenario``) share one engine vocabulary — ``--backend``,
``--workers``, ``--fault-plan``, ``--chaos-seed``, ``--slo``,
``--schedule``, ``--activation-offload`` — with identical semantics;
``top`` and ``whatif`` are simulation-only and take just ``--schedule``
(and ``top`` ``--slo``).  ``top`` and ``trace`` accept ``--metrics`` to
print a Prometheus-style exposition.  ``--slo`` takes a JSON rules file
(see ``examples/slo.json``); ``trace`` writes automatic
``smart-infinity/flightrec/v1`` dumps on incidents (``--dump-dir``,
default ``flightrec/``), at the end of the step that raised the
incident, each ending at its alert.
"""

from __future__ import annotations

import argparse
import glob as _glob
import os
import sys
import tempfile
import time
from typing import List, Optional

from . import telemetry
from .errors import TelemetryError
from .experiments import REGISTRY, write_results
from .faults import FaultPlan
from .hw.gpu import GPUS
from .nn.models import ZOO
from .perf.analysis import Observation, observe, resolve
from .perf.scenarios import (COMPRESSED_METHODS, EXTENSION_METHODS, METHODS,
                             simulate_iteration)
from .runtime.engine import ACTIVATION_MODES, SCHEDULES
from .runtime.parallel import BACKENDS
from .version import __version__

#: Where ``scenario`` looks for campaigns when none are given (relative
#: to the working directory, i.e. a repo checkout).
_BUNDLED_SCENARIO_DIR = os.path.join("examples", "scenarios")

#: What ``trace``'s functional proxy runs for each ``--method``: the
#: engine mode, whether Top-K compresses at ``--ratio``, and the other
#: :class:`~repro.runtime.TrainingConfig` fields that differ from the
#: defaults (SU+O: the transfer handler on).
_PROXY_METHODS = {
    "baseline": ("baseline", False, {}),
    "su": ("smart", False, {"use_transfer_handler": False}),
    "su_o": ("smart", False, {}),
    "su_o_c": ("smart", True, {}),
    "su_o_c_q": ("smart", True, {"quantized_upstream": True}),
}


class _ListModels(argparse.Action):
    """``--list-models``: print the analytic model zoo and exit."""

    def __init__(self, option_strings, dest, **kwargs) -> None:
        super().__init__(option_strings, dest, nargs=0,
                         default=argparse.SUPPRESS, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"{'name':<14} {'family':<8} {'params':>10} {'dim':>6} "
              f"{'layers':>7}")
        for name in sorted(ZOO):
            spec = ZOO[name]
            print(f"{name:<14} {spec.family:<8} {spec.billions:>9.2f}B "
                  f"{spec.hidden_dim:>6} {spec.num_layers:>7}")
        parser.exit()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Smart-Infinity (HPCA 2024) reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("--list-models", action=_ListModels,
                        help="print the analytic model zoo and exit")
    commands = parser.add_subparsers(dest="command", required=True)

    top = commands.add_parser(
        "top", help="bottleneck observatory: step time and speedup, "
                    "per-link utilization, phase x resource ownership, "
                    "verdict")
    top.add_argument("--trace", default=None, metavar="TRACE_JSON",
                     help="attribute a finished Chrome trace-event file "
                          "instead of running a fresh simulation")
    _add_scenario_options(top)
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (default: refresh "
                          "live every --interval seconds until Ctrl-C)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="live refresh period in seconds (default 2)")
    top.add_argument("--jsonl", default=None, metavar="EVENTS_JSONL",
                     help="also write the attribution as a structured "
                          "JSONL event log")
    top.add_argument("--metrics", action="store_true",
                     help="also print the Prometheus-style exposition "
                          "of the attribution series (and, in sim mode, "
                          "of the simulated channel metrics)")
    _add_schedule_option(top)
    _add_slo_option(top)

    whatif = commands.add_parser(
        "whatif", help="critical-path what-if engine: dependency DAG, "
                       "slack, and counterfactuals re-simulated and "
                       "ranked over one simulated iteration")
    _add_scenario_options(whatif)
    whatif.add_argument(
        "--scale", action="append", default=None, metavar="CHANNEL=FACTOR",
        help="re-run with the named channel's transfers taking FACTOR "
             "times as long (bandwidth / FACTOR; 0.5 = link twice as "
             "fast); repeatable, each re-run independently")
    whatif.add_argument(
        "--add-csds", type=int, default=None, metavar="N",
        help="re-run with N (>= 1) more CSDs")
    whatif.add_argument(
        "--compression-ratio", type=float, default=None, metavar="R",
        help="re-run with the SmartComp volume ratio R in (0, 1] instead "
             "of --ratio")
    whatif.add_argument(
        "--interleave", action="store_true",
        help="re-run this phased step with schedule=interleaved "
             "(per-block updates start as gradients land instead of at "
             "the offload barrier)")
    whatif.add_argument(
        "--top", type=int, default=6, metavar="N",
        help="path resources shown in the critical-path pane "
             "(default 6)")
    whatif.add_argument(
        "--jsonl", default=None, metavar="EVENTS_JSONL",
        help="write the critical path and the counterfactuals as a "
             "smart-infinity/critpath/v1 JSONL event log")
    _add_schedule_option(whatif)

    trace = commands.add_parser(
        "trace", help="export a Chrome trace-event JSON for Perfetto and "
                      "report the functional proxy's step health")
    _add_scenario_options(trace, csds=6)
    trace.add_argument("--out", default=None,
                       help="output path (default "
                            "<model>-<method>.trace.json)")
    trace.add_argument("--steps", type=int, default=None, metavar="N",
                       help="proxy training steps (default 1, or 3 "
                            "with a fault plan)")
    trace.add_argument("--dump-dir", default="flightrec",
                       help="directory for automatic flight-recorder "
                            "incident dumps (default flightrec/)")
    trace.add_argument("--skip-functional", action="store_true",
                       help="omit the tiny functional-engine proxy run "
                            "and its health report (trace will contain "
                            "only the sim-time domain)")
    trace.add_argument("--metrics", action="store_true",
                       help="also print the Prometheus-style metrics "
                            "collected during the trace")
    _add_engine_options(trace)

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table/figure (or, with "
                           "--write and no id, every result file)")
    experiment.add_argument(
        "id", nargs="?", choices=list(REGISTRY),
        help="experiment id (e.g. fig9, table1, ext_bottlenecks); "
             "omit it with --write to run them all")
    experiment.add_argument(
        "--write", default=None, metavar="DIR",
        help="write <stem>.txt result file(s) under DIR instead of "
             "printing (the committed ones live in results/)")

    scenario = commands.add_parser(
        "scenario", help="declarative chaos + workload campaigns: "
                         "list, run, or replay scenario files "
                         "(repro.scenarios)")
    scenario.add_argument(
        "action", choices=("list", "run", "replay"),
        help="list: tabulate the scenario files; run: execute them "
             "with per-phase pass/fail; replay: re-run one scenario "
             "and byte-compare its event log against --log")
    scenario.add_argument(
        "paths", nargs="*", metavar="SCENARIO_JSON",
        help="scenario files, or directories scanned for *.json "
             f"(default: the bundled {_BUNDLED_SCENARIO_DIR}/)")
    scenario.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="keep per-scenario run artifacts (engine storage, splice "
             "checkpoints, flight dumps, events.jsonl) under DIR "
             "instead of a discarded temp dir")
    scenario.add_argument(
        "--log", default=None, metavar="EVENTS_JSONL",
        help="run (single scenario): write the event log here; "
             "replay: the previous run's log to byte-compare against")
    _add_engine_options(scenario)
    return parser


def _add_scenario_options(subparser, csds: int = 10) -> None:
    """The flags that name one DES scenario (``perf.analysis.resolve``
    and ``observe`` take exactly these; see :func:`_observe`)."""
    subparser.add_argument("--model", default="gpt2-4.0b")
    subparser.add_argument("--csds", type=int, default=csds)
    subparser.add_argument("--method", default="su_o_c",
                           choices=METHODS + EXTENSION_METHODS)
    subparser.add_argument("--gpu", default="a5000", choices=sorted(GPUS))
    subparser.add_argument("--ratio", type=float, default=0.02,
                           help="SmartComp volume ratio")
    subparser.add_argument("--batch-size", type=int, default=4)
    subparser.add_argument("--optimizer", default="adam")


def _add_schedule_option(subparser) -> None:
    subparser.add_argument(
        "--schedule", default=None, choices=SCHEDULES,
        help="execution pipeline: phased (offload barrier, then "
             "update) or interleaved (per-block offload+update "
             "enqueued as backprop produces gradients); training "
             "output is bit-identical either way (default phased)")


def _add_slo_option(subparser) -> None:
    subparser.add_argument(
        "--slo", default=None, metavar="RULES_JSON",
        help="SLO rules file (examples/slo.json shape) replacing the "
             "built-in rule set")


def _add_engine_options(subparser) -> None:
    """The flag vocabulary of the subcommands that drive the functional
    engine (``trace``, ``scenario``).

    One definition keeps the flags byte-identical (names, defaults,
    help) across them, and the choices are the engine's own.  Defaults
    are None so ``scenario`` can tell "explicitly thread" from "unset"
    and leave a campaign's own choice alone; ``trace`` falls back to
    thread / phased / recompute.
    """
    subparser.add_argument(
        "--backend", default=None, choices=BACKENDS,
        help="execution backend for the per-CSD fan-out: thread "
             "(shared-address-space pool), process (per-CSD worker "
             "processes with shared-memory shards — scales past the "
             "GIL), or auto (process when >1 usable CPU); training "
             "output is bit-identical either way (default thread)")
    subparser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="workers for the per-CSD fan-out (default: one per "
             "device); bit-identity makes this a pure throughput knob")
    subparser.add_argument(
        "--fault-plan", default=None, metavar="PLAN_JSON",
        help="JSON fault plan (repro.faults.FaultPlan) injected into the "
             "functional engine's storage/CSD fleet")
    subparser.add_argument(
        "--chaos-seed", type=int, default=None, metavar="SEED",
        help="re-seed the fault plan (or, without --fault-plan, enable "
             "the default transient-chaos plan) with SEED; for "
             "scenario runs this re-seeds the whole campaign")
    _add_slo_option(subparser)
    _add_schedule_option(subparser)
    subparser.add_argument(
        "--activation-offload", default=None, choices=ACTIVATION_MODES,
        help="boundary-activation policy for checkpointed losses: "
             "recompute (keep in host memory) or spill (write to the "
             "SSD-backed spill store, async-prefetch before "
             "backward); bit-identical either way (default recompute)")


def _observe(args, channel_scales=None, **changes) -> Observation:
    """Simulate the scenario :func:`_add_scenario_options` named, with
    ``changes`` to those flags (``csds=``, ``ratio=``, ``schedule=``)
    and ``channel_scales`` applied: ``whatif``'s counterfactuals."""
    args = argparse.Namespace(**{**vars(args), **changes})
    system, workload = resolve(args.model, args.csds, args.gpu,
                               batch_size=args.batch_size,
                               optimizer=args.optimizer)
    return observe(system, workload, args.method,
                   compression_ratio=args.ratio,
                   schedule=args.schedule or "phased",
                   channel_scales=channel_scales)


def _resolve_fault_plan(args) -> Optional[FaultPlan]:
    """Combine --fault-plan / --chaos-seed into one plan (or None)."""
    plan = None
    if args.fault_plan is not None:
        plan = FaultPlan.from_json_file(args.fault_plan)
    if args.chaos_seed is not None:
        plan = (plan or FaultPlan.default_chaos()).with_seed(
            args.chaos_seed)
    return plan


def _resolve_slo_rules(args) -> Optional[list]:
    """--slo as a list of rule dicts (TrainingConfig.slo_rules shape)."""
    if args.slo is None:
        return None
    return [rule.to_dict() for rule in telemetry.load_slo_rules(args.slo)]


def _cmd_top(args) -> int:
    slo_rules = (telemetry.load_slo_rules(args.slo)
                 if args.slo is not None else None)

    def build() -> Observation:
        if args.trace is not None:
            return Observation.from_chrome_trace(args.trace)
        observed = _observe(args)
        schedule = observed.scenario["schedule"]
        observed.label = (
            f"{args.model}/{args.method} ({args.csds} CSDs, {args.gpu})"
            + ("" if schedule == "phased" else f", {schedule}"))
        observed.meta = {
            "model": args.model, "method": args.method, "csds": args.csds,
            "gpu": args.gpu, "ratio": args.ratio, "schedule": schedule,
            "iteration_seconds": observed.breakdown.total}
        return observed

    def build_frame():
        """(report-or-None, rendered text) — never raises on bad input.

        A missing/partial/empty trace is the normal state while a run
        is still warming up, so it renders as "no data yet", not a
        traceback.
        """
        try:
            report = build()
        except (TelemetryError, OSError, ValueError, KeyError) as exc:
            return None, ("bottleneck observatory — no data yet\n"
                          f"  ({exc})\n"
                          "  produce a trace with `python -m repro "
                          "trace`, point --trace at a finished file, or "
                          "drop --trace for sim mode")
        speedup = None
        if report.source == "sim" and report.method != "baseline":
            base = simulate_iteration(report.scenario["system"],
                                      report.scenario["workload"],
                                      "baseline")
            speedup = report.breakdown.speedup_over(base)
        return report, telemetry.render_top(report, slo_rules=slo_rules,
                                            speedup=speedup)

    report, frame = build_frame()
    if args.once:
        print(frame)
    else:
        # Live mode: rebuild (re-reading a --trace file, so a file being
        # rewritten by a concurrent run updates the view) and redraw
        # until interrupted.
        try:
            while True:
                print("\x1b[2J\x1b[H" + frame, flush=True)
                time.sleep(args.interval)
                report, frame = build_frame()
        except KeyboardInterrupt:
            print()
    if report is None:
        # Nothing was attributed; the exports below would have nothing
        # to say either.
        return 0
    if args.jsonl is not None:
        telemetry.write_events_jsonl(args.jsonl, report)
        print(f"[attribution events: {args.jsonl}]")
    if args.metrics:
        registry = telemetry.MetricsRegistry()
        if report.source == "sim":
            telemetry.record_channel_metrics(
                registry, report.channels,
                horizon=report.breakdown.total, method=args.method)
        telemetry.record_attribution_metrics(
            registry, report.attribution, source=report.source)
        print()
        print(registry.render_prometheus(), end="")
    return 0


def _counterfactuals(args, scales, add_csds=None, ratio=None,
                     interleave=False) -> list:
    """``(label, changes)`` per counterfactual, ``changes`` being what
    :func:`_observe` re-runs the scenario with."""
    out = [(f"scale({channel}, {factor:g})",
            {"channel_scales": {channel: 1.0 / factor}})
           for channel, factor in scales]
    if add_csds is not None:
        out.append((f"add_csds(+{add_csds})",
                    {"csds": args.csds + add_csds}))
    if ratio is not None:
        out.append((f"compression_ratio({ratio:g})", {"ratio": ratio}))
    if interleave:
        out.append(("interleave()", {"schedule": "interleaved"}))
    return out


def _cmd_whatif(args) -> int:
    schedule = args.schedule or "phased"
    if args.interleave and schedule == "interleaved":
        print("--interleave re-runs a phased step with the interleaved "
              "schedule; drop --schedule interleaved (the change is "
              "already applied there)")
        return 2
    if args.add_csds is not None and args.add_csds < 1:
        print(f"invalid --add-csds {args.add_csds}; expected at least "
              "one more CSD")
        return 2
    if (args.compression_ratio is not None
            and not 0 < args.compression_ratio <= 1):
        print(f"invalid --compression-ratio {args.compression_ratio:g}; "
              "expected a ratio in (0, 1]")
        return 2

    scales = []
    for item in args.scale or []:
        channel, sep, factor_text = item.partition("=")
        try:
            factor = float(factor_text) if sep and channel else None
        except ValueError:
            factor = None
        if factor is None or factor <= 0:
            print(f"invalid --scale {item!r}; expected CHANNEL=FACTOR "
                  "with a positive factor")
            return 2
        scales.append((channel, factor))

    observed = _observe(args)
    report = observed.critpath
    if report is None:
        print("critical path: no dependency data (the simulated "
              "iteration recorded no transfers)")
        return 0
    known = {channel.name for channel in observed.channels}
    for channel, _factor in scales:
        if channel not in known:
            print(f"unknown channel {channel!r}; this run has: "
                  f"{', '.join(sorted(known))}")
            return 2

    base = observed.breakdown.total
    print(f"what-if observatory — sim:{args.model}/{args.method} "
          f"({args.csds} CSDs, {args.gpu}"
          + ("" if schedule == "phased" else f", {schedule}") + ")")
    print(f"step time {base:.3f} s")
    print(report.render(top=args.top))

    counterfactuals = _counterfactuals(
        args, scales, args.add_csds, args.compression_ratio,
        args.interleave)
    if not counterfactuals:
        # The busiest three channels twice as fast, twice the fleet,
        # half the Top-K ratio where the method compresses, and the
        # interleaved schedule for a phased step.
        counterfactuals = _counterfactuals(
            args, [(summary.name, 0.5)
                   for summary in observed.summaries[:3]],
            args.csds,
            args.ratio / 2 if args.method in COMPRESSED_METHODS else None,
            schedule == "phased")
    rows = []
    for label, changes in counterfactuals:
        step = _observe(args, **changes).breakdown.total
        rows.append({"label": label, "baseline_step_seconds": base,
                     "projected_step_seconds": step,
                     "reduction_seconds": base - step,
                     "speedup": base / step})
    rows.sort(key=lambda row: (-row["reduction_seconds"], row["label"]))
    print("what-if (the DES re-run per counterfactual, ranked by "
          "step-time reduction):")
    width = max(len(row["label"]) for row in rows)
    for row in rows:
        print(f"  {row['label'].ljust(width)}  {base:.3f} s -> "
              f"{row['projected_step_seconds']:.3f} s  "
              f"({row['reduction_seconds']:+.3f} s saved, "
              f"{row['speedup']:.2f}x)")
    if args.jsonl is not None:
        telemetry.write_critpath_jsonl(
            args.jsonl, report, projections=rows,
            meta={"source": "sim", "model": args.model,
                  "method": args.method, "csds": args.csds,
                  "gpu": args.gpu, "ratio": args.ratio,
                  "schedule": schedule})
        print(f"[critpath events: {args.jsonl}]")
    return 0


def _run_functional_proxy(args, fault_plan: Optional[FaultPlan]) -> dict:
    """Train ``trace``'s steps of a tiny model on ``--method``'s engine.

    The proxy exists so the exported trace's wall-clock process contains
    real engine / handler / storage spans (worker threads included); the
    model is deliberately tiny because the span *structure*, not the
    duration, is what the timeline view is for.  It runs on at most two
    devices (CSDs, or RAID0 members for the baseline); per-CSD work
    defaults to one worker per device — regardless of the host's core
    count — so the exported timeline shows the device updates on
    distinct ``csd-worker`` thread lanes.

    With a fault plan, the same run doubles as the chaos smoke: retries,
    backoffs and demotions land in the trace.  The returned dict holds
    the engine's fault counts (``fault_stats``), its step-health view
    (``health``, incident dumps under ``--dump-dir`` included) and each
    step's device traffic (``traffic``).
    """
    import numpy as np

    from .api import create_engine
    from .nn import SequenceClassifier, bert_config
    from .runtime import TrainingConfig

    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 32, size=(4, 16))
    labels = rng.integers(0, 2, size=4)
    model = SequenceClassifier(
        bert_config(vocab_size=32, dim=32, num_layers=2, num_heads=2,
                    max_seq_len=16), num_classes=2, seed=0)
    mode, compressed, overrides = _PROXY_METHODS[args.method]
    devices = min(args.csds, 2)
    fleet = ({"raid_members": devices} if mode == "baseline"
             else {"num_csds": devices})
    config = TrainingConfig(
        optimizer="adam", optimizer_kwargs={"lr": 1e-3},
        subgroup_elements=4096,
        compression_ratio=args.ratio if compressed else None,
        parallel_csds=args.workers or devices,
        parallel_backend=args.backend or "thread",
        schedule=args.schedule or "phased",
        activation_offload=args.activation_offload or "recompute",
        fault_plan=fault_plan,
        flight_dump_dir=args.dump_dir,
        slo_rules=_resolve_slo_rules(args),
        **fleet, **overrides)
    steps = args.steps
    if steps is None:
        steps = 3 if fault_plan is not None else 1
    with tempfile.TemporaryDirectory() as workdir:
        with create_engine(mode, model, lambda m, t, l: m.loss(t, l),
                           workdir, config=config) as engine:
            for _ in range(steps):
                engine.train_step(tokens, labels)
            return {"fault_stats": engine.fault_stats(),
                    "health": engine.health_summary(),
                    "traffic": list(engine.meter.iterations),
                    "devices": devices}


def _render_health_report(result: dict) -> str:
    """Render a proxy run's health summary dict for the terminal."""
    health = result["health"]
    signals = health["signals"]
    lines = [f"step-health signals (EWMA over the {result['devices']}-"
             "device proxy run):"]
    if not signals:
        lines.append("  no steps observed")
    else:
        width = max(len(name) for name in signals)
        lines.append(f"  {'signal'.ljust(width)}  {'last':>12}  "
                     f"{'ewma':>12}  samples")
        for name in sorted(signals):
            row = signals[name]
            lines.append(f"  {name.ljust(width)}  {row['last']:>12.4g}  "
                         f"{row['ewma']:>12.4g}  {row['samples']:>7d}")
    lines.append("")
    alerts = health["alerts"]
    if alerts:
        lines.append(f"alerts ({len(alerts)} fired):")
        for alert in alerts:
            step = (f" @step {alert['step']}"
                    if alert.get("step") is not None else "")
            lines.append(f"  [{alert['severity']}] {alert['rule']}{step}: "
                         f"{alert['message']}")
    else:
        lines.append("alerts: none fired")
    flight_stats = health.get("flight")
    if flight_stats:
        lines.append(
            f"flight recorder: {flight_stats['events_retained']} events "
            f"retained of {flight_stats['events_recorded']} recorded "
            f"({flight_stats['events_dropped']} dropped) over the "
            f"last {flight_stats['steps_retained']} step(s)")
    for path in health.get("dumps", []):
        lines.append(f"  [flight dump: {path}]")
    for error in health.get("dump_errors", []):
        lines.append(f"  [flight dump failed: {error}]")
    lines.append("")
    stats = result["fault_stats"]
    injected = ", ".join(f"{kind}={count}" for kind, count
                         in sorted(stats["injected"].items()))
    lines.append(f"faults: {sum(stats['injected'].values())} injected "
                 f"({injected or 'none'}), {stats['retries']} retries, "
                 f"{stats['demotions']} demotion(s), "
                 f"{stats['degraded_steps']} degraded step(s)")
    return "\n".join(lines)


def _cmd_trace(args) -> int:
    out = args.out or f"{args.model}-{args.method}.trace.json"
    fault_plan = _resolve_fault_plan(args)
    proxy = None
    with telemetry.session() as session:
        with telemetry.trace_span("des.simulate", model=args.model,
                                  method=args.method, csds=args.csds):
            observed = _observe(args)
            trace = observed.trace
        if not args.skip_functional:
            with telemetry.trace_span("functional.proxy",
                                      method=args.method,
                                      chaos=fault_plan is not None):
                proxy = _run_functional_proxy(args, fault_plan)
        telemetry.record_channel_metrics(
            session.registry, observed.channels,
            horizon=trace.breakdown.total, method=args.method)
    spans = session.tracer.spans
    telemetry.write_chrome_trace(
        out, spans=spans, sim=observed.timeline,
        metadata={"model": args.model, "method": args.method,
                  "csds": args.csds,
                  "iteration_seconds": trace.breakdown.total})
    print(f"wrote {out}: {len(spans)} wall-clock spans, "
          f"{sum(len(c.records) for c in observed.channels)} "
          f"sim-time transfers, {len(trace.phase_windows)} phase "
          f"window(s)")
    print("open it at https://ui.perfetto.dev or chrome://tracing")
    if proxy is not None:
        print()
        print(_render_health_report(proxy))
    if args.metrics:
        print()
        print(session.registry.render_prometheus(), end="")
    return 0


def _cmd_experiment(args) -> int:
    if args.write is not None:
        ids = [args.id] if args.id is not None else None
        for path in write_results(args.write, ids).values():
            print(f"wrote {path}")
    elif args.id is None:
        print("experiment needs an id to print, or --write DIR to "
              "regenerate every result file")
        return 2
    else:
        print(REGISTRY[args.id].run().render())
    return 0


def _scenario_files(paths: List[str]) -> List[str]:
    """Expand scenario files / directories into a flat sorted list."""
    out: List[str] = []
    for root in (paths or [_BUNDLED_SCENARIO_DIR]):
        if os.path.isdir(root):
            out.extend(sorted(_glob.glob(os.path.join(root, "*.json"))))
        else:
            out.append(root)
    return out


def _render_scenario_report(report) -> str:
    """Per-phase pass/fail for the terminal, failed checks expanded."""
    lines = [f"scenario {report.scenario} (seed {report.seed}): "
             f"{'PASS' if report.passed else 'FAIL'}"]
    for campaign in report.campaigns:
        lines.append(f"  campaign {campaign.label}: "
                     f"{'PASS' if campaign.passed else 'FAIL'}")
        for phase in campaign.phases:
            ok = sum(1 for check in phase.checks if check.ok)
            lines.append(f"    [{'ok' if phase.passed else '!!'}] "
                         f"{phase.name} ({phase.kind}, {phase.steps} "
                         f"step(s), {ok}/{len(phase.checks)} checks)")
            for check in phase.checks:
                if not check.ok:
                    lines.append(f"         failed {check.check}: "
                                 f"expected {check.expected!r}, got "
                                 f"{check.actual!r}")
            if phase.error is not None:
                lines.append(f"         error: {phase.error}")
    if report.log_path is not None:
        lines.append(f"  [event log: {report.log_path} "
                     f"({len(report.events)} events)]")
    return "\n".join(lines)


def _cmd_scenario(args) -> int:
    from .errors import ReproError
    from .scenarios import ScenarioRunner, load_scenario

    files = _scenario_files(args.paths)
    if not files:
        searched = ", ".join(args.paths or [_BUNDLED_SCENARIO_DIR])
        print(f"no scenario files found (searched: {searched}); pass "
              "scenario JSONs or run from a repo checkout")
        return 2
    scenarios = []
    for path in files:
        try:
            scenarios.append((path, load_scenario(path)))
        except (ReproError, OSError) as exc:
            print(f"cannot load scenario {path}: {exc}")
            return 2

    if args.action == "list":
        width = max(len(s.name) for _, s in scenarios)
        print(f"{'name'.ljust(width)}  {'engine':<12} {'seed':>5} "
              f"{'phases':>7} {'campaigns':>9}  description")
        for _, scenario in scenarios:
            print(f"{scenario.name.ljust(width)}  "
                  f"{scenario.engine:<12} {scenario.seed:>5} "
                  f"{len(scenario.phases):>7} "
                  f"{len(scenario.campaign_configs()):>9}  "
                  f"{scenario.description}")
        return 0

    plan = (FaultPlan.from_json_file(args.fault_plan)
            if args.fault_plan is not None else None)

    def build_runner(scenario, workdir=None, log_path=None):
        return ScenarioRunner(
            scenario, workdir=workdir, log_path=log_path,
            backend=args.backend, chaos_seed=args.chaos_seed,
            workers=args.workers, slo_rules=_resolve_slo_rules(args),
            fault_plan=plan, schedule=args.schedule,
            activation_offload=args.activation_offload)

    if args.action == "replay":
        if len(scenarios) != 1 or args.log is None:
            print("replay needs exactly one scenario file and --log "
                  "pointing at a previous run's event log")
            return 2
        try:
            with open(args.log) as handle:
                previous = handle.read()
        except OSError as exc:
            print(f"cannot read --log {args.log}: {exc}")
            return 2
        report = build_runner(scenarios[0][1]).run()
        print(_render_scenario_report(report))
        if report.log_text == previous:
            print(f"replay: event log byte-identical to {args.log} "
                  f"({len(report.events)} events)")
            return 0 if report.passed else 1
        old, new = previous.splitlines(), report.log_text.splitlines()
        for lineno, (a, b) in enumerate(zip(old, new), start=1):
            if a != b:
                print(f"replay: DIVERGED at log line {lineno}:\n"
                      f"  previous: {a}\n  this run: {b}")
                break
        else:
            print(f"replay: DIVERGED — log length differs "
                  f"({len(old)} vs {len(new)} lines)")
        return 1

    # run
    if args.log is not None and len(scenarios) > 1:
        print("--log applies to a single scenario; pass one file or "
              "use --out-dir for per-scenario events.jsonl logs")
        return 2
    failures = 0
    for index, (path, scenario) in enumerate(scenarios):
        if index:
            print()
        workdir = None
        if args.out_dir is not None:
            workdir = os.path.join(args.out_dir, scenario.name)
            os.makedirs(workdir, exist_ok=True)
        report = build_runner(scenario, workdir=workdir,
                              log_path=args.log).run()
        print(_render_scenario_report(report))
        failures += 0 if report.passed else 1
    if len(scenarios) > 1:
        print(f"\n{len(scenarios) - failures}/{len(scenarios)} "
              "scenario(s) passed")
    return 1 if failures else 0


_HANDLERS = {
    "top": _cmd_top,
    "whatif": _cmd_whatif,
    "trace": _cmd_trace,
    "experiment": _cmd_experiment,
    "scenario": _cmd_scenario,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
