"""Command-line interface.

Eight subcommands:

* ``list-models`` — print the analytic model zoo (names, sizes, shapes).
* ``simulate`` — run one DES training-iteration configuration and print
  its phase breakdown and speedup over the baseline.
* ``top`` — the bottleneck observatory dashboard: per-link utilization
  bars, the phase x resource ownership table, a bottleneck verdict, and
  a health/alerts pane (SLO rules over the attribution), over a fresh
  simulation or a finished trace file (``--trace``); ``--once`` renders
  a single frame, otherwise it refreshes live.  With nothing to
  attribute it degrades to a "no data yet" notice instead of an error.
* ``whatif`` — the critical-path observatory's counterfactual engine:
  reconstruct the per-step dependency DAG of one simulated iteration,
  print the critical path with slack accounting, and rank what-if
  projections (``--scale channel=factor``, ``--add-csds``,
  ``--compression-ratio``) by projected step-time reduction;
  ``--validate`` re-runs the DES with each channel scaling genuinely
  applied and fails (exit 1) if the projection error exceeds
  ``--max-error``; ``--jsonl`` writes the
  ``smart-infinity/critpath/v1`` event log.
* ``health`` — the step-health monitor: run a functional-engine probe
  and report per-step signals (steps/s, loss finiteness, retry/arena
  rates, link utilization) as rolling EWMA windows, the SLO alerts that
  fired, and the flight recorder's state (events and steps retained)
  with the incident dumps written; one-shot by default, ``--watch``
  refreshes live.
* ``experiment`` — regenerate a paper table or figure by id and print
  it; with ``--write DIR`` write its result file instead, and with no id
  every experiment's (this is how ``results/`` is produced).
* ``trace`` — export a Chrome trace-event JSON (open in Perfetto)
  unifying the sim-time DES timeline with wall-clock telemetry spans
  from a functional-engine proxy run.
* ``scenario`` — declarative chaos + workload campaigns
  (``repro.scenarios``): ``list`` the bundled (or given) scenario
  files, ``run`` them with per-phase pass/fail against any engine mode
  and backend, or ``replay`` one and byte-compare its seeded event log
  against a previous run's.  Bare ``scenario run`` runs every bundled
  campaign in ``examples/scenarios/``.

Examples::

    python -m repro list-models
    python -m repro simulate --model gpt2-8.4b --csds 10 --method su_o_c
    python -m repro top --once --model gpt2-4.0b --csds 10
    python -m repro top --once --trace gpt2-4.0b-su_o_c.trace.json
    python -m repro whatif --model gpt2-4.0b --csds 10
    python -m repro whatif --scale host-link-down=0.5 --validate
    python -m repro health --once --steps 5
    python -m repro health --fault-plan examples/chaos.json --chaos-seed 7
    python -m repro experiment fig9
    python -m repro experiment --write results
    python -m repro trace --model gpt2-4.0b --csds 6 --method su_o_c
    python -m repro scenario list
    python -m repro scenario run examples/scenarios/dropout_recovery.json
    python -m repro scenario run --backend process --chaos-seed 7
    python -m repro scenario replay examples/scenarios/dropout_recovery.json \\
        --log events.jsonl

``simulate`` and ``trace`` accept ``--metrics`` to print a
Prometheus-style exposition of per-channel counters and gauges; ``top``
extends it with the attribution series and can also write a structured
JSONL event log (``--jsonl``).  The subcommands that drive the
functional engine (``health``, ``trace``, ``scenario``) share one flag
vocabulary — ``--backend``, ``--workers``, ``--fault-plan``,
``--chaos-seed``, ``--slo``, ``--schedule``, ``--activation-offload`` —
with identical semantics everywhere; ``top`` and ``whatif`` are
simulation-only and take just ``--schedule`` (and ``top`` ``--slo``).
``python -m repro --version`` prints the package version.  ``--slo``
takes a JSON rules file (see ``examples/slo.json``); chaos runs of
``trace`` and ``health`` write automatic ``smart-infinity/flightrec/v1``
dumps on incidents (``--dump-dir``, default ``flightrec/``), at the end
of the step that raised the incident, each ending at its alert.
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
from .perf.analysis import (Observation, observe, resolve,
                            validate_interleave, validate_scale)
from .perf.scenarios import (EXTENSION_METHODS, METHODS, SCHEDULES,
                             simulate_iteration)
from .version import __version__

#: Where ``scenario`` looks for campaigns when none are given (relative
#: to the working directory, i.e. a repo checkout).
_BUNDLED_SCENARIO_DIR = os.path.join("examples", "scenarios")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Smart-Infinity (HPCA 2024) reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list-models",
                        help="list the analytic model zoo")

    simulate = commands.add_parser(
        "simulate", help="simulate one training iteration")
    _add_scenario_options(simulate)
    simulate.add_argument("--batch-size", type=int, default=4)
    simulate.add_argument("--optimizer", default="adam")
    _add_schedule_option(simulate)
    simulate.add_argument("--metrics", action="store_true",
                          help="print a Prometheus-style exposition of "
                               "the simulated channel metrics")

    top = commands.add_parser(
        "top", help="bottleneck observatory: per-link utilization, "
                    "phase x resource ownership, verdict")
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
                          "of the attribution series")
    _add_schedule_option(top)
    _add_slo_option(top)

    whatif = commands.add_parser(
        "whatif", help="critical-path what-if engine: dependency DAG, "
                       "slack, and ranked counterfactual projections "
                       "over one simulated iteration")
    _add_scenario_options(whatif)
    whatif.add_argument(
        "--scale", action="append", default=None, metavar="CHANNEL=FACTOR",
        help="project the named channel's transfers taking FACTOR times "
             "as long (0.5 = link twice as fast); repeatable, each "
             "projected independently")
    whatif.add_argument(
        "--add-csds", type=int, default=None, metavar="N",
        help="project N additional CSDs (device-internal work spreads "
             "over the larger fleet; shared host link unchanged)")
    whatif.add_argument(
        "--compression-ratio", type=float, default=None, metavar="R",
        help="project the SmartComp volume ratio changing from --ratio "
             "to R (gradient-offload transfers rescale)")
    whatif.add_argument(
        "--interleave", action="store_true",
        help="project the interleaved schedule from this phased trace "
             "(per-block updates start as gradients land instead of at "
             "the offload barrier); with --validate, re-runs the DES "
             "with schedule=interleaved genuinely applied")
    whatif.add_argument(
        "--top", type=int, default=6, metavar="N",
        help="path resources shown in the critical-path pane "
             "(default 6)")
    whatif.add_argument(
        "--validate", action="store_true",
        help="re-run the DES with each --scale genuinely applied and "
             "report the projection error; exits 1 beyond --max-error")
    whatif.add_argument(
        "--max-error", type=float, default=0.05, metavar="FRACTION",
        help="relative projection error --validate tolerates "
             "(default 0.05 = 5%%)")
    whatif.add_argument(
        "--jsonl", default=None, metavar="EVENTS_JSONL",
        help="write the critical path, projections, and validations as "
             "a smart-infinity/critpath/v1 JSONL event log")
    _add_schedule_option(whatif)

    health = commands.add_parser(
        "health", help="step-health monitor: per-step signals, SLO "
                       "alerts, and flight-recorder state from a "
                       "functional engine probe run")
    health.add_argument("--csds", type=int, default=2)
    health.add_argument("--method", default="su_o_c",
                        choices=METHODS + EXTENSION_METHODS)
    health.add_argument("--ratio", type=float, default=0.02,
                        help="SmartComp volume ratio")
    health.add_argument("--steps", type=int, default=5,
                        help="probe training steps per report "
                             "(default 5)")
    health.add_argument("--dump-dir", default="flightrec",
                        help="directory for automatic flight-recorder "
                             "incident dumps (default flightrec/)")
    health.add_argument("--once", action="store_true",
                        help="render one report and exit (the default; "
                             "kept explicit for scripting symmetry with "
                             "top --once)")
    health.add_argument("--watch", action="store_true",
                        help="re-run the probe and redraw every "
                             "--interval seconds until Ctrl-C")
    health.add_argument("--interval", type=float, default=2.0,
                        help="refresh period for --watch (default 2)")
    _add_engine_options(health)

    trace = commands.add_parser(
        "trace", help="export a Chrome trace-event JSON for Perfetto")
    _add_scenario_options(trace, csds=6)
    trace.add_argument("--out", default=None,
                       help="output path (default "
                            "<model>-<method>.trace.json)")
    trace.add_argument("--skip-functional", action="store_true",
                       help="omit the tiny functional-engine proxy run "
                            "(trace will contain only the sim-time "
                            "domain)")
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
    and ``observe`` take exactly these)."""
    subparser.add_argument("--model", default="gpt2-4.0b")
    subparser.add_argument("--csds", type=int, default=csds)
    subparser.add_argument("--method", default="su_o_c",
                           choices=METHODS + EXTENSION_METHODS)
    subparser.add_argument("--gpu", default="a5000", choices=sorted(GPUS))
    subparser.add_argument("--ratio", type=float, default=0.02,
                           help="SmartComp volume ratio")


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
    engine (``health``, ``trace``, ``scenario``).

    One definition keeps the flags byte-identical (names, defaults,
    help) across them.  Defaults are None so ``scenario`` can tell
    "explicitly thread" from "unset" and leave a campaign's own choice
    alone; ``health`` and ``trace`` fall back to thread / phased /
    recompute.
    """
    subparser.add_argument(
        "--backend", default=None,
        choices=("thread", "process", "auto"),
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
        "--activation-offload", default=None,
        choices=("recompute", "spill"),
        help="boundary-activation policy for checkpointed losses: "
             "recompute (keep in host memory) or spill (write to the "
             "SSD-backed spill store, async-prefetch before "
             "backward); bit-identical either way (default recompute)")


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


def _render_fault_stats(stats) -> str:
    injected = sum(stats["injected"].values())
    return (f"faults: {injected} injected "
            f"({', '.join(f'{k}={v}' for k, v in sorted(stats['injected'].items())) or 'none'}), "
            f"{stats['retries']} retries, "
            f"{stats['demotions']} demotion(s), "
            f"{stats['degraded_steps']} degraded step(s)")


def _cmd_list_models(_args) -> int:
    print(f"{'name':<14} {'family':<8} {'params':>10} {'dim':>6} "
          f"{'layers':>7}")
    for name in sorted(ZOO):
        spec = ZOO[name]
        print(f"{name:<14} {spec.family:<8} {spec.billions:>9.2f}B "
              f"{spec.hidden_dim:>6} {spec.num_layers:>7}")
    return 0


def _cmd_simulate(args) -> int:
    system, workload = resolve(args.model, args.csds, args.gpu,
                               batch_size=args.batch_size,
                               optimizer=args.optimizer)
    schedule = args.schedule or "phased"
    observed = observe(system, workload, args.method,
                       compression_ratio=args.ratio, schedule=schedule)
    breakdown = observed.breakdown
    base = simulate_iteration(system, workload, "baseline")
    print(f"model {args.model}, {args.csds} device(s), {args.gpu}, "
          f"method {args.method}"
          + ("" if schedule == "phased" else f", {schedule} schedule"))
    print(f"  FW              {breakdown.forward:8.3f} s")
    print(f"  BW + grad       {breakdown.backward_grad:8.3f} s")
    print(f"  update + opt    {breakdown.update:8.3f} s")
    print(f"  iteration       {breakdown.total:8.3f} s")
    if args.method != "baseline":
        print(f"  speedup vs BASE {breakdown.speedup_over(base):8.2f} x")
    if args.metrics:
        registry = telemetry.MetricsRegistry()
        telemetry.record_channel_metrics(
            registry, observed.channels,
            horizon=breakdown.total, method=args.method)
        print()
        print(registry.render_prometheus(), end="")
    return 0


def _cmd_top(args) -> int:
    slo_rules = (telemetry.load_slo_rules(args.slo)
                 if args.slo is not None else None)

    def build() -> Observation:
        if args.trace is not None:
            return Observation.from_chrome_trace(args.trace)
        schedule = args.schedule or "phased"
        observed = observe(*resolve(args.model, args.csds, args.gpu),
                           args.method, compression_ratio=args.ratio,
                           schedule=schedule)
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
        return report, telemetry.render_top(report, slo_rules=slo_rules)

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
        telemetry.record_attribution_metrics(
            registry, report.attribution, source=report.source)
        print()
        print(registry.render_prometheus(), end="")
    return 0


def _cmd_whatif(args) -> int:
    schedule = args.schedule or "phased"
    if args.interleave and schedule == "interleaved":
        print("--interleave projects the schedule change from a phased "
              "trace; drop --schedule interleaved (the change is "
              "already applied there)")
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

    observed = observe(*resolve(args.model, args.csds, args.gpu),
                       args.method, compression_ratio=args.ratio,
                       schedule=schedule)
    graph, report = observed.graph, observed.critpath
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

    print(f"what-if observatory — sim:{args.model}/{args.method} "
          f"({args.csds} CSDs, {args.gpu}"
          + ("" if schedule == "phased" else f", {schedule}") + ")")
    print(f"step time {graph.step_seconds:.3f} s")
    print(report.render(top=args.top))

    interventions = [telemetry.scale(channel, factor)
                     for channel, factor in scales]
    if args.add_csds is not None:
        interventions.append(telemetry.add_csds(args.add_csds))
    if args.compression_ratio is not None:
        interventions.append(telemetry.compression_ratio(
            args.compression_ratio, baseline=args.ratio))
    if args.interleave:
        interventions.append(telemetry.interleave())
    if not interventions:
        interventions = telemetry.default_interventions(
            graph, ratio=args.ratio)
    projections = telemetry.rank_interventions(graph, interventions)
    print(telemetry.render_projections(projections))

    validations = []
    exit_code = 0
    if args.validate:
        if args.interleave:
            validations.append(validate_interleave(observed))
        # Without explicit --scale flags (and not in interleave mode),
        # probe the busiest resource — the one whose projection a
        # reader is most likely to act on.
        targets = scales if (scales or args.interleave) \
            else [(graph.resources()[0], 1.5)]
        validations += [validate_scale(observed, channel, factor)
                        for channel, factor in targets]
        for validation in validations:
            ok = validation.error <= args.max_error
            print(("PASS " if ok else "FAIL ") + validation.render())
            if not ok:
                exit_code = 1
        if exit_code == 0:
            print(f"validation: all projections within "
                  f"{args.max_error:.0%} of the DES re-run")
    if args.jsonl is not None:
        telemetry.write_critpath_jsonl(
            args.jsonl, report, projections=projections,
            validations=validations,
            meta={"source": "sim", "model": args.model,
                  "method": args.method, "csds": args.csds,
                  "gpu": args.gpu, "ratio": args.ratio,
                  "schedule": schedule})
        print(f"[critpath events: {args.jsonl}]")
    return exit_code


def _run_functional_proxy(num_csds: int, method: str, ratio: float,
                          workers: Optional[int] = None,
                          fault_plan: Optional[FaultPlan] = None,
                          steps: int = 1,
                          dump_dir: Optional[str] = None,
                          slo_rules: Optional[list] = None,
                          backend: str = "thread",
                          schedule: str = "phased",
                          activation_offload: str = "recompute") -> dict:
    """Train steps of a tiny model through the functional engine.

    The proxy exists so the exported trace's wall-clock process contains
    real engine / handler / storage spans (worker threads included); the
    model is deliberately tiny because the span *structure*, not the
    duration, is what the timeline view is for.  Per-CSD work defaults
    to one worker per proxy device — regardless of the host's core
    count — so the exported timeline shows the device updates on
    distinct ``csd-worker`` thread lanes.

    With a fault plan, the same run doubles as the chaos smoke: retries,
    backoffs and demotions land in the trace, and the returned dict
    summarizes them (``fault_stats``) alongside the engine's step-health
    view (``health``).  ``dump_dir`` enables automatic flight-recorder
    dumps on incidents; ``slo_rules`` replaces the default SLO rule set.
    """
    import numpy as np

    from .api import create_engine
    from .runtime import TrainingConfig

    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 32, size=(4, 16))
    labels = rng.integers(0, 2, size=4)
    from .nn import SequenceClassifier, bert_config
    model = SequenceClassifier(
        bert_config(vocab_size=32, dim=32, num_layers=2, num_heads=2,
                    max_seq_len=16), num_classes=2, seed=0)
    proxy_csds = min(num_csds, 2)
    config = TrainingConfig(
        optimizer="adam", optimizer_kwargs={"lr": 1e-3},
        subgroup_elements=4096,
        compression_ratio=ratio if method in ("su_o_c", "su_o_c_q")
        else None,
        use_transfer_handler=method != "su",
        parallel_csds=workers if workers else proxy_csds,
        num_csds=proxy_csds,
        parallel_backend=backend,
        schedule=schedule,
        activation_offload=activation_offload,
        fault_plan=fault_plan,
        flight_dump_dir=dump_dir,
        slo_rules=slo_rules)
    with tempfile.TemporaryDirectory() as workdir:
        with create_engine("smart", model, lambda m, t, l: m.loss(t, l),
                           workdir, config=config) as engine:
            for _ in range(steps):
                engine.train_step(tokens, labels)
            return {"fault_stats": engine.fault_stats(),
                    "health": engine.health_summary(),
                    "num_csds": proxy_csds}


def _cmd_trace(args) -> int:
    out = args.out or f"{args.model}-{args.method}.trace.json"
    system, workload = resolve(args.model, args.csds, args.gpu)
    fault_plan = _resolve_fault_plan(args)
    proxy = None
    with telemetry.session() as session:
        with telemetry.trace_span("des.simulate", model=args.model,
                                  method=args.method, csds=args.csds):
            observed = observe(system, workload, args.method,
                               compression_ratio=args.ratio,
                               schedule=args.schedule or "phased")
            trace = observed.trace
        if not args.skip_functional:
            with telemetry.trace_span("functional.proxy",
                                      method=args.method,
                                      chaos=fault_plan is not None):
                proxy = _run_functional_proxy(
                    args.csds, args.method, args.ratio,
                    workers=args.workers, fault_plan=fault_plan,
                    steps=3 if fault_plan is not None else 1,
                    dump_dir="flightrec" if fault_plan is not None
                    else None, slo_rules=_resolve_slo_rules(args),
                    backend=args.backend or "thread",
                    schedule=args.schedule or "phased",
                    activation_offload=args.activation_offload
                    or "recompute")
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
    if proxy is not None and fault_plan is not None:
        print(_render_fault_stats(proxy["fault_stats"]))
        for path in proxy["health"].get("dumps", []):
            print(f"[flight dump: {path}]")
    print("open it at https://ui.perfetto.dev or chrome://tracing")
    if args.metrics:
        print()
        print(session.registry.render_prometheus(), end="")
    return 0


def _render_health_report(result: dict) -> str:
    """Render a proxy run's health summary dict for the terminal."""
    health = result["health"]
    signals = health["signals"]
    lines = [f"step-health signals (EWMA over {result['num_csds']}-CSD "
             "proxy run):"]
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
    lines.append(_render_fault_stats(result["fault_stats"]))
    return "\n".join(lines)


def _cmd_health(args) -> int:
    slo_rules = _resolve_slo_rules(args)
    fault_plan = _resolve_fault_plan(args)

    def probe() -> dict:
        with telemetry.session():
            return _run_functional_proxy(
                args.csds, args.method, args.ratio, workers=args.workers,
                fault_plan=fault_plan, steps=args.steps,
                dump_dir=args.dump_dir, slo_rules=slo_rules,
                backend=args.backend or "thread",
                schedule=args.schedule or "phased",
                activation_offload=args.activation_offload
                or "recompute")

    if args.watch and not args.once:
        try:
            while True:
                print("\x1b[2J\x1b[H" + _render_health_report(probe()),
                      flush=True)
                time.sleep(args.interval)
        except KeyboardInterrupt:
            print()
        return 0
    print(_render_health_report(probe()))
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
    "list-models": _cmd_list_models,
    "simulate": _cmd_simulate,
    "top": _cmd_top,
    "whatif": _cmd_whatif,
    "health": _cmd_health,
    "experiment": _cmd_experiment,
    "trace": _cmd_trace,
    "scenario": _cmd_scenario,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
