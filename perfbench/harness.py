"""One workload run: set-up repeats, timed phases, checks, metrics, record.

The harness is the same for every workload.  A workload object offers
``setup()`` (run ``sizes.setups`` times; the median is ``setup_s``),
``closed_unit()`` and ``rung()`` (the timed phases, which
:func:`perfbench.common.run_schedule` interleaves), ``closed_probe()`` (a
short closed-loop rate, used to measure the tracing overhead) and
``results()`` (answers checked, figures per phase).
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import time

import numpy as np

from perfbench import spec
from perfbench.common import Ctx, clock, host_info, peak_rss_mb, run_schedule
from perfbench.tracer import Tracer, self_times

#: Span names timed during set-up; their per-layer figure is the median
#: over the set-up repeats instead of a sum over the timed phases.  The
#: ``baselines.<overlay>.build`` spans count whole (children included):
#: building the skewed model nests ``core.build_skewed_model`` inside.
SETUP_LAYERS = (
    "core.build_skewed_model", "core.adjacency", "store.save_graph", "store.load_graph",
    "store.save_overlay", "store.load_overlay", "serving.demand.draw",
)


def shim_targets():
    """Every public call the traced run times: (owner, attribute, span name)."""
    from repro.baselines import base as baselines_base
    from repro.core import batch_routing, builder, metric_routing
    from repro.monitor import FlightRecorder, Monitor
    from repro.overlay import Network, bulk_dynamics
    from repro.serving import DemandModel, RouteCache, ServingEngine
    from repro.store import graph_store, overlay_store
    from repro.telemetry import P2Quantile

    targets = [
        (ServingEngine, "submit", "serving.engine.submit"),
        (ServingEngine, "pump", "serving.engine.pump"),
        (RouteCache, "lookup", "serving.cache.lookup"),
        (RouteCache, "insert", "serving.cache.insert"),
        (DemandModel, "draw", "serving.demand.draw"),
        (metric_routing.StreamFrontier, "admit", "core.frontier.admit"),
        (metric_routing.StreamFrontier, "step", "core.frontier.step"),
        (metric_routing.StreamFrontier, "take", "core.frontier.take"),
        (metric_routing.StreamFrontier, "release", "core.frontier.release"),
        (P2Quantile, "observe_batch", "telemetry.p2.observe_batch"),
        (Monitor, "after_pump", "monitor.after_pump"),
        (FlightRecorder, "observe_admission", "monitor.recorder.observe_admission"),
        (builder, "build_skewed_model", "core.build_skewed_model"),
        (graph_store, "save_graph", "store.save_graph"),
        (graph_store, "load_graph", "store.load_graph"),
        (overlay_store, "save_overlay", "store.save_overlay"),
        (overlay_store, "load_overlay", "store.load_overlay"),
        (bulk_dynamics, "sample_cohort_ids", "overlay.sample_cohort_ids"),
        (bulk_dynamics, "bulk_leave", "overlay.bulk_leave"),
        (bulk_dynamics, "bulk_join", "overlay.bulk_join"),
        (bulk_dynamics, "bulk_repair", "overlay.bulk_repair"),
        (Network, "snapshot", "overlay.snapshot"),
        (batch_routing, "route_many", "core.route_many"),
        (baselines_base, "route_many_overlay", "core.route_many"),
    ]
    # frontier_route_many is imported by name into each caller's module.
    for module in (metric_routing, batch_routing, baselines_base):
        targets.append((module, "frontier_route_many", "core.frontier_route_many"))
    # Every routing metric's target preparation, whichever family routes.
    seen = set()
    stack = [metric_routing.RoutingMetric]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            stack.append(sub)
            if "prepare" in vars(sub) and sub not in seen:
                seen.add(sub)
                targets.append((sub, "prepare", "core.metric.prepare"))
    return targets


def make_workload(name: str, ctx: Ctx):
    if name in ("serve-zipf", "serve-unique"):
        from perfbench.serve_workloads import ServeWorkload

        return ServeWorkload(ctx, unique=name == "serve-unique")
    if name == "churn-mixed":
        from perfbench.churn_workload import ChurnWorkload

        return ChurnWorkload(ctx)
    from perfbench.comparator_workload import ComparatorWorkload

    return ComparatorWorkload(ctx)


def run_workload(name, *, seed, seconds, trace, sizes, out_dir, record_path, root) -> dict:
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(name, seed, seconds, trace, sizes, out_dir, workdir, record_path, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, seed, seconds, trace, sizes, out_dir, workdir, record_path, root) -> dict:
    tracer = Tracer() if trace else None
    ctx = Ctx(seed=seed, seconds=seconds, sizes=sizes, workdir=workdir, tracer=tracer)
    workload = make_workload(name, ctx)
    if tracer is not None:
        tracer.install(shim_targets())
    setup_seconds = []
    for k in range(sizes.setups):
        gc.collect()
        started = clock()
        with ctx.phase(f"setup{k}"):
            workload.setup()
        setup_seconds.append(clock() - started)
    started = clock()
    workload.phases = run_schedule(
        ctx, workload, sizes.open_loop[name], sizes.passes[name]
    )
    run_seconds = clock() - started
    rss = peak_rss_mb()  # before the answer checks add their own arrays
    overhead = None
    if tracer is not None:
        tracer.uninstall()
        overhead = _tracing_overhead(workload, tracer, 0.05 * seconds)
    res = workload.results()

    end_to_end = {
        "setup_s": statistics.median(setup_seconds),
        "lookups_per_s": res["lookups_per_s"],
        "peak_rss_mb": rss,
    }
    attempted = res["attempted"]
    failed = res["failed"]
    layers = dict(res["layers"])
    trace_summary = trace_phases = None
    if tracer is not None:
        times, trace_phases = _layer_times(tracer)
        layers.update(times)
        layers["trace.overhead_ratio"] = overhead
        trace_summary = tracer.write_chrome_trace(
            out_dir / f"trace-{name}-seed{seed}.json"
        )
    units = dict(spec.PER_LAYER)
    if trace:
        metrics = {
            key: {"value": float(layers.get(key, 0.0)), "unit": unit}
            for key, unit in units.items()
        }
    else:
        metrics = {
            key: {"value": float(end_to_end[key]), "unit": unit}
            for key, unit, _, _ in spec.END_TO_END
        }
    line = {
        "correct": bool(res["correct"]),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": name,
        "seed": seed,
        "held_out_seed": spec.HELD_OUT_SEED,
        "seconds": seconds,
        "size": "tiny" if sizes is spec.TINY else "full",
        "trace": bool(trace),
        "host": host_info(root),
        "line": line,
        "end_to_end": end_to_end,
        "layers": layers,
        "setup_seconds": setup_seconds,
        "run_seconds": run_seconds,
        "checks": res["checks"],
        "closed": res["closed"],
        "rungs": res["rungs"],
        "error_count": len(ctx.errors),
        "errors": ctx.errors[:3],
        "trace_file": trace_summary,
        "trace_phases": trace_phases,
    }
    _print_human(name, record, metrics)
    record_path.parent.mkdir(parents=True, exist_ok=True)
    with open(record_path, "a") as fh:
        fh.write(json.dumps(record, default=_json_default) + "\n")
    return {"line": line, "record": record}


def _tracing_overhead(workload, tracer, seconds: float) -> float:
    """Untraced over traced closed-loop rate, from short probes run after
    the timed phases in the order bare, traced, traced, bare."""
    rates = {False: [], True: []}
    for traced in (False, True, True, False):
        if traced:
            tracer.install(shim_targets())
            with tracer.phase_span("probe"):
                rates[True].append(workload.closed_probe(seconds))
            tracer.uninstall()
        else:
            rates[False].append(workload.closed_probe(seconds))
    traced_rate = sum(rates[True])
    return sum(rates[False]) / traced_rate if traced_rate > 0 else float("nan")


def _layer_times(tracer) -> tuple[dict, dict]:
    """Per-layer self times from the spans, plus, per timed phase, its
    wall time and the share of it no child span covers."""
    cols = tracer.columns()
    own = self_times(cols["start"], cols["end"], cols["parent"])
    duration = cols["end"] - cols["start"]
    names = np.array(tracer.names, dtype=object)
    span_names = names[cols["name"]]
    is_phase = np.array([n.startswith("phase:") for n in span_names], dtype=bool)
    phase_of = np.where(cols["phase"] >= 0, cols["phase"], 0)
    phase_names = span_names[phase_of] if len(phase_of) else phase_of
    in_setup = np.array([str(p).startswith("phase:setup") for p in phase_names], dtype=bool)
    in_probe = np.array([p == "phase:probe" for p in phase_names], dtype=bool)
    timed = ~in_setup & ~in_probe & (cols["phase"] >= 0) & ~is_phase
    out = {}
    for nid, label in enumerate(tracer.names):
        if label.startswith("phase:"):
            continue
        mine = cols["name"] == nid
        if label in SETUP_LAYERS or label.startswith("baselines."):
            counted = duration if label.startswith("baselines.") else own
            per_setup = [
                counted[mine & (cols["phase"] == pid)].sum()
                for pid in np.flatnonzero(is_phase)
                if str(span_names[pid]).startswith("phase:setup")
            ]
            value = float(np.median(per_setup)) if per_setup else 0.0
        else:
            value = float(own[mine & timed].sum())
        out[f"{label}_s"] = value
    timed_phases = is_phase & np.array(
        [not (n.startswith("phase:setup") or n == "phase:probe") for n in span_names],
        dtype=bool,
    )
    durations = duration[timed_phases]
    out["trace.uncovered_share"] = (
        float(own[timed_phases].sum() / durations.sum()) if durations.sum() > 0 else 0.0
    )
    out["trace.spans"] = len(tracer)
    phases = {
        str(span_names[pid])[len("phase:"):]: {
            "seconds": float(duration[pid]),
            "uncovered_share": float(own[pid] / duration[pid]) if duration[pid] > 0 else 0.0,
        }
        for pid in np.flatnonzero(timed_phases)
    }
    return out, phases


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


def _print_human(name, record, metrics) -> None:
    print(f"workload {name}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"host {record['host']['cpu_model']} x{record['host']['nproc']}")
    print(f"  set-up seconds: {', '.join(f'{s:.3f}' for s in record['setup_seconds'])}")
    closed = record["closed"]
    if closed:
        print(f"  closed loop: {closed.get('lookups_per_s', 0):,.0f} lookups/s")
    for r in record["rungs"]:
        print(
            f"  rung {r['rate']:>10,.0f}/s{' (ref)' if r['reference'] else '      '}: "
            f"p50 {r['p50_ms']:8.3f} ms  p99 {r['p99_ms']:9.3f} ms  "
            f"n {r['samples']:>8}  failed {r['failed']:>7}  "
            f"done {r['completed_rate']:>10,.0f}/s{'  grows' if r['grows'] else ''}"
        )
    if record["errors"]:
        print(f"  engine errors survived: {record['error_count']} "
              f"(first: {record['errors'][0]['traceback'].strip().splitlines()[-1]})")
    print(f"  checks: {record['checks']}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
