"""What the benchmark measures: workloads, sizes, offered rates and metrics.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``), so the workload list, the
metric names, units and bounds live in exactly one place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: A seed kept out of every run made while the benchmark was written, so
#: a later speed claim can be checked on inputs nobody tuned against.
HELD_OUT_SEED = 7919

RUN_SECONDS = 12

#: Tail exponent of the ``PowerLaw`` peer and key distribution every
#: workload's skewed model uses.
ALPHA = 2.5

WORKLOADS = {
    "serve-zipf": (
        "skewed demand whose working set fits the 64k-entry route cache, with "
        "telemetry, Monitor and a 1-in-64 FlightRecorder attached: cache hits, "
        "admission and monitor hooks do most of the work"
    ),
    "serve-unique": (
        "fresh power-law keys past the cache's capacity, no monitoring: the cache "
        "never hits, so target preparation, the frontier kernel and the cache's "
        "evict path do the work"
    ),
    "churn-mixed": (
        "10% leave/join/repair rounds on a live 1e5-peer overlay beside open-loop "
        "reads routed on each round's snapshot: the only workload that runs "
        "repro.overlay"
    ),
    "route-comparators": (
        "batch routing over the seven baselines, the skewed model and a hub-degree "
        "ring: the other routing-metric families and the kernel layout choice"
    ),
}

END_TO_END = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("lookups_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

BASELINE_NAMES = (
    "chord", "pastry", "pgrid", "symphony", "mercury", "can", "ws", "skewed", "hub",
)

PER_LAYER = [
    # serving.engine
    ("serving.engine.submit_s", "s"),
    ("serving.engine.pump_s", "s"),
    ("serving.backlog_max", "count"),
    ("serving.generator_lag_ms", "ms"),
    ("serving.engine_errors", "count"),
    ("serving.latency_p999_ms", "ms"),
    ("serving.latency_p999_samples", "count"),
    # serving.cache
    ("serving.cache.lookup_s", "s"),
    ("serving.cache.insert_s", "s"),
    ("serving.cache.hit_ratio", "1"),
    ("serving.cache.evictions", "count"),
    # core.metric_routing
    ("core.metric.prepare_s", "s"),
    ("core.frontier.admit_s", "s"),
    ("core.frontier.step_s", "s"),
    ("core.frontier.take_s", "s"),
    ("core.frontier.release_s", "s"),
    ("core.frontier.rounds", "count"),
    ("core.frontier.fill_ratio", "1"),
    ("core.hops_mean", "hops"),
    ("core.route_many_s", "s"),
    # telemetry + monitor
    ("telemetry.p2.observe_batch_s", "s"),
    ("monitor.after_pump_s", "s"),
    ("monitor.recorder.observe_admission_s", "s"),
    # builders + store (set-up)
    ("core.build_skewed_model_s", "s"),
    ("core.adjacency_s", "s"),
    ("store.save_graph_s", "s"),
    ("store.load_graph_s", "s"),
    ("store.save_overlay_s", "s"),
    ("store.load_overlay_s", "s"),
    ("serving.demand.draw_s", "s"),
    # overlay
    ("overlay.sample_cohort_ids_s", "s"),
    ("overlay.bulk_leave_s", "s"),
    ("overlay.bulk_join_s", "s"),
    ("overlay.bulk_repair_s", "s"),
    ("overlay.snapshot_s", "s"),
    ("overlay.events", "count"),
    ("overlay.dangling_links", "count"),
    ("overlay.churn_events_per_s", "1/s"),
    # baselines
    *[
        (f"baselines.{name}.{stat}", unit)
        for name in BASELINE_NAMES
        for stat, unit in (
            ("build_s", "s"),
            ("lookups_per_s", "1/s"),
            ("fill_ratio", "1"),
            ("hops_mean", "hops"),
        )
    ],
    # the tracing itself
    ("trace.overhead_ratio", "1"),
    ("trace.uncovered_share", "1"),
    ("trace.spans", "count"),
]


@dataclass(frozen=True)
class Rung:
    """One fixed offered rate of the open-loop phases."""

    rate: float
    share: float  # fraction of the run's seconds spent offering it
    reference: bool = False


@dataclass(frozen=True)
class Sizes:
    """Every input size; ``FULL`` is the benchmark, ``TINY`` the smoke run."""

    serve_n: int = 200_000
    serve_users: int = 100_000
    serve_cache: int = 65_536
    serve_pool: int = 1_000_000
    unique_pool: int = 600_000
    zipf_warmup: int = 1_100_000  # one full pass over the replayed serve_pool
    unique_warmup: int = 70_000
    churn_n: int = 100_000
    churn_fraction: float = 0.10
    churn_read_batch: int = 32_768
    churn_pool: int = 400_000
    baseline_n: int = 4096
    comparator_skewed_n: int = 100_000
    hub_n: int = 100_000
    comparator_batch: int = 4096
    setups: int = 3
    checks_per_overlay: int = 64
    churn_closed_rounds: int = 4
    comparator_closed_cycles: int = 6
    #: serve-unique's closed unit: one whole resize cycle of the route
    #: cache's dict at capacity.  A full 64k-entry dict keeps 2/3 of a
    #: 2**18-slot table usable, so it compacts every 174_762 - 65_536
    #: inserts, and the eviction scan (defect 1 in NOTES.md) grows
    #: through each cycle; a unit of one cycle averages the whole
    #: saw-tooth wherever in it the unit starts.
    unique_closed_unit: int = 109_226
    #: Lookups/s used to turn a closed phase's share of the run into a
    #: fixed lookup count (a count, unlike a time, gives every run the
    #: same cache history).
    closed_rate_hint: dict = field(
        default_factory=lambda: {"serve-zipf": 500_000, "serve-unique": 30_000}
    )
    #: Open-loop rates in lookups/s: the reference rate the latency
    #: figures come from, and a rate that overloads the workload on
    #: purpose (it shows how the program fails; no end-to-end metric
    #: reads it).
    open_loop: dict = field(
        default_factory=lambda: {
            "serve-zipf": (Rung(100_000, 0.40, reference=True), Rung(1_600_000, 0.05)),
            "serve-unique": (Rung(3_000, 0.40, reference=True), Rung(160_000, 0.05)),
            "churn-mixed": (Rung(20_000, 0.35, reference=True), Rung(160_000, 0.20)),
            "route-comparators": (Rung(10_000, 0.40, reference=True), Rung(160_000, 0.08)),
        }
    )
    #: How many (reference segment, closed unit) passes a run makes; see
    #: :func:`perfbench.common.run_schedule`.
    passes: dict = field(
        default_factory=lambda: {
            # serve-unique's route cache slows down through each dict
            # resize cycle, so every extra pass lands on a slower point
            # of it and its figures drift with the pass count.
            "serve-zipf": 4, "serve-unique": 2, "churn-mixed": 3, "route-comparators": 4,
        }
    )


FULL = Sizes()

TINY = Sizes(
    serve_n=4096,
    serve_users=2000,
    serve_cache=1024,
    serve_pool=40_000,
    unique_pool=40_000,
    zipf_warmup=4096,
    unique_warmup=3000,
    unique_closed_unit=1706,  # 2/3 of 2**12 slots, less the 1024 entries
    churn_n=4096,
    churn_read_batch=1024,
    churn_pool=20_000,
    baseline_n=512,
    comparator_skewed_n=4096,
    hub_n=4096,
    comparator_batch=256,
    setups=2,
    checks_per_overlay=16,
    churn_closed_rounds=2,
    comparator_closed_cycles=2,
    closed_rate_hint={"serve-zipf": 20_000, "serve-unique": 5_000},
    open_loop={
        "serve-zipf": (Rung(2_000, 0.2, reference=True), Rung(400_000, 0.1)),
        "serve-unique": (Rung(2_000, 0.2, reference=True), Rung(400_000, 0.1)),
        "churn-mixed": (Rung(2_000, 0.3, reference=True), Rung(50_000, 0.2)),
        "route-comparators": (Rung(2_000, 0.2, reference=True), Rung(100_000, 0.1)),
    },
    passes={"serve-zipf": 2, "serve-unique": 2, "churn-mixed": 2, "route-comparators": 2},
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this benchmark is run by."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": _per_layer_better(name)}
            for name, unit in PER_LAYER
        ],
    }


def _per_layer_better(name: str) -> str:
    higher = ("lookups_per_s", "hit_ratio", "fill_ratio", "churn_events_per_s")
    return "higher" if name.endswith(higher) else "lower"


def render_benchmark_json() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
