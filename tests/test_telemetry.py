"""Cross-layer telemetry: primitives, tracing, shard merge, exports.

The guarantees pinned here:

* **primitives** — counters/gauges/timers accumulate and merge exactly;
  the P² quantile estimator is exact while buffering, accurate on large
  streams, and its batched update is a pure function of the input;
* **lifecycle** — helpers are no-ops while disabled, ``enable`` /
  ``disable`` / ``reset`` manage one process-wide registry, and the
  ``REPRO_TELEMETRY`` environment flag opts in at import time;
* **shard merge** — worker deltas captured around a scoped registry
  fold deterministically: merged counters and P² states are
  bit-identical for workers {1, 2, 4} over one dispatch;
* **instrumentation** — the routing kernel publishes the full
  REASON-code histogram (zeros included) and per-batch walk/round
  counters; :func:`summarize_lookups` carries the same stable schema;
* **exports** — JSONL sinks emit valid JSON lines ending in a snapshot,
  and the Prometheus text rendering mangles names correctly.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from repro import telemetry
from repro.core import build_uniform_model, route_many, sample_routes
from repro.distributions import PowerLaw, Uniform
from repro.experiments.cli import main as cli_main
from repro.overlay.stats import summarize_lookups
from repro.parallel import get_executor, route_many_parallel
from repro.telemetry import (
    Counter,
    Gauge,
    MetricsDelta,
    P2Quantile,
    Registry,
    Timer,
    capture,
    merge_deltas,
)
from repro.telemetry.export import render_text, summary_table, write_jsonl

PROBS = (0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(11)
    g = build_uniform_model(n=2048, rng=rng)
    _ = g.adjacency
    return g


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3.0)
        g.set(7.5)
        assert g.value == 7.5

    def test_timer_stats_and_merge(self):
        a, b = Timer(), Timer()
        for s in (0.1, 0.3):
            a.observe(s)
        b.observe(0.2)
        a.merge(b)
        assert a.count == 3
        assert a.total == pytest.approx(0.6)
        assert a.min == pytest.approx(0.1)
        assert a.max == pytest.approx(0.3)
        assert a.mean == pytest.approx(0.2)

    def test_timer_state_roundtrip(self):
        t = Timer()
        t.observe(0.25)
        t.observe(0.75)
        assert Timer.from_state(t.state()).state() == t.state()

    def test_registry_instruments_are_singletons(self):
        r = Registry()
        assert r.counter("a.b") is r.counter("a.b")
        assert r.timer("t") is r.timer("t")
        assert r.quantile("q") is r.quantile("q")


class TestP2Quantile:
    def test_exact_while_buffering(self):
        q = P2Quantile(probs=(0.5,))
        q.observe_batch([3.0, 1.0])
        # 2 observations < 3 markers: exact empirical quantiles.
        assert q.quantile(0.0) == 1.0
        assert q.quantile(1.0) == 3.0
        # Exactly filling the marker lattice keeps the sorted sample.
        q = P2Quantile(probs=(0.5,))
        q.observe_batch([0.3, 0.1, 0.2])
        assert [q.quantile(p) for p in (0.0, 0.5, 1.0)] == [0.1, 0.2, 0.3]

    def test_accuracy_on_large_stream(self):
        rng = np.random.default_rng(0)
        data = rng.exponential(10.0, 100_000)
        q = P2Quantile(probs=PROBS)
        q.observe_batch(data)
        for p in (0.5, 0.9, 0.99):
            true = float(np.quantile(data, p))
            assert q.quantile(p) == pytest.approx(true, rel=0.05)
        # Shorter bounded and heavy-tailed streams: every tracked
        # probability lands near the true quantile, markers in order.
        for truth, n in ((Uniform(), 5_000), (PowerLaw(alpha=1.5, shift=1e-2), 8_000)):
            q = P2Quantile(probs=PROBS)
            q.observe_batch(truth.sample(n, rng))
            estimates = np.array([q.quantile(p) for p in PROBS])
            assert np.all(np.diff(estimates) >= 0)
            assert np.max(np.abs(estimates - truth.ppf(np.array(PROBS)))) < 0.05

    def test_batch_update_is_deterministic(self):
        rng = np.random.default_rng(1)
        data = rng.normal(5.0, 2.0, 20_000)
        a, b = P2Quantile(), P2Quantile()
        a.observe_batch(data)
        b.observe_batch(data)
        assert a.state() == b.state()

    def test_batch_matches_chunked_feed(self):
        # The state is a pure function of the absorbed sub-batches, so a
        # chunked feed aligned with the internal sub-batch boundaries
        # (the marker-lattice fill, then 1024-sample blocks) must land
        # on the identical state.
        rng = np.random.default_rng(2)
        data = rng.random(5_000)
        whole, chunked = P2Quantile(), P2Quantile()
        whole.observe_batch(data)
        fill = whole.n_markers
        chunked.observe_batch(data[:fill])
        for lo in range(fill, len(data), 1024):
            chunked.observe_batch(data[lo : lo + 1024])
        assert whole.state() == chunked.state()

    def test_merge_is_deterministic_and_sane(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1.0, 30_000)
        y = rng.normal(4.0, 1.0, 30_000)
        merged = []
        for _ in range(2):
            a, b = P2Quantile(), P2Quantile()
            a.observe_batch(x)
            b.observe_batch(y)
            a.merge(b)
            merged.append(a)
        assert merged[0].state() == merged[1].state()
        true = float(np.quantile(np.concatenate([x, y]), 0.5))
        assert merged[0].quantile(0.5) == pytest.approx(true, abs=0.5)
        assert merged[0].count == 60_000

    def test_merge_into_empty_adopts_state(self):
        src = P2Quantile()
        src.observe_batch(np.arange(100.0))
        dst = P2Quantile()
        dst.merge(src)
        assert dst.state() == src.state()

    def test_merge_buffering_side_is_exact(self):
        dst = P2Quantile(probs=(0.5,))
        dst.observe_batch(np.arange(50.0))
        src = P2Quantile(probs=(0.5,))
        src.observe_batch([200.0, 300.0])  # still buffering
        dst.merge(src)
        assert dst.count == 52
        assert dst.quantile(1.0) == 300.0

    def test_state_roundtrip(self):
        q = P2Quantile()
        q.observe_batch(np.random.default_rng(4).random(500))
        assert P2Quantile.from_state(q.state()).state() == q.state()

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            P2Quantile(probs=())
        with pytest.raises(ValueError, match="lie in"):
            P2Quantile(probs=(0.0, 0.5))
        with pytest.raises(ValueError, match="increasing"):
            P2Quantile(probs=(0.5, 0.5))
        with pytest.raises(ValueError, match="no observations"):
            P2Quantile().quantile(0.5)
        q = P2Quantile()
        q.observe(1.0)
        with pytest.raises(ValueError, match="lie in"):
            q.quantile(1.5)


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_disabled_helpers_are_noops(self):
        assert not telemetry.enabled()
        telemetry.count("x")
        telemetry.gauge_set("x", 1.0)
        telemetry.observe("x", 1.0)
        telemetry.timer_observe("x", 1.0)
        telemetry.trace("x", a=1)
        with telemetry.time_block("x"):
            pass
        with telemetry.span("x"):
            pass
        assert telemetry.active_registry() is None

    def test_enable_disable_reset(self):
        registry = telemetry.enable()
        assert telemetry.enabled()
        assert telemetry.enable() is registry  # idempotent
        telemetry.count("demo", 3)
        assert registry.counter("demo").value == 3
        fresh = telemetry.reset()
        assert fresh is not registry
        assert telemetry.get_registry().counter("demo").value == 0
        telemetry.disable()
        assert not telemetry.enabled()

    def test_render_helpers_require_enabled(self):
        with pytest.raises(RuntimeError):
            telemetry.summary_table()
        with pytest.raises(RuntimeError):
            telemetry.render_text()

    def test_env_var_opt_in(self):
        code = (
            "from repro import telemetry; "
            "print(telemetry.enabled())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": "src", "REPRO_TELEMETRY": "1", "PATH": "/usr/bin"},
            capture_output=True,
            text=True,
            cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        )
        assert out.stdout.strip() == "True", out.stderr


# ----------------------------------------------------------------------
# shard merge
# ----------------------------------------------------------------------
class TestShardMerge:
    def test_capture_returns_scoped_delta(self):
        telemetry.enable()
        telemetry.count("outer", 1)
        with capture() as box:
            telemetry.count("inner", 5)
            telemetry.timer_observe("inner.t", 0.5)
            telemetry.observe_batch("inner.q", np.arange(100.0))
        delta = box.delta
        assert isinstance(delta, MetricsDelta)
        assert delta.counters == {"inner": 5}
        assert "inner.t" in delta.timers
        assert "inner.q" in delta.quantiles
        assert delta.wall_seconds >= 0.0
        # The capture never leaked into the owner registry...
        registry = telemetry.get_registry()
        assert "inner" not in registry.counters
        # ...and the owner registry was restored afterwards.
        telemetry.count("outer", 1)
        assert registry.counter("outer").value == 2

    def test_merge_deltas_sums_counters_in_order(self):
        deltas = []
        for value in (2, 3, 5):
            telemetry.enable()
            with capture() as box:
                telemetry.count("c", value)
            deltas.append(box.delta)
        merged = merge_deltas(deltas)
        assert merged.counters == {"c": 10}

    def test_workers_124_merge_bit_identical(self, graph):
        rng = np.random.default_rng(5)
        sources = rng.integers(0, graph.n, 6000).astype(np.int64)
        keys = rng.random(6000)
        views = {}
        for workers in (1, 2, 4):
            telemetry.reset()
            telemetry.enable()
            batch = route_many_parallel(
                graph, sources, keys, executor=get_executor(workers)
            )
            registry = telemetry.get_registry()
            counters = {
                name: c.value
                for name, c in registry.counters.items()
                if name.startswith(("routing.", "parallel.shards"))
            }
            quantiles = {
                name: q.state() for name, q in registry.quantiles.items()
            }
            views[workers] = (counters, quantiles, int(batch.hops.sum()))
            telemetry.disable()
        assert views[1][0]["routing.walks"] == 6000
        assert views[2] == views[1]
        assert views[4] == views[1]

    def test_per_shard_walls_recorded(self, graph):
        rng = np.random.default_rng(6)
        sources = rng.integers(0, graph.n, 6000).astype(np.int64)
        keys = rng.random(6000)
        telemetry.enable()
        route_many_parallel(graph, sources, keys, executor=get_executor(1))
        registry = telemetry.get_registry()
        shards = registry.counter("parallel.shards").value
        assert shards >= 2
        assert registry.timer("parallel.shard_wall").count == shards


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_routing_reason_histogram_has_full_schema(self, graph):
        telemetry.enable()
        rng = np.random.default_rng(7)
        route_many(graph, rng.integers(0, graph.n, 200), rng.random(200))
        registry = telemetry.get_registry()
        for label in ("arrived", "stuck", "max_hops"):
            assert f"routing.reason.{label}" in registry.counters
        total = sum(
            registry.counter(f"routing.reason.{label}").value
            for label in ("arrived", "stuck", "max_hops")
        )
        assert total == registry.counter("routing.walks").value == 200
        assert registry.quantile("routing.hops").count == 200

    def test_summarize_lookups_batch_reasons_schema(self, graph):
        rng = np.random.default_rng(8)
        stats = summarize_lookups(
            route_many(graph, rng.integers(0, graph.n, 100), rng.random(100))
        )
        assert set(stats.reasons) == {"arrived", "stuck", "max_hops"}
        assert sum(stats.reasons.values()) == 100
        assert stats.reasons["arrived"] == round(stats.success_rate * 100)

    def test_summarize_lookups_scalar_reasons_schema(self, graph):
        rng = np.random.default_rng(9)
        stats = summarize_lookups(sample_routes(graph, 50, rng))
        assert set(stats.reasons) == {"arrived", "stuck", "max_hops"}
        assert sum(stats.reasons.values()) == 50

    def test_disabled_routing_records_nothing(self, graph):
        rng = np.random.default_rng(10)
        route_many(graph, rng.integers(0, graph.n, 50), rng.random(50))
        assert telemetry.active_registry() is None


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------
class TestExports:
    def _populated_registry(self) -> Registry:
        registry = telemetry.enable()
        telemetry.count("routing.walks", 7)
        telemetry.timer_observe("parallel.publish", 0.125)
        telemetry.observe_batch("routing.hops", np.arange(64.0))
        telemetry.trace("routing.batch", walks=7)
        return registry

    def test_render_text_prometheus_shapes(self):
        registry = self._populated_registry()
        text = render_text(registry)
        assert "repro_routing_walks_total 7" in text
        assert "repro_parallel_publish_seconds_count 1" in text
        assert 'repro_routing_hops{quantile="0.5"}' in text

    def test_summary_table_lists_every_instrument(self):
        registry = self._populated_registry()
        table = summary_table(registry)
        assert "routing.walks" in table
        assert "parallel.publish" in table
        assert "routing.hops" in table

    def test_summary_table_empty_registry(self):
        table = summary_table(Registry())
        assert "no metrics" in table

    def test_write_jsonl(self, tmp_path):
        registry = self._populated_registry()
        path = tmp_path / "tel.jsonl"
        lines_written = write_jsonl(path, registry)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == lines_written
        assert lines[0]["event"] == "routing.batch"
        assert lines[-1]["event"] == "metrics_snapshot"
        assert lines[-1]["counters"]["routing.walks"] == 7

    def test_jsonl_sink_streams_cli_run(self, tmp_path, capsys, graph):
        store = tmp_path / "snap"
        jsonl = tmp_path / "cli.jsonl"
        status = cli_main(
            [
                "build",
                "--store", str(store),
                "--n", "512",
                "--telemetry", str(jsonl),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "construction.bulk_links" in out
        lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert lines[-1]["event"] == "metrics_snapshot"
        assert not telemetry.enabled()  # the CLI cleaned up after itself

    def test_cli_telemetry_summary_without_jsonl(self, tmp_path, capsys):
        store = tmp_path / "snap"
        assert cli_main(["build", "--store", str(store), "--n", "256"]) == 0
        capsys.readouterr()
        status = cli_main(
            ["load", "--store", str(store), "--routes", "64", "--telemetry"]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "routing.walks" in out
        assert "routing.hops" in out


class TestTraceCapAndSanitization:
    """PR-10 guarantees: bounded trace buffers that count their drops,
    and a Prometheus exposition that stays scrapeable for any name."""

    def test_default_trace_cap(self):
        registry = telemetry.enable()
        assert registry.trace_cap == telemetry.DEFAULT_TRACE_CAP

    def test_enable_arg_sets_trace_cap(self):
        registry = telemetry.enable(trace_cap=16)
        assert registry.trace_cap == 16
        # Re-enabling with a new cap rebinds the live buffer.
        registry = telemetry.enable(trace_cap=8)
        assert registry.trace_cap == 8

    def test_env_var_sets_trace_cap(self, monkeypatch):
        monkeypatch.setenv(telemetry.ENV_TRACE_CAP, "32")
        registry = telemetry.enable()
        assert registry.trace_cap == 32

    def test_invalid_trace_cap_rejected(self):
        with pytest.raises(ValueError):
            telemetry.enable(trace_cap=0)

    def test_eviction_counts_dropped_events(self):
        registry = telemetry.enable(trace_cap=4)
        for i in range(10):
            telemetry.trace("evt", i=i)
        assert len(registry.events) == 4
        assert registry.dropped_events == 6
        assert registry.counters["telemetry.events.dropped"].value == 6
        # The newest events are the ones retained.
        assert [e.fields["i"] for e in registry.events] == [6, 7, 8, 9]

    def test_shrinking_cap_keeps_newest(self):
        registry = telemetry.enable(trace_cap=8)
        for i in range(8):
            telemetry.trace("evt", i=i)
        registry.set_trace_cap(3)
        assert [e.fields["i"] for e in registry.events] == [5, 6, 7]

    def test_summary_table_reports_drops(self):
        registry = telemetry.enable(trace_cap=2)
        for i in range(5):
            telemetry.trace("evt", i=i)
        assert "dropped" in summary_table(registry)

    def test_gauges_render_with_type_line(self):
        registry = telemetry.enable()
        telemetry.gauge_set("monitor.window.hops_mean", 6.5)
        text = render_text(registry)
        assert "# TYPE repro_monitor_window_hops_mean gauge" in text
        assert "repro_monitor_window_hops_mean 6.5" in text

    def test_metric_names_are_sanitized(self):
        registry = telemetry.enable()
        telemetry.count("weird name/with-bad%chars", 3)
        text = render_text(registry)
        assert "repro_weird_name_with_bad_chars_total 3" in text
        # Nothing outside the Prometheus metric-name alphabet survives.
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            metric = line.split("{")[0].split(" ")[0]
            assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", metric), metric

    def test_label_values_are_escaped(self):
        from repro.telemetry.export import _escape_label_value, _label

        assert _escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        assert _label("bad name", 'v"1') == 'bad_name="v\\"1"'
