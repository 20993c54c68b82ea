#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not of the program).

Checks the self-time arithmetic and the shim install/uninstall on
made-up spans, that ``BENCHMARK.json`` matches ``perfbench/spec.py``,
then runs every workload at tiny sizes, untraced and traced,
and requires correct answers and a complete metric line.

    python3 perfbench/smoke.py        # about a minute on two cores
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import spec  # noqa: E402
from perfbench.tracer import Tracer, self_times  # noqa: E402


def check_self_times() -> None:
    # Span 0 is tiled by three children (two overlap), so its self time
    # is zero; span 4 keeps what its one child leaves uncovered, and a
    # child sticking out of its parent is clipped to it.
    start = [0.0, 0.0, 3.0, 8.0, 20.0, 25.0, 25.5, 29.0]
    end = [10.0, 4.0, 8.0, 10.0, 30.0, 26.0, 25.7, 31.0]
    parent = [-1, 0, 0, 0, -1, 4, 5, 4]
    got = self_times(start, end, parent)
    want = [0.0, 4.0, 5.0, 2.0, 8.0, 0.8, 0.2, 2.0]
    if not np.allclose(got, want):
        raise AssertionError(f"self times {got.tolist()} != {want}")
    if self_times([0.0], [1.0], [-1]).tolist() != [1.0]:
        raise AssertionError("a span with no children keeps its whole duration")


def check_shims() -> None:
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def g(self):
            return "child"

    tracer = Tracer()
    tracer.install([(Child, "f", "x.f"), (Child, "g", "x.g")])
    obj = Child()
    with tracer.phase_span("p"):
        if (obj.f(), obj.g()) != ("base", "child"):
            raise AssertionError("shims must pass results through")
    tracer.uninstall()
    if "f" in vars(Child) or Child.g.__name__ != "g":
        raise AssertionError("uninstall must restore the classes exactly")
    cols = tracer.columns()
    if len(cols["start"]) != 3 or list(cols["parent"]) != [-1, 0, 0]:
        raise AssertionError(f"unexpected span tree {cols['parent'].tolist()}")


def check_spec() -> None:
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    if on_disk != spec.benchmark_json():
        raise AssertionError("BENCHMARK.json is stale: run perfbench/run.py --write-spec")


def run_tiny_workloads() -> None:
    from perfbench.harness import run_workload

    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as tmp:
        out = Path(tmp)
        for name in spec.WORKLOADS:
            for trace in (False, True):
                result = run_workload(
                    name, seed=3, seconds=2.0, trace=trace, sizes=spec.TINY,
                    out_dir=out, record_path=out / "records.jsonl", root=ROOT,
                )
                line = result["line"]
                want = (
                    [n for n, _ in spec.PER_LAYER]
                    if trace
                    else [n for n, *_ in spec.END_TO_END]
                )
                if not line["correct"] or list(line["metrics"]) != want:
                    raise AssertionError(f"{name} trace={trace}: {line}")
                if line["attempted"] < 1:
                    raise AssertionError(f"{name}: nothing attempted")
                print(f"smoke: {name} trace={int(trace)} ok", flush=True)


def main() -> int:
    check_self_times()
    check_shims()
    check_spec()
    print("smoke: self times, shims and spec ok", flush=True)
    run_tiny_workloads()
    return 0


if __name__ == "__main__":
    sys.exit(main())
