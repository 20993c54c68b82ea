#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --write-spec                     # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics with nothing added to the
program.  ``--trace 1`` is a separate run that installs timing shims on
the program's public calls and reports per-layer self times instead,
plus the tracing overhead; it also writes the spans as Chrome trace
JSON under ``perfbench/out/``.

Every run appends one record (host, seed, code identity, every figure)
to ``perfbench/records/runs.jsonl``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A wrong answer makes the run exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
RECORDS = ROOT / "perfbench" / "records" / "runs.jsonl"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json from perfbench/spec.py and exit")
    return p.parse_args(argv)


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, or refuse to run."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src}; nothing to measure")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench import spec

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.render_benchmark_json())
        return 0
    if args.workload is None:
        raise SystemExit("error: --workload is required")
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    if args.workload == "all":
        return _run_all(args, seconds, spec)
    if args.workload not in spec.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {', '.join(spec.WORKLOADS)} or all"
        )
    _import_program()
    from perfbench.harness import run_workload

    result = run_workload(
        args.workload, seed=args.seed, seconds=seconds, trace=bool(args.trace),
        sizes=spec.FULL, out_dir=OUT, record_path=RECORDS, root=ROOT,
    )
    print(json.dumps(result["line"]))
    return 0 if result["line"]["correct"] else 1


def _run_all(args, seconds, spec) -> int:
    """Every workload, untraced then traced, one child process at a time.

    Each workload gets its own process so its peak memory is its own;
    the children run one after another, never side by side.
    """
    status = 0
    summary = {}
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(seconds),
                "--trace", str(trace),
            ]
            print(f"== {name} trace={trace}", flush=True)
            started = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            line = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or line is None:
                status = 1
            summary[(name, trace)] = line
            print(f"   ({time.perf_counter() - started:.1f}s wall)", flush=True)
    print("== summary")
    for name in spec.WORKLOADS:
        untraced = summary.get((name, 0))
        traced = summary.get((name, 1))
        if not untraced:
            print(f"{name}: failed")
            continue
        for metric, value in untraced["metrics"].items():
            print(f"{name:<18} {metric:<16} {value['value']:>14.4f} {value['unit']}")
        if traced:
            ratio = traced["metrics"].get("trace.overhead_ratio", {}).get("value")
            print(f"{name:<18} tracing overhead (untraced/traced closed-loop rate) {ratio}")
    return status


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    sys.stderr.write(f"[perfbench] {time.perf_counter() - started:.1f}s\n")
    sys.exit(code)
