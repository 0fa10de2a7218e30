"""Benchmark of iidtest on three workloads.

    python3 perfbench/run.py --workload power_cards --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it measures the end-to-end metrics of
BENCHMARK.json on untraced passes; with ``--trace 1`` it runs traced
passes and reports the per-layer metrics. Every metric is printed by
name, unit and sample count; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. A run record with the
machine, versions, seeds, sizes and timing statistics goes to
perfbench/out/. Exits 1 when an output check fails or the package
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 10  # fresh interpreters per run, the first also runs a pass
# Throughput uses this quantile of the pass wall times, not the median.
# On a shared host the interpreter runs up to ~1.6x faster in stretches
# of 5-30 s while neighbours idle; the slow side is the reproducible one
# (ten runs of power_cards on a 2-vCPU Xeon VM: quartile spread 10% at
# the median, 4% here).
PASS_QUANTILE = 0.9
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170


def load_package():
    """Import iidtest from this checkout's sources, never from elsewhere."""
    package = SRC / "iidtest"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import iidtest

    if Path(iidtest.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported iidtest from {iidtest.__file__}, not {package}")
    return iidtest


def summarize(samples: list[float]) -> dict:
    """Median, quartiles, and the highest percentile that still has at
    least ten samples beyond it (None below twenty samples)."""
    s = sorted(samples)
    n = len(s)
    q1, _, q3 = statistics.quantiles(s, n=4) if n > 1 else (s[0],) * 3
    out = {"count": n, "median": statistics.median(s), "q1": q1, "q3": q3,
           "tail_pct": None, "tail_value": None}
    if n >= 20:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail_value"] = s[n - 11]
    return out


class Passes:
    """Attempted and failed passes, with the first output digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def run(self, step) -> object:
        """Run one pass; an exception or a failed check counts it failed."""
        self.attempted += 1
        try:
            result = step()
        except Exception:  # noqa: BLE001 - every failure of a pass is counted
            self.failed += 1
            print(f"perfbench: pass {self.attempted} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        return result

    def checked(self, wl, inputs, out, codes, stdout) -> None:
        digest = wl.check(inputs, out, codes, stdout)
        self.digest = self.digest or digest


def run_child(config_path: str, commands: list[list[str]]) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(SRC), config_path,
         *(json.dumps(argv) for argv in commands)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    if Path(doc["iidtest_file"]).resolve().parent != (SRC / "iidtest").resolve():
        raise RuntimeError(f"child imported iidtest from {doc['iidtest_file']}")
    return doc


def checked_pass(wl, inputs, out: Path, passes: Passes) -> float:
    """One untraced pass of the workload's `iidtest` commands, in-process;
    returns its wall seconds once its outputs pass the checks."""
    from workloads import run_cli

    codes, stdout, wall = [], "", 0.0
    for argv in wl.commands(inputs, out):
        code, text, seconds = run_cli(argv)
        codes.append(code)
        stdout += text
        wall += seconds
    passes.checked(wl, inputs, out, codes, stdout)
    return wall


def slow_quantile(walls: list[float]) -> float:
    """The PASS_QUANTILE-th pass wall time, nearest rank."""
    s = sorted(walls)
    return s[min(len(s) - 1, int(PASS_QUANTILE * len(s)))]


def run_untraced(wl, inputs, seconds: float, work: Path, passes: Passes):
    """End-to-end metrics: closed-loop passes (one after another,
    in-process) for `seconds`, with fresh-process set-up probes spread
    over the same window, after one fresh process that runs a pass for
    its peak memory."""
    config_path = str(inputs.config_path) if inputs.config_path else "-"
    child_out = work / "child"
    doc = run_child(config_path, wl.commands(inputs, child_out))
    setup = [doc["setup_s"]]
    peak_rss = doc["peak_rss_mb"]
    passes.run(lambda: passes.checked(wl, inputs, child_out, doc["codes"], doc["stdout"]))

    def one_pass():
        return checked_pass(wl, inputs, work / "pass", passes)

    passes.run(one_pass)  # warm-up, not timed
    walls = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_PROBES and elapsed >= (len(setup) - 1) * seconds / SETUP_PROBES:
            setup.append(run_child(config_path, [])["setup_s"])
            continue
        if elapsed >= seconds and len(walls) >= MIN_PASSES and len(setup) == SETUP_PROBES:
            break
        wall = passes.run(one_pass)
        if wall is not None:
            walls.append(wall)
        elif passes.failed >= MIN_PASSES:
            break

    reps, items = wl.units(inputs)
    timings = {
        "pass_walls_s": walls,
        "pass_s": summarize(walls) if walls else None,
        "setup_s": summarize(setup),
    }
    slow = slow_quantile(walls) if walls else math.inf
    metrics = {
        "reps_per_s": reps / slow,
        "items_per_s": items / slow,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss,
    }
    counts = {"reps_per_s": len(walls), "items_per_s": len(walls),
              "setup_s": len(setup), "peak_rss_mb": 1}
    return metrics, counts, timings


def run_traced(wl, inputs, seconds: float, work: Path, passes: Passes, names: list[str]):
    """Per-layer metrics: traced passes for `seconds` (at least one);
    each value is the median over passes."""
    passes.run(lambda: checked_pass(wl, inputs, work / "warm", passes))
    per_pass: list[dict] = []
    tracers = []
    deadline = time.perf_counter() + seconds
    while not per_pass or time.perf_counter() < deadline:
        done = passes.run(lambda: wl.traced_pass(inputs, work / "trace", len(per_pass)))
        if done is None:
            if passes.failed >= MIN_PASSES:
                break
            continue
        per_pass.append(done[0])
        tracers.append(done[1])

    metrics, counts, timings = {}, {}, {}
    for name in names:
        values = [m.get(name, 0.0) for m in per_pass]
        metrics[name] = statistics.median(values) if values else 0.0
        counts[name] = len(values)
        if len(values) > 1:
            timings[name] = summarize(values)
    spans_path = OUT / f"{wl.name}-seed{inputs.seed}-spans.csv.gz"
    if tracers:
        merged = tracers[0]
        for other in tracers[1:]:
            merged.spans.extend(other.spans)
        merged.write(spans_path)
    return metrics, counts, timings


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    iidtest = load_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    import numpy
    import scipy
    from workloads import NPROC, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{wl.name}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    passes = Passes()
    started = time.perf_counter()
    try:
        inputs = wl.prepare(args.seed, work)
        if args.trace:
            metrics, counts, timings = run_traced(wl, inputs, args.seconds, work, passes,
                                                  list(units))
        else:
            metrics, counts, timings = run_untraced(wl, inputs, args.seconds, work, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = passes.attempted > 0 and passes.failed == 0
    result = {
        "correct": correct,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "commit": commit(),
        "machine": platform.machine(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "iidtest": iidtest.__version__,
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "sizes": inputs.sizes,
        "output_digest": passes.digest,
        "failed_frac": passes.failed / max(passes.attempted, 1),
        "run_wall_s": time.perf_counter() - started,
        "sample_counts": counts,
        "timings": timings,
        "result": result,
    }
    record_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"{wl.name} seed={args.seed} trace={args.trace} nproc={NPROC} "
          f"sizes={json.dumps(inputs.sizes)}")
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>16.6g} {unit:<8} n={counts[name]}")
    print(f"  {'failed_frac':<36} {record['failed_frac']:>16.6g} {'ratio':<8} "
          f"n={passes.attempted}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
