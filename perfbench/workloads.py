"""The benchmark's workloads.

Each workload makes its inputs from the seed, runs untraced passes
through `iidtest.cli.main` exactly as a user's `iidtest` command
would, checks their outputs, and runs a traced pass that replays the
same work as spans around calls into the public API. The package must
be importable before this module is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import iidtest
from iidtest import cli
from checks import (
    CheckFailed,
    check_power_outputs,
    check_profile,
    check_test_report,
    oracle_profile,
)
from spans import NullTracer, Tracer, durations, self_times

MASK64 = (1 << 64) - 1
NPROC = len(os.sched_getaffinity(0))
SUITE = ("even", "odd", "count:2", "slope:2", "curv:2", "logcurv:2")
FAMILIES = tuple(token.partition(":")[0] for token in SUITE)
POWER_TABLES = ("pvalues.csv", "curves.csv", "mk.csv")


@dataclass
class Inputs:
    """What a workload made from its seed, shared by all its passes."""

    seed: int
    sizes: dict
    config_path: Path | None = None
    config: iidtest.ExperimentConfig | None = None
    items_path: Path | None = None
    oracle: tuple[int, dict[int, int]] | None = None


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """One `iidtest` command in-process: exit code, stdout, wall seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise CheckFailed(f"output missing: {exc}") from None


def _digest(blobs: list[bytes]) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _median_us(ns: list[int]) -> float:
    return statistics.median(ns) / 1e3 if ns else 0.0


def _tail_zs(results: list[iidtest.TestResult]) -> tuple[int, list[float]]:
    """Calls with z > 0, and the z values of those that reached
    `log_normal_sf` (all but logcurv's upper-limit case)."""
    tails = [r for r in results if r.z > 0.0]
    return len(tails), [r.z for r in tails if math.isfinite(r.statistic)]


def _tail_metrics(calls: int, tails: int, zs: list[float], metrics: dict) -> None:
    metrics["invariants.tail_calls"] = tails
    metrics["invariants.tail_frac"] = tails / calls
    # the program's own calls sit inside run_test; re-call on the same z
    start = time.perf_counter_ns()
    for z in zs:
        iidtest.log_normal_sf(z)
    elapsed = time.perf_counter_ns() - start
    metrics["numerics.log_normal_sf_us"] = elapsed / len(zs) / 1e3 if zs else 0.0
    metrics["numerics.log_normal_sf_calls"] = len(zs)


def _suite_metrics(spans, metrics: dict) -> None:
    for family in FAMILIES:
        ns = durations(spans, f"invariants.run_test.{family}")
        metrics[f"invariants.run_test_us.{family}"] = _median_us(ns)
        metrics[f"invariants.run_test_calls.{family}"] = len(ns)
    suite = durations(spans, "invariants.suite")
    metrics["invariants.suite_us"] = _median_us(suite)
    metrics["invariants.suite_calls"] = len(suite)


def _accounting(spans, serial_wall: float, plain_wall: float, traced_wall: float,
                metrics: dict) -> None:
    """How much of the untraced serial run the replayed spans' self
    times cover, and what tracing cost."""
    accounted = sum(
        sum(ns) for name, ns in self_times(spans).items() if name != "replay"
    ) / 1e9
    metrics["trace.serial_wall_s"] = serial_wall
    metrics["trace.accounted_s"] = accounted
    metrics["trace.unaccounted_frac"] = (serial_wall - accounted) / serial_wall
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0


@dataclass(frozen=True)
class PowerWorkload:
    """`iidtest power` on one generator with the default suite."""

    name: str
    generator: dict
    reps: int
    cn: bool
    assert_validity: bool
    parallel: bool

    @property
    def workers(self) -> int:
        return NPROC if self.parallel else 1

    def prepare(self, seed: int, work: Path) -> Inputs:
        doc = {
            "generator": self.generator,
            "tests": list(SUITE),
            "options": {"mode": "poisson", "cn": self.cn},
            "reps": self.reps,
            "seed": seed & MASK64,
            "assert_validity": self.assert_validity,
        }
        path = work / "config.json"
        path.write_text(json.dumps(doc))
        sizes = {"reps": self.reps, "workers": self.workers, **self.generator}
        return Inputs(seed, sizes, config_path=path,
                      config=iidtest.config_from_json(path.read_text()))

    def units(self, inputs: Inputs) -> tuple[int, int]:
        """(profiles tested, items drawn) by one pass."""
        return inputs.config.reps, inputs.config.reps * inputs.config.generator.n

    def commands(self, inputs: Inputs, out: Path, workers: int | None = None) -> list[list[str]]:
        return [["power", "--config", str(inputs.config_path), "--output", str(out),
                 "--workers", str(workers or self.workers)]]

    def check(self, inputs: Inputs, out: Path, codes: list[int], stdout: str) -> str:
        """Raises CheckFailed on a wrong output; returns the tables' digest."""
        if codes != [0]:
            raise CheckFailed(f"iidtest power exited {codes}")
        tables = {name: _read(out / name) for name in POWER_TABLES}
        cfg = inputs.config
        check_power_outputs(tables, stdout, cfg.reps, cfg.generator.n, list(cfg.labels),
                            list(cfg.alpha_grid), cfg.assert_validity)
        return _digest(list(tables.values()))

    def traced_pass(self, inputs: Inputs, out: Path, pass_id: int) -> tuple[dict, Tracer]:
        cfg = inputs.config
        metrics: dict = {}
        serial = out / "serial"
        code, stdout, cli_wall = run_cli(self.commands(inputs, serial, workers=1)[0])
        self.check(inputs, serial, [code], stdout)

        start = time.perf_counter()
        report = iidtest.run_experiment(cfg, workers=1)
        run_wall = time.perf_counter() - start
        start = time.perf_counter()
        tables = iidtest.emit_report(report)
        emit_wall = time.perf_counter() - start
        metrics["harness.pool_efficiency"] = 0.0
        if self.parallel:
            start = time.perf_counter()
            pooled = iidtest.run_experiment(cfg, workers=NPROC)
            pool_wall = time.perf_counter() - start
            if iidtest.emit_report(pooled) != tables:
                raise CheckFailed(f"workers={NPROC} tables differ from workers=1")
            if pooled.validity_failures():
                raise CheckFailed(f"validity failures: {pooled.validity_failures()}")
            metrics["harness.pool_efficiency"] = run_wall / (NPROC * pool_wall)

        plain_wall, _ = self._replay(inputs, report, out / "replay", NullTracer(), pass_id)
        tracer = Tracer()
        traced_wall, rows = self._replay(inputs, report, out / "replay", tracer, pass_id)
        spans = tracer.spans

        labels = cfg.labels
        metrics["harness.replay_matches"] = sum(
            all(report.pvalues[label][rep] == p for label, p in zip(labels, ps))
            for rep, (ps, _, _) in enumerate(rows)
        )
        metrics["harness.reps"] = cfg.reps
        _tail_metrics(cfg.reps * len(cfg.tests), sum(row[1] for row in rows),
                      [z for row in rows for z in row[2]], metrics)
        _suite_metrics(spans, metrics)
        sample_ns = durations(spans, "generators.sample")
        metrics["generators.sample_us"] = _median_us(sample_ns)
        metrics["generators.sample_calls"] = len(sample_ns)
        expected_ns = durations(spans, "generators.expected_mk")
        metrics["generators.expected_mk_ms"] = sum(expected_ns) / 1e6
        metrics["generators.expected_mk_calls"] = len(expected_ns)
        replayed = (sum(sample_ns) + sum(durations(spans, "invariants.suite"))) / 1e9
        metrics["harness.self_us_per_rep"] = (run_wall - replayed) / cfg.reps * 1e6
        metrics["harness.emit_report_s"] = emit_wall
        metrics["harness.emit_report_calls"] = 1
        metrics["harness.emit_bytes"] = sum(len(blob) for blob in tables.values())
        metrics["cli.self_s"] = cli_wall - run_wall - emit_wall
        metrics["cli.calls"] = 1
        _accounting(spans, cli_wall, plain_wall, traced_wall, metrics)
        return metrics, tracer

    def _replay(self, inputs: Inputs, report, out: Path, tracer, pass_id: int):
        """The serial `iidtest power` run rebuilt from public calls, rep
        by rep with the documented keying (Philox keyed by seed XOR rep).
        Aggregation inside run_experiment has no public entry point and
        is left out. Returns the wall seconds and, per rep, the p-values
        (control last), the count of z > 0 and the z values that reached
        `log_normal_sf`."""
        rows = []
        k_max = 1
        start = time.perf_counter()
        root = tracer.begin((pass_id,), "replay")
        span = tracer.begin((pass_id,), "cli.read_config")
        cfg = iidtest.config_from_json(inputs.config_path.read_text())
        tracer.end(span)
        for rep in range(cfg.reps):
            trace = (pass_id, rep)
            rep_span = tracer.begin(trace, "harness.rep")
            rng = np.random.Generator(np.random.Philox(key=(cfg.seed ^ rep) & MASK64))
            span = tracer.begin(trace, "generators.sample")
            profile = iidtest.sample(cfg.generator, rng=rng, keep_first_order=False)
            tracer.end(span)
            u = float(rng.random())
            suite = tracer.begin(trace, "invariants.suite")
            results = []
            for kind, opts in cfg.tests:
                span = tracer.begin(trace, f"invariants.run_test.{kind.family}")
                results.append(iidtest.run_test(kind, profile, opts))
                tracer.end(span)
            tracer.end(suite)
            tracer.end(rep_span)
            # keep no TestResult objects: a growing heap slows every
            # later garbage collection, in the replay but not in the harness
            tails, zs = _tail_zs(results)
            rows.append((tuple(r.p for r in results) + (u,), tails, zs))
            k_max = max(k_max, max(profile.multiplicities, default=1))
        span = tracer.begin((pass_id,), "generators.expected_mk")
        iidtest.expected_mk(iidtest.reference_theta(cfg.generator), cfg.generator.n, k_max)
        tracer.end(span)
        span = tracer.begin((pass_id,), "harness.emit_report")
        tables = iidtest.emit_report(report)
        tracer.end(span)
        span = tracer.begin((pass_id,), "cli.write_outputs")
        out.mkdir(parents=True, exist_ok=True)
        for name, blob in tables.items():
            (out / name).write_bytes(blob)
        summary = {"config": iidtest.config_to_json(cfg),
                   "headline": {label: list(h) for label, h in report.headline.items()}}
        json.dumps(summary, indent=2)
        tracer.end(span)
        tracer.end(root)
        return time.perf_counter() - start, rows


@dataclass(frozen=True)
class CountWorkload:
    """`iidtest count <file>` then `iidtest test` on its profile."""

    name: str
    lines: int
    zipf_a: float

    def prepare(self, seed: int, work: Path) -> Inputs:
        rng = np.random.Generator(np.random.Philox(key=seed & MASK64))
        ranks = rng.zipf(self.zipf_a, self.lines).tolist()
        path = work / "items.txt"
        path.write_text("\n".join(map("{:07x}".format, ranks)) + "\n")
        n, multiplicities = oracle_profile(ranks)
        sizes = {"lines": n, "distinct": sum(multiplicities.values()),
                 "bytes": path.stat().st_size, "zipf_a": self.zipf_a}
        return Inputs(seed, sizes, items_path=path, oracle=(n, multiplicities))

    def units(self, inputs: Inputs) -> tuple[int, int]:
        """(profiles tested, input lines) by one pass."""
        return 1, inputs.oracle[0]

    def commands(self, inputs: Inputs, out: Path) -> list[list[str]]:
        out.mkdir(parents=True, exist_ok=True)  # `iidtest count --output` makes no directory
        profile = str(out / "profile.json")
        return [["count", str(inputs.items_path), "--output", profile],
                ["test", profile, "--output", str(out / "test.json")]]

    def check(self, inputs: Inputs, out: Path, codes: list[int], stdout: str) -> str:
        """Raises CheckFailed on a wrong output; returns the documents' digest."""
        if codes[:1] != [0] or len(codes) != 2 or codes[1] not in (0, 2):
            raise CheckFailed(f"iidtest count/test exited {codes}")
        profile_text = _read(out / "profile.json")
        report_text = _read(out / "test.json")
        check_profile(profile_text.decode(), *inputs.oracle)
        profile = iidtest.profile_from_json(profile_text.decode())
        results = [iidtest.run_test(iidtest.parse_kind(token), profile) for token in SUITE]
        combined = iidtest.combine_bonferroni(results, 0.05)
        check_test_report(report_text.decode(), [r.to_dict() for r in results], combined.p)
        if (codes[1] == 2) != combined.reject:
            raise CheckFailed(f"iidtest test exited {codes[1]} but reject = {combined.reject}")
        return _digest([profile_text, report_text])

    def traced_pass(self, inputs: Inputs, out: Path, pass_id: int) -> tuple[dict, Tracer]:
        metrics: dict = {}
        codes, cli_wall = [], 0.0
        for argv in self.commands(inputs, out):
            code, _, wall = run_cli(argv)
            codes.append(code)
            cli_wall += wall
        self.check(inputs, out, codes, "")

        plain_wall, _ = self._replay(inputs, out / "replay", NullTracer(), pass_id)
        tracer = Tracer()
        traced_wall, results = self._replay(inputs, out / "replay", tracer, pass_id)
        spans = tracer.spans

        _tail_metrics(len(results), *_tail_zs(results), metrics)
        _suite_metrics(spans, metrics)
        wrapped = 0.0
        for name, scale, key in (
            ("counts.ingest_items", 1e9, "counts.ingest_items_s"),
            ("counts.profile_to_json", 1e6, "counts.profile_to_json_ms"),
            ("counts.profile_from_json", 1e6, "counts.profile_from_json_ms"),
            ("invariants.combine_bonferroni", 1e3, "invariants.combine_bonferroni_us"),
        ):
            ns = durations(spans, name)
            metrics[key] = sum(ns) / scale
            metrics[name + "_calls"] = len(ns)
            wrapped += sum(ns) / 1e9
        wrapped += sum(durations(spans, "invariants.suite")) / 1e9
        metrics["cli.self_s"] = cli_wall - wrapped
        metrics["cli.calls"] = len(codes)
        _accounting(spans, cli_wall, plain_wall, traced_wall, metrics)
        return metrics, tracer

    def _replay(self, inputs: Inputs, out: Path, tracer, pass_id: int):
        """`count` then `test` rebuilt from public calls, splitting the
        file the way `iidtest count` does. Returns the wall seconds and
        the suite's results."""
        trace = (pass_id,)
        out.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        root = tracer.begin(trace, "replay")
        span = tracer.begin(trace, "cli.read_split")
        items = inputs.items_path.read_bytes().split(b"\n")
        if items and items[-1] == b"":
            items.pop()
        tracer.end(span)
        span = tracer.begin(trace, "counts.ingest_items")
        profile = iidtest.ingest_items(items)
        tracer.end(span)
        del items
        span = tracer.begin(trace, "counts.profile_to_json")
        text = iidtest.profile_to_json(profile)
        tracer.end(span)
        span = tracer.begin(trace, "cli.write_profile")
        (out / "profile.json").write_text(text + "\n")
        tracer.end(span)
        span = tracer.begin(trace, "cli.read_profile")
        text = (out / "profile.json").read_text()
        tracer.end(span)
        span = tracer.begin(trace, "counts.profile_from_json")
        profile = iidtest.profile_from_json(text)
        tracer.end(span)
        suite = tracer.begin(trace, "invariants.suite")
        results = []
        opts = iidtest.TestOptions()
        for token in SUITE:
            kind = iidtest.parse_kind(token)
            span = tracer.begin(trace, f"invariants.run_test.{kind.family}")
            results.append(iidtest.run_test(kind, profile, opts))
            tracer.end(span)
        tracer.end(suite)
        span = tracer.begin(trace, "invariants.combine_bonferroni")
        combined = iidtest.combine_bonferroni(results, 0.05)
        tracer.end(span)
        span = tracer.begin(trace, "cli.write_report")
        doc = {"n": profile.n, "results": [r.to_dict() for r in results],
               "combined": {"method": "bonferroni", "p": combined.p,
                            "source": str(combined.source), "reject": combined.reject}}
        (out / "test.json").write_text(json.dumps(doc, indent=2) + "\n")
        tracer.end(span)
        tracer.end(root)
        return time.perf_counter() - start, results


WORKLOADS = {
    wl.name: wl
    for wl in (
        PowerWorkload("power_cards", {"kind": "cards", "n": 65, "decks": 2}, reps=2000,
                      cn=False, assert_validity=False, parallel=False),
        PowerWorkload("null_sparse", {"kind": "uniform", "n": 100000, "d": 33333}, reps=100,
                      cn=True, assert_validity=True, parallel=True),
        CountWorkload("count_items", lines=1_000_000, zipf_a=1.3),
    )
}
