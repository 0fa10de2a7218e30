"""Tests of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench -q

Each output check must pass on real program output and reject a
deliberately corrupted copy of it.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from run import summarize  # noqa: E402
from spans import Tracer, durations, self_times  # noqa: E402
from workloads import WORKLOADS, run_cli  # noqa: E402

TINY_POWER = {
    "power_cards": dict(reps=40),
    "null_sparse": dict(reps=12, generator={"kind": "uniform", "n": 3000, "d": 1000}),
}


def tiny(name):
    wl = WORKLOADS[name]
    if name == "count_items":
        return dataclasses.replace(wl, lines=3000)
    return dataclasses.replace(wl, **TINY_POWER[name])


def power_pass(tmp_path, name="power_cards", seed=5):
    wl = tiny(name)
    inputs = wl.prepare(seed, tmp_path)
    out = tmp_path / "out"
    code, stdout, _ = run_cli(wl.commands(inputs, out)[0])
    return wl, inputs, out, code, stdout


@pytest.mark.parametrize("name", ["power_cards", "null_sparse"])
def test_power_check_accepts_program_output(tmp_path, name):
    wl, inputs, out, code, stdout = power_pass(tmp_path, name)
    assert len(wl.check(inputs, out, [code], stdout)) == 64


def test_power_check_rejects_truncated_pvalues(tmp_path):
    wl, inputs, out, code, stdout = power_pass(tmp_path)
    path = out / "pvalues.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]))
    with pytest.raises(CheckFailed, match="rows"):
        wl.check(inputs, out, [code], stdout)


def test_power_check_rejects_zero_p(tmp_path):
    wl, inputs, out, code, stdout = power_pass(tmp_path)
    path = out / "pvalues.csv"
    lines = path.read_text().splitlines(keepends=True)
    rep, test, k, _ = lines[1].rstrip("\n").split(",")
    lines[1] = f"{rep},{test},{k},0.0\n"
    path.write_text("".join(lines))
    with pytest.raises(CheckFailed, match="outside"):
        wl.check(inputs, out, [code], stdout)


def test_power_check_rejects_nonzero_exit_and_missing_table(tmp_path):
    wl, inputs, out, code, stdout = power_pass(tmp_path)
    with pytest.raises(CheckFailed, match="exited"):
        wl.check(inputs, out, [1], stdout)
    (out / "mk.csv").unlink()
    with pytest.raises(CheckFailed, match="missing"):
        wl.check(inputs, out, [code], stdout)


def test_control_check_rejects_skewed_uniform():
    grid = [0.01, 0.05, 0.5]
    checks.check_control([(i + 0.5) / 1000 for i in range(1000)], grid)
    with pytest.raises(CheckFailed, match="u control"):
        checks.check_control([(i + 0.5) / 2000 for i in range(1000)], grid)


def test_validity_failure_is_rejected(tmp_path):
    wl, inputs, out, code, stdout = power_pass(tmp_path, "null_sparse")
    summary = json.loads(stdout)
    summary["validity_failures"] = ["even"]
    with pytest.raises(CheckFailed, match="validity"):
        wl.check(inputs, out, [code], json.dumps(summary))


def count_pass(tmp_path):
    wl = tiny("count_items")
    inputs = wl.prepare(9, tmp_path)
    out = tmp_path / "out"
    codes = [run_cli(argv)[0] for argv in wl.commands(inputs, out)]
    return wl, inputs, out, codes


def test_count_check_accepts_program_output(tmp_path):
    wl, inputs, out, codes = count_pass(tmp_path)
    assert inputs.oracle[0] == 3000
    assert len(wl.check(inputs, out, codes, "")) == 64


def test_count_check_rejects_profile_off_by_one_item(tmp_path):
    wl, inputs, out, codes = count_pass(tmp_path)
    path = out / "profile.json"
    doc = json.loads(path.read_text())
    doc["n"] += 1
    doc["m"]["1"] += 1
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckFailed, match="oracle"):
        wl.check(inputs, out, codes, "")


def test_count_check_rejects_altered_test_report(tmp_path):
    wl, inputs, out, codes = count_pass(tmp_path)
    path = out / "test.json"
    doc = json.loads(path.read_text())
    doc["results"][0]["p"] = doc["results"][0]["p"] / 2
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckFailed, match="direct run_test"):
        wl.check(inputs, out, codes, "")


def test_inputs_follow_the_seed(tmp_path):
    wl = tiny("count_items")
    files = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        files.append(wl.prepare(seed, tmp_path / name).items_path.read_bytes())
    assert files[0] == files[1] != files[2]


@pytest.mark.parametrize("name", ["power_cards", "null_sparse"])
def test_traced_power_pass_replays_every_rep(tmp_path, name):
    wl = tiny(name)
    inputs = wl.prepare(7, tmp_path)
    metrics, tracer = wl.traced_pass(inputs, tmp_path / "trace", 0)
    reps = inputs.config.reps
    assert metrics["harness.replay_matches"] == reps
    assert metrics["generators.sample_calls"] == reps
    assert metrics["invariants.run_test_calls.logcurv"] == reps
    assert 0.0 <= metrics["invariants.tail_frac"] <= 1.0
    assert metrics["numerics.log_normal_sf_calls"] <= metrics["invariants.tail_calls"]
    assert (metrics["harness.pool_efficiency"] > 0.0) == wl.parallel
    assert {s[3] for s in tracer.spans} >= {"replay", "harness.rep", "generators.sample"}


def test_traced_count_pass(tmp_path):
    wl = tiny("count_items")
    inputs = wl.prepare(7, tmp_path)
    metrics, _ = wl.traced_pass(inputs, tmp_path / "trace", 0)
    assert metrics["counts.ingest_items_calls"] == 1
    assert metrics["invariants.suite_calls"] == 1
    assert metrics["counts.ingest_items_s"] > 0.0


def test_self_times_subtract_direct_children():
    tracer = Tracer()
    outer = tracer.begin((0,), "outer")
    inner = tracer.begin((0,), "inner")
    tracer.end(inner)
    tracer.end(outer)
    (inner_ns,), (outer_ns,) = durations(tracer.spans, "inner"), durations(tracer.spans, "outer")
    times = self_times(tracer.spans)
    assert times["inner"] == [inner_ns]
    assert times["outer"] == [outer_ns - inner_ns]
    assert tracer.spans[0][2] == tracer.spans[1][1]  # inner's parent is outer


def test_summarize_reports_tail_with_ten_samples_beyond():
    stats = summarize([float(i) for i in range(1, 41)])
    assert stats["median"] == 20.5 and stats["count"] == 40
    assert stats["tail_pct"] == 75.0 and stats["tail_value"] == 30.0
    assert summarize([1.0, 2.0])["tail_pct"] is None
