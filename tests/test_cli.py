"""End-to-end CLI checks through subprocess, exit codes included, and a
fuzz of the exit-code contract through `cli.main` in-process."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iidtest.cli import main
from iidtest.numerics import log_cn, stirling_factor

DOUBLED = json.dumps({"n": 1000, "m": {"2": 500}})


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "iidtest", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def test_count_from_stdin():
    proc = run_cli("count", stdin="a\nb\na\n")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"n": 3, "m": {"1": 1, "2": 1}}


def test_count_empty_input():
    proc = run_cli("count", stdin="")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"n": 0, "m": {}}


def test_count_from_file_with_output_path(tmp_path):
    src = tmp_path / "items.txt"
    src.write_text("x\ny\nx\nx\n")
    dst = tmp_path / "profile.json"
    proc = run_cli("count", str(src), "--output", str(dst))
    assert proc.returncode == 0
    assert json.loads(dst.read_text()) == {"n": 4, "m": {"1": 1, "3": 1}}


def test_count_hashed_mode_matches_plain_multiplicities():
    plain = run_cli("count", stdin="a\nb\na\n")
    hashed = run_cli("count", "--hashed", stdin="a\nb\na\n")
    assert hashed.returncode == 0
    assert json.loads(hashed.stdout)["m"] == json.loads(plain.stdout)["m"]


def test_count_reads_stdin_and_a_file_alike(tmp_path):
    # verbatim items (\r, NUL, non-UTF-8, empty lines), a line longer
    # than the 1 MiB read, and no final newline
    long = b"z" * (3 << 20)
    data = b"a\r\n\n\xff\x00 b\n\na\r\n" + long + b"\n\xffend"
    src = tmp_path / "items.bin"
    src.write_bytes(data)
    cmd = [sys.executable, "-m", "iidtest", "count"]
    piped = subprocess.run(cmd, input=data, capture_output=True)
    filed = subprocess.run([*cmd, str(src)], capture_output=True)
    assert piped.returncode == filed.returncode == 0
    assert piped.stdout == filed.stdout
    assert json.loads(piped.stdout) == {"n": 7, "m": {"1": 3, "2": 2}}


def test_missing_input_file_exits_one():
    proc = run_cli("count", "/nonexistent/items.txt")
    assert proc.returncode == 1
    assert "iidtest count:" in proc.stderr


def test_test_rejects_doubled_profile():
    proc = run_cli("test", stdin=DOUBLED)
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["n"] == 1000
    even = next(r for r in doc["results"] if r["kind"] == "even")
    assert even["p"] < 1e-20
    assert doc["combined"]["method"] == "bonferroni"
    assert doc["combined"]["reject"] is True
    assert doc["combined"]["p"] <= 0.05


def test_test_accepts_all_unique_profile():
    proc = run_cli("test", stdin=json.dumps({"n": 5, "m": {"1": 5}}))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert all(r["p"] == 1.0 for r in doc["results"])
    assert doc["combined"]["reject"] is False


def test_test_malformed_profile_exits_one():
    proc = run_cli("test", stdin='{"n": 5, "m": {"2": 1}}')
    assert proc.returncode == 1
    assert "iidtest test:" in proc.stderr
    proc = run_cli("test", stdin="not json")
    assert proc.returncode == 1


def test_test_empty_suite_exits_one():
    proc = run_cli("test", "--tests", ",", stdin=DOUBLED)
    assert proc.returncode == 1


@pytest.mark.parametrize("tests", ["even,even,count:2", "count:2,even, count:2"])
def test_test_refuses_a_repeated_kind(tests):
    # a repeat would inflate the Bonferroni factor: on this profile
    # even,count:2 gives p = 0.0711 and even,even,count:2 gave 0.1066
    profile = json.dumps({"n": 6, "m": {"2": 3}})
    proc = run_cli("test", "--tests", tests, stdin=profile)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "iidtest test: duplicate test kinds in suite\n"
    proc = run_cli("test", "--tests", "even,count:2", stdin=profile)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["combined"]["p"] == pytest.approx(0.0711, abs=5e-5)


def test_test_theoretical_variance_rejects_parity_tests():
    # the default suite contains even/odd, which have no such bound
    proc = run_cli("test", "--variance", "theoretical", stdin=DOUBLED)
    assert proc.returncode == 1
    assert "iidtest test:" in proc.stderr


@pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
@pytest.mark.parametrize("flags", [(), ("--no-correction",)])
def test_test_alpha_outside_unit_interval_exits_one(alpha, flags):
    for profile in (DOUBLED, json.dumps({"n": 5, "m": {"1": 5}})):
        proc = run_cli("test", "--alpha", alpha, *flags, stdin=profile)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("iidtest test: alpha must lie in (0, 1)")


def test_test_no_correction_reports_raw_decisions():
    proc = run_cli("test", "--no-correction", stdin=DOUBLED)
    assert proc.returncode == 2
    combined = json.loads(proc.stdout)["combined"]
    assert combined["method"] == "raw"
    assert "even" in combined["rejected_by"]
    assert "count:2" in combined["rejected_by"]


def test_test_cn_flag_charges_the_correction():
    off = run_cli("test", "--tests", "count:2", "--cn", "off", stdin=DOUBLED)
    on = run_cli("test", "--tests", "count:2", "--cn", "on", stdin=DOUBLED)
    lp_off = json.loads(off.stdout)["results"][0]["log_p"]
    lp_on = json.loads(on.stdout)["results"][0]["log_p"]
    assert lp_on - lp_off == pytest.approx(log_cn(1000), rel=1e-9)


@pytest.mark.parametrize(
    "args", [["count"], ["test"], ["bounds", "--n", "10"], ["verify", "--suite", "stirling"]]
)
def test_seed_is_refused_where_nothing_is_drawn(args):
    proc = run_cli(*args, "--seed", "1", stdin="")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("usage: iidtest")
    assert "error: unrecognized arguments: --seed" in proc.stderr


def test_simulate_is_reproducible():
    args = ("simulate", "--kind", "uniform", "--n", "50", "--d", "10", "--seed", "42")
    assert run_cli(*args).stdout == run_cli(*args).stdout
    other = run_cli("simulate", "--kind", "uniform", "--n", "50", "--d", "10", "--seed", "43")
    assert other.stdout != run_cli(*args).stdout


def test_simulate_items_pipe_into_count():
    sim = run_cli("simulate", "--kind", "uniform", "--n", "60", "--d", "6", "--emit", "items")
    lines = sim.stdout.splitlines()
    assert len(lines) == 60
    assert all(1 <= int(x) <= 6 for x in lines)
    counted = run_cli("count", stdin=sim.stdout)
    doc = json.loads(counted.stdout)
    assert doc["n"] == 60
    assert sum(int(k) * m for k, m in doc["m"].items()) == 60


def test_simulate_full_cards_draw():
    proc = run_cli("simulate", "--kind", "cards", "--n", "104", "--decks", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"n": 104, "m": {"2": 52}}


def test_simulate_invalid_spec_exits_one():
    proc = run_cli("simulate", "--kind", "cards", "--n", "60", "--decks", "1")
    assert proc.returncode == 1
    assert "iidtest simulate:" in proc.stderr


def test_bounds_count_row():
    proc = run_cli("bounds", "--kind", "count", "--k", "2", "--n", "1000")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "kind,k,n,mode,tau_ub,v_ub_theoretical"
    fields = lines[1].split(",")
    assert fields[:4] == ["count", "2", "1000", "poisson"]
    assert fields[4].startswith("183.9397205857")
    assert fields[5] == fields[4]  # count variance bound equals its mean bound


def test_bounds_default_table_covers_all_families():
    proc = run_cli("bounds", "--n", "100")
    lines = proc.stdout.splitlines()
    families = [line.split(",")[0] for line in lines[1:]]
    assert sorted(families) == sorted(
        ["count", "slope", "slopelower", "curv", "logcurv", "even", "odd"]
    )
    by_family = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert by_family["even"][1] == ""  # parity tests take no k
    assert by_family["even"][4] == "50.0"
    assert by_family["even"][5] == ""  # and admit no theoretical variance
    assert by_family["logcurv"][5] == ""
    assert float(by_family["curv"][5]) > 0.0


def test_bounds_strips_family_names():
    # each name is stripped, as --tests tokens are, so even keeps taking no k
    args = ("--k", "2,3", "--n", "100")
    plain = run_cli("bounds", "--kind", "count,even,curv", *args)
    assert plain.returncode == 0
    for spaced in ("count, even, curv", " count,even ,curv ", "count,\teven\n,curv"):
        proc = run_cli("bounds", "--kind", spaced, *args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, plain.stdout, "")


def test_bounds_multinomial_mode_logcurv():
    proc = run_cli("bounds", "--kind", "logcurv", "--k", "2", "--n", "100", "--mode", "multinomial")
    tau = float(proc.stdout.splitlines()[1].split(",")[4])
    assert tau == pytest.approx(math.log(1.5) + math.log(99 / 98), rel=1e-12)


def test_bounds_rejects_unreachable_k():
    proc = run_cli("bounds", "--kind", "count", "--k", "8", "--n", "8", "--mode", "multinomial")
    assert proc.returncode == 1


def _power_config(reps, corruption="none", **extra):
    doc = {
        "generator": {"kind": "uniform", "n": 1000, "d": 100, "corruption": corruption},
        "tests": ["even", "count:2"],
        "reps": reps,
        "seed": 13,
    }
    doc.update(extra)
    return doc


def test_power_writes_tables_and_summary(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_power_config(20, corruption="even_n")))
    out = tmp_path / "out"
    proc = run_cli("power", "--config", str(cfg), "--output", str(out))
    assert proc.returncode == 0
    for name in ("pvalues.csv", "curves.csv", "mk.csv"):
        assert (out / name).exists()
    summary = json.loads(proc.stdout)
    assert summary["output_dir"] == str(out)
    assert summary["headline"]["even"][0] == 1.0
    even_rows = [
        line
        for line in (out / "curves.csv").read_text().splitlines()
        if line.startswith("even,,0.05,")
    ]
    assert even_rows == ["even,,0.05,1.0,0.0"]


def test_power_worker_count_leaves_tables_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "generator": {"kind": "uniform", "n": 60, "d": 20},
                "tests": ["even", "odd", "count:2", "slope:2", "curv:2", "logcurv:2"],
                "reps": 12,
                "seed": 31,
            }
        )
    )
    blobs = []
    for workers, sub in (("1", "a"), ("2", "b")):
        out = tmp_path / sub
        proc = run_cli("power", "--config", str(cfg), "--workers", workers, "--output", str(out))
        assert proc.returncode == 0
        blobs.append({name: (out / name).read_bytes() for name in ("pvalues.csv", "curves.csv", "mk.csv")})
    assert blobs[0] == blobs[1]


def test_power_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_power_config(5)))
    base = run_cli("power", "--config", str(cfg), "--output", str(tmp_path / "x"))
    reseeded = run_cli("power", "--config", str(cfg), "--seed", "99", "--output", str(tmp_path / "y"))
    assert json.loads(base.stdout)["config"]["seed"] == 13
    assert json.loads(reseeded.stdout)["config"]["seed"] == 99


def test_power_validity_assertion_fails_on_corrupted_source(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_power_config(20, corruption="even_n", assert_validity=True)))
    proc = run_cli("power", "--config", str(cfg), "--output", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "even" in json.loads(proc.stdout)["validity_failures"]
    assert "validity assertion failed" in proc.stderr


def test_power_malformed_config_exits_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"generator": {"kind": "uniform", "n": 10, "d": 5}}')
    proc = run_cli("power", "--config", str(cfg))
    assert proc.returncode == 1
    assert "iidtest power:" in proc.stderr


@pytest.mark.parametrize(
    "where, field, value",
    [
        ("config", "reps", "x"),
        ("generator", "n", "10"),
        ("generator", "n", 10.5),
        ("generator", "d", True),
        ("config", "seed", 1.5),
        ("generator", "seed", 1.5),
        ("config", "alpha_grid", 5),
        ("config", "alpha_star", "0.05"),
        ("config", "assert_validity", "yes"),
        ("options", "cn", "off"),
        ("options", "cn", "false"),
        ("options", "cn", 1),
        ("test", "cn", "off"),
        ("test", "kind", 5),
    ],
)
def test_power_mistyped_field_exits_one_without_traceback(tmp_path, where, field, value):
    doc = _power_config(5)
    if where == "options":
        doc["options"] = {field: value}
    elif where == "test":
        doc["tests"].append({"kind": "count:3", field: value})
    else:
        (doc["generator"] if where == "generator" else doc)[field] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    proc = run_cli("power", "--config", str(cfg), "--output", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("iidtest power:") and proc.stderr.count("\n") == 1
    assert field in proc.stderr


@pytest.mark.parametrize("workers", ["1", "2"])
def test_power_too_large_to_allocate_exits_one(tmp_path, workers):
    # the p-value table alone would take 2.4e15 bytes, more than a
    # 2**47-byte address space holds, so no allocator can grant it; it
    # is allocated before any chunk runs, on the pool path too
    doc = _power_config(10**14)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    proc = run_cli("power", "--config", str(cfg), "--output", str(out), "--workers", workers)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("iidtest power: out of memory:") and proc.stderr.count("\n") == 1
    assert not out.exists()


_PAST_A_DOUBLE = str(10**400)


@pytest.mark.parametrize("args", [
    ["simulate", "--kind", "uniform", "--n", "300", "--d", _PAST_A_DOUBLE],
    ["simulate", "--kind", "uniform", "--n", "300", "--d", _PAST_A_DOUBLE, "--emit", "items"],
    ["simulate", "--kind", "cards", "--n", "3", "--decks", _PAST_A_DOUBLE],
    ["simulate", "--kind", "cards", "--n", "3", "--decks", _PAST_A_DOUBLE, "--emit", "items"],
    ["power", {"kind": "uniform", "n": 10, "d": 10**400}, "--workers", "1"],
    ["power", {"kind": "cards", "n": 10, "decks": 10**400}, "--workers", "2"],
    ["simulate", "--kind", "cards", "--n", "3", "--decks", str(2**62), "--emit", "items"],
    ["power", {"kind": "cards", "n": 3, "decks": 2**56}, "--workers", "1"],
])
def test_a_size_past_every_machine_number_exits_one(args, tmp_path):
    # d or decks of 10**400 overflowed a double or a C long on the way
    # to numpy, and a pool of 52 * 2**62 cards (or 3 hands of 52 * 2**56)
    # wrapped its int64 size: the spec now rejects them, one line and exit 1
    if args[0] == "power":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generator": args[1], "tests": ["even"], "reps": 3}))
        args = ["power", "--config", str(cfg), "--output", str(tmp_path / "out"), *args[2:]]
    proc = run_cli(*args)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"iidtest {args[0]}: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "entry",
    [
        {"kind": "logcurv:2", "variance": "theoretical"},
        {"kind": "odd", "variance": "theoretical"},
        {"kind": "odd", "pvalue": "bernstein"},
    ],
)
def test_power_option_its_family_cannot_take_exits_one(tmp_path, entry, workers):
    doc = _power_config(5)
    doc["tests"].append(entry)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    proc = run_cli("power", "--config", str(cfg), "--output", str(out), "--workers", workers)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"iidtest power: {entry['kind']}:")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


_LARGEST_K = 2**53


@pytest.mark.parametrize("k", [_LARGEST_K, _LARGEST_K + 1, 2**63, 99999999999999999999999])
def test_test_takes_k_up_to_the_largest_the_bounds_can(k):
    proc = run_cli("test", "-", "--tests", f"even,count:{k}", stdin=DOUBLED)
    assert "Traceback" not in proc.stderr
    if k <= _LARGEST_K:
        assert proc.returncode == 2
        result = json.loads(proc.stdout)["results"][1]
        assert result["k"] == k and result["p"] == 1.0
    else:
        assert proc.returncode == 1
        assert proc.stderr == f"iidtest test: count needs k <= 2**53, got {k}\n"


@pytest.mark.parametrize("flags, what", [
    ([], "a read of even"),
    (["--cn", "on"], "a read of even"),
    (["--mode", "multinomial"], "n"),
])
def test_test_n_past_the_largest_float_exits_one(flags, what):
    n = 10**400
    proc = run_cli("test", "-", *flags, stdin=json.dumps({"n": n, "m": {str(n): 1}}))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"iidtest test: {what} is past the largest float, 1.79769e+308\n"


def test_bounds_n_past_the_largest_float_exits_one():
    proc = run_cli("bounds", "--n", str(10**400))
    assert proc.returncode == 1
    assert proc.stderr == "iidtest bounds: n is past the largest float, 1.79769e+308\n"


def test_log_cn_and_stirling_factor_past_the_largest_float_raise_value_error():
    for name, f in (("n", log_cn), ("k", stirling_factor)):
        with pytest.raises(ValueError, match=f"^{name} is past the largest float, 1.79769e\\+308$"):
            f(10**400)
    assert log_cn(10**300) == pytest.approx(0.5 * math.log(2 * math.pi) + 300 * math.log(10) / 2)


@pytest.mark.parametrize("n", [_LARGEST_K, _LARGEST_K + 1, 2**62])
def test_test_takes_multinomial_n_up_to_2_53(n):
    doc = json.dumps({"n": n, "m": {str(n): 1}})
    proc = run_cli("test", "--mode", "multinomial", "--tests", "count:17592186056761", stdin=doc)
    assert "Traceback" not in proc.stderr
    if n <= _LARGEST_K:
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"][0]["p"] == 1.0
    else:
        assert proc.returncode == 1
        assert proc.stderr == f"iidtest test: multinomial bounds require n <= 2**53, got n={n}\n"


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("k", [_LARGEST_K, _LARGEST_K + 1, 2**63])
def test_power_takes_k_up_to_the_largest_the_bounds_can(tmp_path, k, workers):
    doc = _power_config(6)
    doc["tests"] += [f"slope:{k}", f"logcurv:{k}"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    proc = run_cli("power", "--config", str(cfg), "--output", str(out), "--workers", workers)
    assert "Traceback" not in proc.stderr
    if k <= _LARGEST_K:
        assert proc.returncode == 0
        headline = json.loads(proc.stdout)["headline"]
        assert headline[f"slope:{k}"] == headline[f"logcurv:{k}"] == [0.0, 0.0]
    else:
        assert proc.returncode == 1
        assert proc.stderr == f"iidtest power: slope needs k <= 2**53, got {k}\n"
        assert not out.exists()


def test_verify_single_suite():
    proc = run_cli("verify", "--suite", "stirling")
    assert proc.returncode == 0
    assert proc.stdout == "stirling,ok\n"
    assert "stirling:" in proc.stderr


def test_usage_errors_exit_one():
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("simulate", "--kind", "uniform").returncode == 1  # missing --n
    assert run_cli("verify", "--suite", "nonsense").returncode == 1
    assert run_cli("count", "--frob").returncode == 1
    assert run_cli().returncode == 1



# The CLI contract under random input: argv, profile documents and
# config documents drawn at random, most of them well formed with one
# field or flag spoiled, run in-process. Every case must exit 0, 1 or 2
# and print no traceback. Sizes stay small (n and d in the hundreds, at
# most 50 decks and 30 reps, at most two workers, junk integers within
# 1000 of 0), so no case allocates more than a few MB; the few junk
# sizes past that are past any memory too, and fail at once.

_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.floats()
    | st.text(max_size=6) | st.sampled_from([2**53, 2**63, 10**30, 10**400]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _spoil(doc, data):
    # replace or add one field, at any depth of nested objects and lists
    spoiled = list(doc) if isinstance(doc, list) else dict(doc)
    key = data.draw(st.sampled_from(range(len(doc)) if isinstance(doc, list) else [*doc, "extra"]))
    inner = spoiled.get(key) if isinstance(spoiled, dict) else spoiled[key]
    if inner and isinstance(inner, (dict, list)) and data.draw(st.booleans()):
        spoiled[key] = _spoil(inner, data)
    else:
        spoiled[key] = data.draw(_JUNK)
    return spoiled


@st.composite
def _document(draw, documents):
    # the text of a well-formed document half of the time, else of one
    # with a field spoiled, of JSON junk, or of no JSON at all
    doc, kind = draw(documents), draw(st.integers(0, 7))
    if kind < 4:
        return json.dumps(doc)
    if kind < 7:
        return json.dumps(_spoil(doc, draw(st.data())) if kind < 6 else draw(_JUNK))
    return draw(st.text(max_size=20))


_M = st.dictionaries(st.integers(1, 60), st.integers(1, 40), max_size=4)
_PROFILE = _M.map(lambda m: {"n": sum(k * c for k, c in m.items()), "m": {str(k): c for k, c in m.items()}})
_TOKENS = ["even", "odd", "count:2", "count:3", "slope:2", "slopelower:2", "curv:2", "logcurv:2"]
_TEST_LIST = st.lists(st.sampled_from(_TOKENS + ["logcurv:1", "count:0", "count:x", "curv", "nope:2"]),
                      min_size=1, max_size=4)
_OPTIONS = st.fixed_dictionaries({}, optional={
    "mode": st.sampled_from(["poisson", "multinomial"]),
    "cn": st.booleans(),
    "variance": st.sampled_from(["empirical", "theoretical", "auto"]),
    "pvalue": st.sampled_from(["gaussian", "bernstein"]),
})
_GENERATOR = st.one_of(
    st.builds(lambda kind, d, corruption, extra: {"kind": kind, "n": 2 * (d + extra), "d": d, "corruption": corruption},
              st.sampled_from(["uniform", "linear"]), st.integers(1, 60),
              st.sampled_from(["none", "even_n", "even_m", "no_empty", "no_unique"]), st.integers(0, 100)),
    st.builds(lambda decks, n: {"kind": "cards", "n": min(n, 52 * decks), "decks": decks},
              st.integers(1, 3), st.integers(0, 156)),
)
_CONFIG = st.fixed_dictionaries(
    {
        "generator": _GENERATOR,
        "tests": st.lists(st.sampled_from(_TOKENS) | st.builds(lambda kind, opts: {**opts, "kind": kind},
                                                                  st.sampled_from(_TOKENS), _OPTIONS),
                          min_size=1, max_size=4),
        "reps": st.integers(1, 30),
    },
    optional={
        "options": _OPTIONS,
        "alpha_grid": st.lists(st.floats(0.01, 0.5), min_size=1, max_size=3),
        "alpha_star": st.floats(0.01, 0.5),
        "seed": st.integers(0, 2**64 - 1),
        "assert_validity": st.booleans(),
    },
)
_INT_TEXT = st.one_of(
    st.integers(0, 300).map(str), st.integers(-3, 300).map(str),
    st.sampled_from(["1e3", "", "x", str(2**70), str(10**400)]),
)
# flag -> value strategy, None for a switch
_FLAGS = {
    "count": {"--hashed": None},
    "test": {
        "--tests": _TEST_LIST.map(",".join),
        "--mode": st.sampled_from(["poisson", "multinomial", "x"]),
        "--cn": st.sampled_from(["on", "off", "x"]),
        "--variance": st.sampled_from(["empirical", "theoretical", "auto", "x"]),
        "--alpha": st.floats().map(repr) | st.sampled_from(["0.05", "x"]),
        "--no-correction": None,
    },
    "simulate": {
        "--kind": st.sampled_from(["uniform", "linear", "cards", "x"]),
        "--n": _INT_TEXT,
        "--d": _INT_TEXT,
        "--corruption": st.sampled_from(["none", "even_n", "even_m", "no_empty", "no_unique", "x"]),
        "--decks": st.integers(-1, 50).map(str) | st.just("x"),
        "--emit": st.sampled_from(["items", "profile", "x"]),
        "--seed": st.integers(-(2**70), 2**70).map(str) | st.just("x"),
    },
    "power": {
        "--workers": st.sampled_from(["2", "1", "0", "-1", "x"]),
        "--seed": st.integers(-(2**70), 2**70).map(str) | st.just("x"),
    },
    "bounds": {
        "--n": _INT_TEXT | st.sampled_from([str(2**1023), str(2**1030)]),
        "--kind": st.lists(st.sampled_from(["even", " odd", "count", "slope", "curv ", "logcurv", "x", ""]),
                           max_size=3).map(",".join),
        "--k": st.lists(_INT_TEXT, max_size=3).map(",".join),
        "--mode": st.sampled_from(["poisson", "multinomial", "x"]),
    },
    # only the quick suites: the others check fixed inputs and take seconds
    "verify": {"--suite": st.sampled_from(["stirling", "normal-tail", "cn-factor", "central-binomial", "x"])},
    "nope": {},
}
# drawn seven times in eight (verify's always, so it never runs every suite)
_REQUIRED = {"simulate": ["--kind", "--n", "--d"], "bounds": ["--n"], "verify": ["--suite"]}


@st.composite
def _cli_cases(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    # @out stands for the output path; an unknown flag comes one time in eight
    flags = {**_FLAGS[command], "--output": st.just("@out"), "--bogus": st.just("@out")}
    chosen = [flag for flag in _REQUIRED.get(command, []) if command == "verify" or draw(st.integers(0, 7)) < 7]
    chosen += draw(st.lists(st.sampled_from(sorted(set(flags) - set(chosen) - {"--bogus"})), unique=True, max_size=4))
    chosen += ["--bogus"] if draw(st.integers(0, 7)) == 7 else []
    argv = [command]
    for flag in chosen:
        argv += [flag] if flags[flag] is None else [flag, draw(flags[flag])]
    files = {
        "items": draw(st.binary(max_size=200)),
        "profile": draw(_document(_PROFILE)).encode(),
        "config": draw(_document(_CONFIG)).encode(),
    }
    if command in ("count", "test"):
        argv.insert(1, "@items" if command == "count" else "@profile")
    elif command == "power":
        argv += ["--config", "@config"]
    return argv, files, draw(st.sampled_from(["file", "dir", "missing"]))


@settings(max_examples=400, deadline=None)
@given(_cli_cases())
def test_cli_exits_0_1_or_2_without_a_traceback(case):
    argv, files, output = case
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, blob in files.items():
            (root / name).write_bytes(blob)
        out = {"file": root / "out", "dir": root, "missing": root / "no" / "such" / "out"}[output]
        paths = {f"@{name}": root / name for name in files}
        argv = [str(paths.get(arg, out if arg == "@out" else arg)) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        # power without --output writes its tables to the working directory
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
