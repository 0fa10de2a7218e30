"""End-to-end CLI checks through subprocess, exit codes included."""

import json
import math
import subprocess
import sys

import pytest

from iidtest.numerics import log_cn

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


def test_power_too_large_to_allocate_exits_one(tmp_path):
    # the p-value table alone would take 2.4e15 bytes, more than a
    # 2**47-byte address space holds, so no allocator can grant it
    doc = _power_config(10**14)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    proc = run_cli("power", "--config", str(cfg), "--output", str(out))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("iidtest power: out of memory:") and proc.stderr.count("\n") == 1
    assert not out.exists()


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
