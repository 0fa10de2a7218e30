"""Monte Carlo harness: determinism, aggregation, and serialization."""

import csv
import io
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iidtest import harness
from iidtest.counts import CountProfile, profile_from_counts, profile_to_json
from iidtest.generators import GeneratorSpec, expected_mk, reference_theta, sample
from iidtest.harness import (
    ExperimentConfig,
    ExperimentReport,
    _CHUNK,
    _run_chunk,
    config_from_json,
    config_to_json,
    emit_report,
    rejection_curve,
    run_experiment,
)
from iidtest.invariants import (
    DEFAULT_SUITE,
    Mode,
    PValueMethod,
    TestKind,
    TestOptions,
    VarianceSource,
    parse_kind,
)

import scalar_reference as reference


def suite_config(generator, reps, seed=0, tests=DEFAULT_SUITE, **kwargs):
    paired = tuple((kind, TestOptions()) for kind in tests)
    return ExperimentConfig(generator=generator, tests=paired, reps=reps, seed=seed, **kwargs)


def test_rejection_curve_examples():
    assert rejection_curve([0.5], [0.05, 0.9]) == [0.0, 1.0]
    assert rejection_curve([1.0, 1.0, 1.0], [0.01, 0.05]) == [0.0, 0.0]
    ps = [k / 100 for k in range(1, 101)]
    assert rejection_curve(ps, [0.05]) == [pytest.approx(0.05)]
    assert rejection_curve(ps, [1.0]) == [1.0]
    with pytest.raises(ValueError):
        rejection_curve([], [0.05])


def test_config_validation():
    gen = GeneratorSpec("uniform", n=30, d=10)
    with pytest.raises(ValueError):
        suite_config(gen, reps=0)
    with pytest.raises(ValueError):
        ExperimentConfig(generator=gen, tests=())
    with pytest.raises(ValueError):
        suite_config(gen, reps=5, alpha_grid=(0.1, 0.05))
    with pytest.raises(ValueError):
        suite_config(gen, reps=5, alpha_grid=(0.0, 0.5))
    with pytest.raises(ValueError):
        suite_config(gen, reps=5, alpha_star=1.0)
    with pytest.raises(ValueError):
        suite_config(gen, reps=5, tests=(TestKind("even"), TestKind("even")))
    mistyped = [
        {"reps": True},
        {"reps": 2.0},
        {"seed": 1.5},
        {"seed": False},
        {"assert_validity": 1},
        {"alpha_star": "0.05"},
        {"alpha_grid": (0.01, "0.05")},
        {"alpha_grid": 0.05},
        {"reps": np.True_},
        {"reps": np.float64(2.0)},
        {"seed": np.float64(1.0)},
        {"seed": np.False_},
    ]
    for fields in mistyped:
        name = next(iter(fields))
        with pytest.raises(ValueError, match=name):
            suite_config(gen, **{"reps": 5, **fields})
    even = (TestKind("even"), TestOptions())
    pairs = r"^tests must be a list of \(TestKind, TestOptions\) pairs, got "
    malformed = [
        ({"tests": (("even", TestOptions()),)}, pairs + r"\(\('even', TestOptions\("),
        ({"tests": (TestKind("even"),)}, pairs + r"\(TestKind\("),
        ({"tests": (even + (None,),)}, pairs + r"\(\(TestKind\("),
        ({"tests": TestKind("even")}, pairs + r"TestKind\("),
        ({"generator": "x"}, r"^generator must be a GeneratorSpec, got 'x'$"),
    ]
    for fields, message in malformed:
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{"generator": gen, "tests": (even,), "reps": 5, **fields})


def test_config_refuses_options_a_family_cannot_take():
    gen = GeneratorSpec("uniform", n=30, d=10)
    theoretical = TestOptions(variance_source=VarianceSource.THEORETICAL)
    bernstein = TestOptions(pvalue_method=PValueMethod.BERNSTEIN)
    bad = [
        (TestKind("logcurv", 2), theoretical),
        (TestKind("even"), theoretical),
        (TestKind("even"), bernstein),
        (TestKind("slope", 2), bernstein),
    ]
    for kind, opts in bad:
        with pytest.raises(ValueError, match=str(kind)):
            ExperimentConfig(generator=gen, tests=((kind, opts),), reps=5)
    ExperimentConfig(generator=gen, tests=((TestKind("count", 2), bernstein),), reps=5)


def test_labels_append_the_control():
    cfg = suite_config(GeneratorSpec("uniform", n=30, d=10), reps=5)
    assert cfg.labels == ("even", "odd", "count:2", "slope:2", "curv:2", "logcurv:2", "u")


def test_single_repetition_report():
    cfg = suite_config(GeneratorSpec("uniform", n=30, d=10, seed=2), reps=1, seed=9)
    report = run_experiment(cfg)
    for label in cfg.labels:
        assert len(report.pvalues[label]) == 1
        assert all(frac in (0.0, 1.0) for _, frac, _ in report.curves[label])
        assert all(stderr == 0.0 for _, _, stderr in report.curves[label])
    assert sum(k * m for k, m in report.sample_m.items()) == 30


def test_worker_count_does_not_change_output():
    cfg = suite_config(GeneratorSpec("uniform", n=60, d=20, seed=5), reps=16, seed=31)
    serial = emit_report(run_experiment(cfg, workers=1))
    parallel = emit_report(run_experiment(cfg, workers=3))
    assert serial == parallel


def test_workers_running_many_chunks_each_match_one_worker():
    # each of two workers runs more than two chunks, the last one short
    cfg = suite_config(GeneratorSpec("cards", n=5, decks=1), reps=4 * _CHUNK + 3, seed=3)
    assert emit_report(run_experiment(cfg, workers=2)) == emit_report(run_experiment(cfg, workers=1))


def test_pool_is_capped_at_the_usable_cpus(monkeypatch):
    assert 1 <= harness._usable_cpus() <= os.cpu_count()
    started = []

    class RecordingPool:
        # runs the spans in this process; records the pool size asked for
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    cfg = suite_config(GeneratorSpec("uniform", n=60, d=20, seed=5), reps=16, seed=31)
    capped = emit_report(run_experiment(cfg, workers=5000))
    assert started == [3]
    assert capped == emit_report(run_experiment(cfg, workers=1))
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    assert emit_report(run_experiment(cfg, workers=5000)) == capped
    assert started == [3]


def test_workers_must_be_positive():
    # a float or a bool is no worker count, even one that equals an int
    cfg = suite_config(GeneratorSpec("uniform", n=30, d=10), reps=2)
    for workers in (0, 2.0, True, np.True_, np.float64(1.0)):
        with pytest.raises(ValueError, match=f"^workers must be an integer >= 1, got {re.escape(repr(workers))}$"):
            run_experiment(cfg, workers=workers)


_NUMPY_INTS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_NUMPY_INTS), st.data())
def test_numpy_integers_build_the_records_python_ints_build(dtype, data):
    # every record takes any integral type and stores Python ints, so a
    # numpy integer changes neither an object nor a byte of its output
    top = int(np.iinfo(dtype).max)

    def ints(lo, hi):
        return data.draw(st.integers(lo, min(hi, top)))

    # up to four entries k * m_k <= top / 4 keep n in range too
    side = math.isqrt(top // 4)
    mult = data.draw(st.dictionaries(st.integers(1, side), st.integers(1, side), max_size=4))
    n = sum(k * m for k, m in mult.items())
    pairs = [
        (CountProfile(dtype(n), {dtype(k): dtype(m) for k, m in mult.items()}), CountProfile(n, mult)),
        (profile_from_counts(np.array(list(mult), dtype=dtype)), profile_from_counts(list(mult))),
    ]
    for profile, plain in pairs:
        assert profile == plain and profile_to_json(profile) == profile_to_json(plain)
        assert all(type(x) is int for k, m in profile.multiplicities.items() for x in (profile.n, k, m))

    k = ints(1, 2**53)
    assert TestKind("count", dtype(k)) == TestKind("count", k)
    assert type(TestKind("count", dtype(k)).k) is int
    values = {"n": ints(0, 2**53), "d": ints(1, 2**53), "seed": ints(0, 2**64 - 1)}
    spec = GeneratorSpec("uniform", **{name: dtype(v) for name, v in values.items()})
    assert spec == GeneratorSpec("uniform", **values)
    decks = ints(1, 2**53 // 52)
    cards = GeneratorSpec("cards", n=dtype(0), decks=dtype(decks))
    assert cards == GeneratorSpec("cards", n=0, decks=decks)
    assert all(type(getattr(s, name)) is int for s in (spec, cards) for name in ("n", "d", "decks", "seed"))

    small = GeneratorSpec("uniform", n=dtype(ints(0, 30)), d=dtype(ints(1, 10)), seed=dtype(ints(0, 9)))
    reps, seed, workers = ints(1, 3), ints(0, 2**64 - 1), ints(1, 2)
    cfg = suite_config(small, reps=dtype(reps), seed=dtype(seed))
    plain = suite_config(GeneratorSpec("uniform", n=small.n, d=small.d, seed=small.seed), reps, seed)
    assert cfg == plain and type(cfg.reps) is int and type(cfg.seed) is int
    assert json.dumps(config_to_json(cfg)) == json.dumps(config_to_json(plain))
    assert emit_report(run_experiment(cfg, workers=dtype(workers))) == emit_report(
        run_experiment(plain, workers=workers)
    )


def test_control_curve_tracks_the_diagonal():
    cfg = suite_config(
        GeneratorSpec("uniform", n=90, d=30, seed=5), reps=400, seed=5, tests=(TestKind("even"),)
    )
    report = run_experiment(cfg)
    for alpha, frac, _ in report.curves["u"]:
        slack = 3.0 * math.sqrt(alpha * (1.0 - alpha) / cfg.reps) + 1.0 / cfg.reps
        assert abs(frac - alpha) <= slack, f"alpha={alpha}"


def test_curves_are_monotone_in_alpha():
    cfg = suite_config(GeneratorSpec("linear", n=60, d=12, seed=8), reps=64, seed=8)
    report = run_experiment(cfg)
    for label in cfg.labels:
        fracs = [frac for _, frac, _ in report.curves[label]]
        assert fracs == sorted(fracs), label


def test_doubled_corruption_saturates_even_headline():
    cfg = suite_config(
        GeneratorSpec("uniform", n=1000, d=100, corruption="even_n", seed=4),
        reps=50,
        seed=4,
        tests=(TestKind("even"),),
    )
    report = run_experiment(cfg)
    rate, stderr = report.headline["even"]
    assert rate == 1.0 and stderr == 0.0
    assert report.validity_failures() == ["even"]
    assert all(k % 2 == 0 for k in report.sample_m)
    # the expectation column reflects the uncorrupted weights, where
    # singletons dominate at n = 10 d
    assert report.expected_m[1] > 0.0


def test_validity_failures_ignore_the_control():
    cfg = suite_config(GeneratorSpec("uniform", n=60, d=30, seed=6), reps=100, seed=6)
    report = run_experiment(cfg)
    assert "u" not in report.validity_failures()


def test_csv_headers_and_k_columns():
    cfg = suite_config(GeneratorSpec("uniform", n=30, d=10, seed=1), reps=2, seed=1)
    docs = emit_report(run_experiment(cfg))
    assert set(docs) == {"pvalues.csv", "curves.csv", "mk.csv"}

    plines = docs["pvalues.csv"].decode().splitlines()
    assert plines[0] == "rep,test,k,p"
    assert plines[1].startswith("0,even,,")
    assert any(line.startswith("0,count,2,") for line in plines)
    assert any(line.startswith("1,u,,") for line in plines)
    assert len(plines) == 1 + 2 * 7

    clines = docs["curves.csv"].decode().splitlines()
    assert clines[0] == "test,k,alpha,fraction,stderr"

    mlines = docs["mk.csv"].decode().splitlines()
    assert mlines[0] == "k,sample_m,avg_m,expected_m"
    ks = [int(line.split(",")[0]) for line in mlines[1:]]
    assert ks == list(range(1, len(ks) + 1))


def test_mk_table_shows_missing_singletons_under_corruption():
    # even_n doubles every category count, so odd multiplicities vanish
    cfg = suite_config(
        GeneratorSpec("uniform", n=40, d=10, corruption="even_n", seed=2),
        reps=3,
        seed=2,
        tests=(TestKind("even"),),
    )
    docs = emit_report(run_experiment(cfg))
    rows = [line.split(",") for line in docs["mk.csv"].decode().splitlines()[1:]]
    by_k = {int(r[0]): r for r in rows}
    assert by_k[1][1] == "0" and by_k[1][2] == "0.0"
    assert float(by_k[1][3]) > 0.0


def test_curves_csv_matches_report():
    cfg = suite_config(GeneratorSpec("linear", n=45, d=9, seed=7), reps=8, seed=7)
    report = run_experiment(cfg)
    lines = emit_report(report)["curves.csv"].decode().splitlines()
    assert lines[0] == "test,k,alpha,fraction,stderr"
    parsed = {}
    for name, k, alpha, frac, stderr in (line.split(",") for line in lines[1:]):
        label = f"{name}:{k}" if k else name
        parsed.setdefault(label, []).append((float(alpha), float(frac), float(stderr)))
    assert {label: tuple(rows) for label, rows in parsed.items()} == report.curves


def test_config_json_round_trip():
    cfg = suite_config(
        GeneratorSpec("cards", n=52, decks=2, seed=12),
        reps=10,
        seed=12,
        alpha_grid=(0.01, 0.05, 0.5),
        alpha_star=0.01,
        assert_validity=True,
    )
    assert config_from_json(json.dumps(config_to_json(cfg))) == cfg


def test_config_json_bytes_are_pinned():
    # power's stdout embeds this document, so its key order is output
    multinomial = TestOptions(mode=Mode.MULTINOMIAL, cn_correction=True)
    bernstein = TestOptions(
        variance_source=VarianceSource.THEORETICAL, pvalue_method=PValueMethod.BERNSTEIN
    )
    cfg = ExperimentConfig(
        generator=GeneratorSpec("linear", n=40, d=8, corruption="even_m", seed=3),
        tests=((TestKind("even"), multinomial), (TestKind("count", 3), bernstein)),
        reps=50,
        alpha_grid=(0.01, 0.1),
        alpha_star=0.01,
        seed=7,
        assert_validity=True,
    )
    assert json.dumps(config_to_json(cfg)) == (
        '{"generator": {"kind": "linear", "n": 40, "d": 8, "corruption": "even_m", '
        '"decks": 1, "seed": 3}, "tests": [{"kind": "even", "mode": "multinomial", '
        '"cn": true, "variance": "auto", "pvalue": "gaussian"}, {"kind": "count:3", '
        '"mode": "poisson", "cn": false, "variance": "theoretical", "pvalue": "bernstein"}], '
        '"reps": 50, "alpha_grid": [0.01, 0.1], "alpha_star": 0.01, "seed": 7, '
        '"assert_validity": true}'
    )


def test_config_document_option_inheritance():
    doc = {
        "generator": {"kind": "uniform", "n": 30, "d": 10},
        "options": {"mode": "multinomial", "cn": True},
        "tests": ["even", {"kind": "count:2", "variance": "theoretical", "cn": False}],
    }
    cfg = config_from_json(json.dumps(doc))
    even_opts = cfg.tests[0][1]
    count_opts = cfg.tests[1][1]
    assert even_opts.mode is Mode.MULTINOMIAL and even_opts.cn_correction
    assert count_opts.mode is Mode.MULTINOMIAL and not count_opts.cn_correction
    assert count_opts.variance_source is VarianceSource.THEORETICAL


@pytest.mark.parametrize(
    "mangle",
    [
        lambda doc: doc.update(extra=1),
        lambda doc: doc["generator"].update(theta=[0.5]),
        lambda doc: doc.update(tests=[]),
        lambda doc: doc.update(tests=[7]),
        lambda doc: doc.update(tests=[{"mode": "poisson"}]),
        lambda doc: doc.update(tests=[{"kind": "count:2", "bias": 1}]),
        lambda doc: doc.update(options=["poisson"]),
        lambda doc: doc.pop("generator"),
        lambda doc: doc["generator"].pop("n"),
    ],
)
def test_config_document_rejects_malformed_fields(mangle):
    doc = {"generator": {"kind": "uniform", "n": 30, "d": 10}, "tests": ["even"]}
    mangle(doc)
    with pytest.raises(ValueError):
        config_from_json(json.dumps(doc))


def test_config_document_rejects_bad_json():
    with pytest.raises(ValueError):
        config_from_json("{not json")
    with pytest.raises(ValueError):
        config_from_json("[1, 2]")


def _table(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _parts(label):
    name, _, k = label.partition(":")
    return [name, k]


def _reference_pvalues_csv(labels, pvalues):
    reps = len(pvalues[labels[0]])
    rows = ([rep] + _parts(label) + [repr(pvalues[label][rep])] for rep in range(reps) for label in labels)
    return _table(["rep", "test", "k", "p"], rows)


def _scalar_reference_tables(cfg):
    # the harness one rep at a time: sample, the scalar reference's
    # run_test per member, and aggregate and write the tables in plain Python
    reps = cfg.reps
    pvalues = {label: [] for label in cfg.labels}
    totals = {}
    for rep in range(reps):
        rng = np.random.Generator(np.random.Philox(key=(cfg.seed ^ rep) & (2**64 - 1)))
        profile = sample(cfg.generator, rng=rng)
        pvalues["u"].append(float(rng.random()))
        for label, (kind, opts) in zip(cfg.labels, cfg.tests):
            pvalues[label].append(reference.run_test(kind, profile, opts).p)
        for k, mk in profile.multiplicities.items():
            totals[k] = totals.get(k, 0) + mk
        if rep == 0:
            first = profile.multiplicities

    def stderr(frac):
        return repr(math.sqrt(frac * (1.0 - frac) / reps))

    curves = []
    for label in cfg.labels:
        for alpha in cfg.alpha_grid:
            frac = sum(p <= alpha for p in pvalues[label]) / reps
            curves.append(_parts(label) + [repr(alpha), repr(frac), stderr(frac)])
    k_max = max(totals, default=1)
    expected = expected_mk(reference_theta(cfg.generator), cfg.generator.n, k_max)
    mk = [
        [k, first.get(k, 0), repr(totals.get(k, 0) / reps), repr(float(expected[k]))]
        for k in range(1, k_max + 1)
    ]
    return {
        "pvalues.csv": _reference_pvalues_csv(cfg.labels, pvalues),
        "curves.csv": _table(["test", "k", "alpha", "fraction", "stderr"], curves),
        "mk.csv": _table(["k", "sample_m", "avg_m", "expected_m"], mk),
    }


_REFERENCE_CONFIGS = {
    "cards with a bernstein count:3": {
        "generator": {"kind": "cards", "n": 65, "decks": 2},
        "tests": [*(str(kind) for kind in DEFAULT_SUITE), {"kind": "count:3", "pvalue": "bernstein"}],
    },
    "uniform with c_n": {
        "generator": {"kind": "uniform", "n": 1000, "d": 100},
        "tests": [str(kind) for kind in DEFAULT_SUITE],
        "options": {"cn": True},
    },
    "multinomial linear even_m": {
        "generator": {"kind": "linear", "n": 200, "d": 40, "corruption": "even_m"},
        "tests": [*(str(kind) for kind in DEFAULT_SUITE), "count:3", "slopelower:3"],
        "options": {"mode": "multinomial"},
    },
    # seed XOR rep is taken mod 2**64 whatever the seed's sign or size
    "cards with a negative seed": {
        "generator": {"kind": "cards", "n": 30, "decks": 3},
        "tests": [str(kind) for kind in DEFAULT_SUITE],
        "seed": -(2**40) - 3,
    },
    "linear with a seed past 2**64": {
        "generator": {"kind": "linear", "n": 100, "d": 10, "corruption": "no_empty"},
        "tests": [str(kind) for kind in DEFAULT_SUITE],
        "seed": 2**64 + 2**63 + 11,
    },
    # past one harness chunk of 1024 reps: the second chunk's keys
    # carry on from the first's
    "cards across a chunk boundary": {
        "generator": {"kind": "cards", "n": 65, "decks": 2},
        "tests": [str(kind) for kind in DEFAULT_SUITE],
        "reps": 1100,
    },
    "uniform across a chunk boundary": {
        "generator": {"kind": "uniform", "n": 1000, "d": 100},
        "tests": [str(kind) for kind in DEFAULT_SUITE],
        "options": {"cn": True},
        "reps": 1100,
    },
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", list(_REFERENCE_CONFIGS))
def test_report_bytes_match_a_scalar_reference(name, workers):
    doc = {"reps": 400, "seed": 2**64 - 7, **_REFERENCE_CONFIGS[name]}
    cfg = config_from_json(json.dumps(doc))
    assert emit_report(run_experiment(cfg, workers=workers)) == _scalar_reference_tables(cfg)


def test_pvalues_csv_gives_each_float_its_own_text():
    # the writer formats each distinct value once; values that compare
    # equal but print apart (0.0, -0.0) or never compare equal (nan)
    # must still print as repr prints each cell
    cfg = suite_config(GeneratorSpec("uniform", n=10, d=3), reps=7, tests=(parse_kind("even"), parse_kind("count:2")))
    nan = math.nan
    pvalues = {
        "even": (0.25, 0.0, -0.0, 0.25, -0.0, 0.0, 0.25),
        "count:2": (nan, 5e-324, 1.0, float("nan"), 1.0, 5e-324, nan),
        "u": (-0.0, 0.1 + 0.2, 0.3, 0.0, 1.0, -0.0, 1.0),
    }
    curves = {label: () for label in cfg.labels}
    report = ExperimentReport(cfg, pvalues, curves, {}, {}, {}, {})
    assert emit_report(report)["pvalues.csv"] == _reference_pvalues_csv(cfg.labels, pvalues)


def test_memory_does_not_grow_with_the_largest_count():
    # d = 1 puts all n = 1e5 items on one count: a dense reps x n
    # multiplicity matrix would take 200 * 1e5 * 8 B = 160 MB
    cfg = suite_config(GeneratorSpec("uniform", n=100_000, d=1), reps=200)
    tracemalloc.start()
    try:
        pvalues, totals, first = _run_chunk(cfg, 0, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert totals.tolist() == [0] * 100_000 + [200] and first[100_000] == 1
    assert pvalues.shape == (len(cfg.labels), 200)
