"""`iidtest test` reports, every ``--help`` and two usage errors pinned
byte for byte.

Each report case runs the command on one profile document and compares
its stdout with the file ``golden/<case>.json`` and its exit code with
the table. The profiles reach the corners of the p-value stage: sums
past 2**63, a zero variance, n < 2, every logcurv zero pattern, each
option flag and the largest k. The help and usage texts are compared
with ``golden/<case>.txt`` at an 80-column terminal, as CPython 3.11's
argparse formats them; other Python versions may word them differently.
"""

import json
from pathlib import Path

import pytest

from iidtest.cli import main

GOLDEN = Path(__file__).parent / "golden"

K_MAX = 2**53
# a profile of 200 items with a tail in most default-suite members
VARIED = {"n": 200, "m": {"1": 20, "2": 60, "3": 20}}
LINEAR = ",".join(["count:1", "count:2", "count:3", "slope:2", "slope:3",
                   "slopelower:2", "slopelower:3", "curv:2", "curv:3"])

# case -> (profile document, flags, exit code)
CASES = {
    # count:2 has z = -4.29e14 and slope:2 has v_ub = 0
    "n_1e30_on_one_item": ({"n": 10**30, "m": {str(10**30): 1}}, [], 0),
    # ln c_n past int64, from Stirling's series
    "n_1e30_on_one_item_cn_on": ({"n": 10**30, "m": {str(10**30): 1}}, ["--cn", "on"], 0),
    # ln c_n where 2 pi n is past the largest float: a certain rejection
    "n_2_1023_cn_on": ({"n": 2**1023, "m": {"2": 2**1022}}, ["--tests", "count:2", "--cn", "on"], 2),
    "sums_past_2_63": ({"n": 4 * 10**21, "m": {"1": 2 * 10**21, "2": 10**21}}, [], 2),
    "n_0": ({"n": 0, "m": {}}, [], 0),
    "n_1": ({"n": 1, "m": {"1": 1}}, [], 0),
    "logcurv_upper_limit": ({"n": 10, "m": {"2": 5}}, [], 2),
    "logcurv_no_center": ({"n": 12, "m": {"3": 4}}, [], 0),
    "logcurv_no_left_flank": ({"n": 16, "m": {"2": 5, "3": 2}}, [], 0),
    "logcurv_no_right_flank": ({"n": 12, "m": {"1": 2, "2": 5}}, [], 0),
    "logcurv_in_the_tail": ({"n": 142, "m": {"1": 4, "2": 60, "3": 6}}, [], 2),
    "multinomial": (VARIED, ["--mode", "multinomial"], 2),
    "cn_on": (VARIED, ["--cn", "on"], 2),
    "theoretical_linear_only": (VARIED, ["--variance", "theoretical", "--tests", LINEAR], 2),
    "no_correction": (VARIED, ["--no-correction", "--alpha", "0.01"], 2),
    "k_2_53": (
        {"n": 3 * K_MAX, "m": {str(K_MAX): 3}},
        ["--tests", ",".join(f"{fam}:{K_MAX}" for fam in ("count", "slope", "slopelower", "curv", "logcurv"))],
        2,
    ),
}


def run(case, tmp_path, capsys):
    profile, flags, _ = CASES[case]
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    code = main(["test", str(path), *flags])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", list(CASES))
def test_test_report_is_pinned(case, tmp_path, capsys):
    code, out = run(case, tmp_path, capsys)
    assert out.encode() == (GOLDEN / f"{case}.json").read_bytes()
    assert code == CASES[case][2]


# case -> argv; help goes to stdout with exit 0, a usage error to stderr with exit 1
HELP_CASES = {
    "help_iidtest": ["--help"],
    **{f"help_{command}": [command, "--help"]
       for command in ("count", "test", "simulate", "power", "bounds", "verify")},
    "usage_bad_suite": ["verify", "--suite", "nope"],
    "usage_bad_kind": ["simulate", "--kind", "pareto", "--n", "5"],
}


@pytest.mark.parametrize("case", list(HELP_CASES))
def test_help_and_usage_errors_are_pinned(case, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(HELP_CASES[case])
    captured = capsys.readouterr()
    code = 0 if case.startswith("help_") else 1
    text, other = (captured.out, captured.err) if code == 0 else (captured.err, captured.out)
    assert exit_info.value.code == code
    assert other == ""
    assert text.encode() == (GOLDEN / f"{case}.txt").read_bytes()


@pytest.mark.parametrize("n", [0, 1])
def test_test_refuses_an_option_on_a_tiny_profile(n, tmp_path, capsys):
    # the options are checked before the n < 2 early return
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"n": n, "m": {"1": 1} if n else {}}))
    assert main(["test", str(path), "--variance", "theoretical"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "iidtest test: even has no theoretical variance bound; use empirical\n"
