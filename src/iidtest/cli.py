"""Command-line interface.

Exit codes: 0 success (and, for ``test``, no rejection), 2 rejection
of the iid hypothesis at the requested level, 1 anything malformed
(unknown flags, unreadable input, invalid profile or config) or too
large to allocate. Machine readable output goes to stdout only;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

# only numpy-free modules at the top: each command imports what it
# computes with, so `iidtest count` loads neither numpy nor scipy
from .definitions import (
    _CORRUPTIONS,
    _KINDS,
    DEFAULT_SUITE,
    FAMILIES,
    SUITE_NAMES,
    GeneratorSpec,
    Mode,
    TestKind,
    TestOptions,
    VarianceSource,
    parse_kind,
)

_USAGE_EXIT = 1
_REJECT_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # "iid hypothesis rejected", so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_text(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _options_from_args(args) -> TestOptions:
    return TestOptions(mode=args.mode, cn_correction=args.cn == "on", variance_source=args.variance)


def _cmd_count(args) -> int:
    from .counts import ingest_lines, profile_to_json

    if args.input == "-":
        profile = ingest_lines(sys.stdin.buffer, hashed=args.hashed)
    else:
        with open(args.input, "rb") as stream:
            profile = ingest_lines(stream, hashed=args.hashed)
    _write_text(profile_to_json(profile) + "\n", args.output)
    return 0


def _cmd_test(args) -> int:
    from .counts import profile_from_json
    from .invariants import _run_suite, combine_bonferroni

    if not 0.0 < args.alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {args.alpha}")
    profile = profile_from_json(_read_text(args.input))
    opts = _options_from_args(args)
    kinds = [parse_kind(tok) for tok in args.tests.split(",") if tok.strip()]
    if not kinds:
        raise ValueError("empty test list")
    results = _run_suite(tuple((kind, opts) for kind in kinds), profile)
    if args.no_correction:
        rejected = [r for r in results if r.p <= args.alpha]
        combined = {
            "method": "raw",
            "alpha": args.alpha,
            "reject": bool(rejected),
            "rejected_by": [str(r.kind) for r in rejected],
        }
        reject = bool(rejected)
    else:
        outcome = combine_bonferroni(results, args.alpha)
        combined = {
            "method": "bonferroni",
            "alpha": args.alpha,
            "p": outcome.p,
            "source": str(outcome.source),
            "reject": outcome.reject,
        }
        reject = bool(outcome.reject)
    doc = {
        "n": profile.n,
        "results": [r.to_dict() for r in results],
        "combined": combined,
    }
    _write_text(json.dumps(doc, indent=2) + "\n", args.output)
    return _REJECT_EXIT if reject else 0


def _cmd_simulate(args) -> int:
    from .counts import profile_to_json
    from .generators import sample, sample_items

    spec = GeneratorSpec(
        kind=args.kind,
        n=args.n,
        d=args.d,
        corruption=args.corruption,
        decks=args.decks,
        seed=args.seed,
    )
    if args.emit == "items":
        lines = "\n".join(str(x) for x in sample_items(spec))
        _write_text(lines + "\n" if lines else "", args.output)
    else:
        _write_text(profile_to_json(sample(spec)) + "\n", args.output)
    return 0


def _cmd_power(args) -> int:
    from .harness import config_from_json, config_to_json, emit_report, run_experiment

    cfg = config_from_json(_read_text(args.config))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    report = run_experiment(cfg, workers=args.workers)
    out_dir = Path(args.output or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, blob in emit_report(report).items():
        (out_dir / name).write_bytes(blob)
    summary = {
        "config": config_to_json(cfg),
        "headline": {label: list(h) for label, h in report.headline.items()},
        "output_dir": str(out_dir),
    }
    failures = report.validity_failures() if cfg.assert_validity else []
    if failures:
        summary["validity_failures"] = failures
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    if failures:
        print(f"validity assertion failed for: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def _cmd_bounds(args) -> int:
    from .invariants import bound_mean, theoretical_variance

    families = [name.strip() for name in args.kind.split(",")] if args.kind else list(FAMILIES)
    ks = [int(tok) for tok in args.k.split(",")] if args.k else [2]
    mode = Mode(args.mode)
    lines = ["kind,k,n,mode,tau_ub,v_ub_theoretical"]
    for name in families:
        # an unknown name takes a k here so that TestKind names it
        takes_k = name not in FAMILIES or FAMILIES[name].min_k is not None
        for k in ks if takes_k else [None]:
            kind = TestKind(name, k)
            tau = bound_mean(kind, args.n, mode)
            try:
                v = repr(theoretical_variance(kind, args.n, mode))
            except ValueError:
                # no weights, or a count bound beyond reach (multinomial k+1 >= n)
                v = ""
            lines.append(f"{name},{'' if k is None else k},{args.n},{mode.value},{tau!r},{v}")
    _write_text("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_checks

    names = [args.suite] if args.suite else None
    results = run_checks(names)
    lines = [f"{r.name},{'ok' if r.ok else 'fail'}" for r in results]
    _write_text("\n".join(lines) + "\n", args.output)
    bad = [r for r in results if not r.ok]
    for r in results:
        print(f"{r.name}: {r.detail}", file=sys.stderr)
    return 1 if bad else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="iidtest", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--output", default=None, help="output path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="reduce newline-delimited items to a profile")
    p.add_argument("input", nargs="?", default="-", help="items file, - for stdin")
    p.add_argument("--hashed", action="store_true", help="key items by 128-bit digest (collision caveat)")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("test", parents=[common], help="run a test suite on a profile document")
    p.add_argument("input", nargs="?", default="-", help="profile JSON, - for stdin")
    suite = ",".join(map(str, DEFAULT_SUITE))
    p.add_argument("--tests", default=suite, help=f"comma list like {suite}")
    p.add_argument("--mode", choices=[m.value for m in Mode], default="poisson")
    p.add_argument("--cn", choices=["on", "off"], default="off",
                   help="charge the poissonization factor c_n against significance")
    p.add_argument("--variance", choices=[v.value for v in VarianceSource], default="auto")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--no-correction", action="store_true",
                   help="per-test decisions at raw alpha instead of Bonferroni")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("simulate", parents=[common], help="draw synthetic data")
    p.add_argument("--kind", choices=_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=0, help="categories (uniform/linear)")
    p.add_argument("--corruption", choices=_CORRUPTIONS, default="none")
    p.add_argument("--decks", type=int, default=1)
    p.add_argument("--emit", choices=["profile", "items"], default="profile")
    p.add_argument("--seed", type=int, default=0, help="generator seed (u64)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("power", parents=[common], help="Monte Carlo experiment from a config document")
    p.add_argument("--config", required=True, help="experiment config JSON, - for stdin")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, at most one per usable CPU")
    p.add_argument("--seed", type=int, default=None, help="experiment seed (u64), replaces the config's")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("bounds", parents=[common], help="print mean/variance bound tables")
    p.add_argument("--kind", default=None, help="comma list of families (default: all)")
    p.add_argument("--k", default=None, help="comma list of k values (default: 2)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode], default="poisson")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", parents=[common], help="run numeric verification suites")
    p.add_argument("--suite", default=None, choices=sorted(SUITE_NAMES),
                   help="single suite to run (default: all)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"iidtest {args.command}: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except MemoryError as exc:
        print(f"iidtest {args.command}: out of memory: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
