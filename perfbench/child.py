"""Fresh-interpreter probe: set-up time, and peak memory of one pass.

    python3 child.py <src_dir> <config_path|-> [<cli argv as JSON> ...]

Times `import iidtest` (with its CLI module) plus parsing the
workload's config, the work every fresh `iidtest` process does before
its first timed call. With CLI argument lists it then runs each
through `iidtest.cli.main` and reports the exit codes, the captured
stdout and the peak resident memory of this process. The result is
one JSON line on stdout.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, config_path, *commands = sys.argv[1:]
    sys.path.insert(0, src)
    import iidtest
    import iidtest.cli

    if config_path != "-":
        with open(config_path) as fh:
            iidtest.config_from_json(fh.read())
    setup_s = time.perf_counter() - _T0
    codes, stdout = [], io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for argv in commands:
            codes.append(iidtest.cli.main(json.loads(argv)))
    print(json.dumps({
        "setup_s": setup_s,
        "iidtest_file": iidtest.__file__,
        "codes": codes,
        "stdout": stdout.getvalue(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
