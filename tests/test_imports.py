"""What importing the package and running `iidtest count` load.

Counting needs only the standard library, so ``import iidtest``, the CLI
module and the whole ``count`` command must leave numpy and scipy
unloaded; the first use of a library name loads both. Every case runs
in a fresh interpreter, because this one has them loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ["numpy", "scipy"]


def heavy_modules_after(code: str, stdin: bytes = b"") -> list[str]:
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(set({HEAVY!r}) & set(sys.modules))))\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe], input=stdin, capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", [
    "import iidtest",
    "import iidtest.cli",
    # the import system's own probes must not count as a first use
    "import iidtest; iidtest.__spec__, iidtest.__path__, hasattr(iidtest, '__wrapped__')",
])
def test_importing_loads_neither_numpy_nor_scipy(code):
    assert heavy_modules_after(code) == []


@pytest.mark.parametrize("flags", [[], ["--hashed"]])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_count_loads_neither_numpy_nor_scipy(flags, source, tmp_path):
    items = b"a\nb\na\n"
    path = tmp_path / "items.txt"
    path.write_bytes(items)
    argv = ["count", *flags] + ([str(path)] if source == "file" else [])
    code = f"from iidtest.cli import main\nassert main({argv!r}) == 0"
    assert heavy_modules_after(code, stdin=items) == []


@pytest.mark.parametrize("code", [
    "import iidtest; iidtest.config_from_json",
    "from iidtest import *",
])
def test_first_use_of_a_library_name_loads_numpy_and_scipy(code):
    assert heavy_modules_after(code) == HEAVY
