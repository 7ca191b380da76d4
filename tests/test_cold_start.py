"""Cold-start import guard: a fresh ``repro count`` loads only what it runs.

Each check runs in a new interpreter, so modules other tests imported
cannot hide an eager import.  The CLI goes through the real
``python -m repro`` entry point (``runpy``, as ``-m`` does) and the
child reports ``sys.modules`` as the process exits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: subsystems a plain count never executes, and heavy third-party or
#: stdlib packages only they would pull in.
NOT_LOADED_BY_COUNT = (
    "scipy",
    "asyncio",
    "repro.serving",
    "repro.streaming",
    "repro.mining",
    "repro.approx",
    "repro.baselines",
    "repro.core.codegen",
)

_CHILD = """
import json, runpy, sys
sys.argv = ["repro", *json.loads(sys.argv[1])]
status = None
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    status = exc.code
print(json.dumps({"status": status, "modules": sorted(sys.modules)}))
"""


def _run(code: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded(modules: list[str], prefix: str) -> list[str]:
    return [m for m in modules if m == prefix or m.startswith(prefix + ".")]


def test_count_loads_no_unused_subsystem(tmp_path):
    edges = tmp_path / "square.edges"
    edges.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
    report = _run(_CHILD, json.dumps(["count", "--pattern", "P1", "--edge-list", str(edges)]))
    assert report["status"] == 0
    for prefix in NOT_LOADED_BY_COUNT:
        assert not _loaded(report["modules"], prefix), f"`repro count` imported {prefix}"


def test_bare_import_loads_no_core_module():
    report = _run(
        "import json, sys, repro; "
        "print(json.dumps({'modules': sorted(sys.modules)}))"
    )
    assert not _loaded(report["modules"], "repro.core")
    assert not _loaded(report["modules"], "numpy")


def test_compiled_count_loads_codegen_on_demand(tmp_path):
    edges = tmp_path / "square.edges"
    edges.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
    argv = ["count", "--pattern", "triangle", "--edge-list", str(edges)]
    report = _run(_CHILD, json.dumps([*argv, "--backend", "compiled"]))
    assert report["status"] == 0
    assert "repro.core.codegen" in report["modules"]
