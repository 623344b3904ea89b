"""Fast end-to-end check of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py          # or: python -m pytest perfbench/smoke.py

Runs every workload untraced and traced with ``--tiny`` for one second,
checks the result line against ``BENCHMARK.json``, and checks that a
directory holding only the benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_workload(name: str, trace: int) -> None:
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_oracle():
    check_workload("oracle-r256", 0)


def test_copy_file():
    check_workload("copy-file-r64", 0)


def test_attend():
    check_workload("attend-grid", 0)


def test_traced():
    for name in ("oracle-r256", "copy-file-r64", "attend-grid"):
        check_workload(name, 1)


def test_bare_directory_fails():
    bare = BENCH / ".work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _run(bare, "--workload", "attend-grid", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
