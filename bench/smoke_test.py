"""Smoke test of the benchmark itself.

    python3 bench/smoke_test.py          (or: python3 -m pytest bench/smoke_test.py)

Runs every workload briefly with --trace 0 and --trace 1 and checks the
result line: every metric that BENCHMARK.json names is there with its
unit, and the failure share and the contract-violation count equal the
values recorded for the seed in record.json.  It also checks that the
benchmark refuses to run without the program's sources.
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
RECORD = json.loads((BENCH / "record.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload",
            workload, "--seed", str(RECORD["seed"]), "--seconds", "1",
            "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    for value in out["metrics"].values():
        assert isinstance(value["value"], (int, float))
    return out


def test_end_to_end_metrics_and_error_rate():
    for w in SPEC["workloads"]:
        out = result(w["name"], 0)
        error_rate = 1 - out["metrics"]["ok_rate"]["value"]
        assert error_rate == RECORD["seed_error_rate"][w["name"]]
        assert out["failed"] / out["attempted"] == error_rate
        assert out["correct"] is (out["failed"] == 0)


def test_per_layer_metrics_and_contract_violations():
    known = RECORD["known_contract_failures"]
    for w in SPEC["workloads"]:
        out = result(w["name"], 1)
        assert out["metrics"]["cli.contract_violations"]["value"] == \
            known["seed_value"]
        assert out["failed"] == 0


def test_refuses_without_sources():
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns(".work", "out",
                                                      "__pycache__"))
    try:
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for test in (test_refuses_without_sources,
                 test_end_to_end_metrics_and_error_rate,
                 test_per_layer_metrics_and_contract_violations):
        test()
        print(f"ok {test.__name__}")
