"""Tests of the benchmark itself, on the smoke corpus.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload(trace):
    proc = _bench("--workload", "all", "--smoke", "--seconds", "0.3",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    declared = _declared()
    assert sorted(results) == sorted(w["name"] for w in declared["workloads"])
    section = declared["per_layer" if trace == "1" else "end_to_end"]
    for name, r in results.items():
        assert set(r) == {"correct", "attempted", "failed", "metrics"}
        assert r["correct"], name
        assert r["attempted"] >= 1
        assert {m: v["unit"] for m, v in r["metrics"].items()} == \
            {m["name"]: m["unit"] for m in section}
    for name in ("needle", "broad"):
        assert results[name]["failed"] == 0, name
    # the forced timeout is stopped, counted and reported, not hung on
    assert results["broad-default"]["failed"] == 1
    assert "'timeout': 1" in proc.stdout
    if trace == "0":
        for name in results:
            assert f"{name:14s} fail_frac" in proc.stdout


def test_result_line_is_last():
    proc = _bench("--workload", "needle", "--smoke", "--seconds", "0.2",
                  "--trace", "0", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert result["metrics"]["setup_s"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "needle", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_has_ten_samples_above_or_is_the_maximum():
    assert run.tail([float(i) for i in range(5)]) == (4.0, 100.0, 0)
    value, pct, above = run.tail([float(i) for i in range(100)])
    assert (value, above) == (89.0, 10)
    assert pct == pytest.approx(90.0)


def _spin():
    while True:
        pass


def test_capped_stops_a_runaway_call():
    import signal
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        with pytest.raises(run.QueryTimeout):
            run.capped(0.05, _spin)
    finally:
        signal.signal(signal.SIGALRM, old)
