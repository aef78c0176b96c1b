"""The benchmark command: metric names, exact counters, missing sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

from run import WORKLOAD_NAMES  # noqa: E402

EXACT = ("nlp.nfev", "nlp.nit", "nlp.minimize.calls", "ocp.not_converged")


def run(*args, cwd=ROOT, check=True):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    if check:
        assert done.returncode == 0, done.stdout + done.stderr
    return done


def result(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_end_to_end_metrics():
    out = result(run("--workload", "mk-open-loop", "--seed", "2", "--seconds", "1"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 10
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counters_repeat_exactly(workload):
    first, second = (result(run("--workload", workload, "--seed", "1", "--trace", "1"))
                     for _ in range(2))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    exact = [k for k in want
             if k in EXACT or (k.startswith("model.cb.") and k.endswith(".calls"))]
    assert len(exact) == 13
    assert ({k: first["metrics"][k]["value"] for k in exact}
            == {k: second["metrics"][k]["value"] for k in exact})


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = run("--workload", "mk-open-loop", "--seconds", "1", cwd=tmp_path, check=False)
    assert done.returncode != 0
    assert done.stdout == ""
