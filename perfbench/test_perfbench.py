"""Self-test of the benchmark: tiny variants of every workload.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], capture_output=True, text=True,
        timeout=170, cwd=cwd,
    )
    return proc


def _result(*args):
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """Digests of the tiny inputs, regenerated into a scratch file."""
    path = tmp_path_factory.mktemp("perfbench") / "digests.json"
    for name in WORKLOADS:
        proc = _run("--workload", name, "--tiny", "--regen-digests",
                    "--digests", str(path))
        assert proc.returncode == 0, proc.stderr
    return path


def _tiny(workload, digests, *extra):
    return _result("--workload", workload, "--tiny", "--seconds", "1",
                   "--seed", "7", "--digests", str(digests), *extra)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace,
                                                        digests):
    result = _tiny(workload, digests, "--trace", str(trace))
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_digest_trips_the_correctness_check(workload, digests):
    result = _tiny(workload, digests, "--corrupt-digest")
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
