"""Tests of the benchmark itself; run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS, capacity_bits, rep_argv, rep_inputs  # noqa: E402

from csdcsim import protocol, states  # noqa: E402
from csdcsim.protocol import ProtocolConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    # The digest is recorded for seed 0 only; any other seed must be checked too.
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1000", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_the_benchmark_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_for_a_seed(name):
    workload = WORKLOADS[name]
    first = [rep_argv(workload, 7, rep, "t", "s") for rep in range(4)]
    again = [rep_argv(workload, 7, rep, "t", "s") for rep in range(4)]
    other = [rep_argv(workload, 8, rep, "t", "s") for rep in range(4)]
    assert first == again
    assert first != other
    assert len({tuple(argv) for argv in first}) == 4  # each repetition is fresh


@pytest.mark.parametrize("name", ["run-long", "run-wide"])
def test_messages_exactly_fill_the_session_capacity(name):
    workload = WORKLOADS[name]
    for rep in range(3):
        _, message = rep_inputs(workload, 3, rep)
        config = ProtocolConfig(
            triplet_count=workload.triplets, message_bits=message, party_count=workload.parties
        )
        assert len(message) == config.capacity_bits == capacity_bits(workload.triplets)


def test_tracer_patches_importing_modules_and_restores_them():
    original = states.measure_qubit
    tracer = Tracer()
    tracer.install()
    try:
        assert protocol.measure_qubit is not original
        assert protocol.measure_qubit is states.measure_qubit
        assert leftover_wrappers()
    finally:
        tracer.uninstall()
    assert protocol.measure_qubit is original is states.measure_qubit
    assert leftover_wrappers() == []


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_passes_a_short_run(name, trace):
    proc = run_bench(name, trace)
    assert proc.returncode == 0, proc.stderr
    *_, manifest, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0, proc.stdout
    info = json.loads(manifest.split("\t", 1)[1])
    assert info["digest"] == info["digest_expected"] is not None
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace and name != "sweep-attacks":
        assert result["metrics"]["attacks.tap.calls"]["value"] == 0
        assert result["metrics"]["attacks.eve_group_information.calls"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("run-wide", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
