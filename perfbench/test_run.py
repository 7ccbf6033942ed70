"""Tests of the benchmark itself, at quick sizes.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
UNITS_E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
UNITS_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_spec_names_the_workloads():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def test_reduced_word_count_matches_known_totals():
    # survey totals at q = 2 and 3 (the count does not depend on q)
    assert [run.reduced_word_count(n) for n in (3, 4, 5, 6, 7, 8)] == [
        142,
        608,
        2582,
        10944,
        46366,
        196416,
    ]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_quick_run_passes_the_gate(name):
    result = run.run(name, seed=3, seconds=0, trace=False, size="quick")["result"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == UNITS_E2E
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_and_untraced_runs_give_the_same_digests(name):
    plain = run.run(name, seed=5, seconds=0, trace=False, size="quick")
    traced = run.run(name, seed=5, seconds=0, trace=True, size="quick")
    assert traced["result"]["correct"] is True
    assert traced["result"]["attempted"] == 2  # one untraced, one traced
    seen = {json.dumps(d, sort_keys=True) for d in plain["digests"] + traced["digests"]}
    assert len(seen) == 1
    metrics = traced["result"]["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == UNITS_LAYER
    lines = traced["trace_file"].read_text().splitlines()
    records = [json.loads(line)["record"] for line in lines]
    assert records[0] == "run" and records.count("call") == 1 and "span" in records


def test_sweep_split_comes_from_one_call_and_is_never_negative():
    def call(sweep, domain):
        numbers = dict.fromkeys(["window_images", "pingpong.verify.domain_balls"], 10)
        numbers.update(
            {
                "pingpong.verify.sweep_s": sweep,
                "pingpong.verify.domain_pass_s": domain,
                "pingpong.verify.window_pass_s": sweep - domain,
            }
        )
        return numbers

    layers = run.per_layer([call(2.0, 0.5), call(1.5, 1.0)], [2.0], [1.5])
    assert layers["pingpong.verify.domain_pass_s"] == 1.0
    assert layers["pingpong.verify.window_pass_s"] == 0.5
    layers = run.per_layer([call(1.0, 1.25)], [1.0], [1.0])
    assert layers["pingpong.verify.window_pass_s"] == 0.0
    assert layers["pingpong.verify.window_images_per_s"] == 0.0


def test_wrong_reference_digest_is_a_failed_run():
    references = json.loads(run.REFERENCES.read_text())
    good = references["mc-scalar"]["quick"]["mc"]
    references["mc-scalar"]["quick"]["mc"] = good[::-1]
    result = run.run("mc-scalar", 3, 0, False, "quick", references)["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def _command(workload):
    return [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        "0",
        "--trace",
        "0",
    ]


def test_command_prints_the_result_as_its_last_line():
    # one full-size mc-scalar call, about a second
    proc = subprocess.run(
        _command("mc-scalar"), cwd=run.ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {m["unit"] for m in result["metrics"].values()} == {"s", "MB"}


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        _command("sweep-q2"), cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
