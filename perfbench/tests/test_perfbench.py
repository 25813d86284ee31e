"""Self-tests of the basin-map benchmark on tiny grids.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402

EXACT_COUNTERS = (
    "systems.rk4_state_steps", "systems.adaptive_trajectories",
    "reservoir.closed_loop_column_steps", "reservoir.drive_open_loop_steps",
    "classify.kl_calls", "classify.kl_pair_evals", "experiment.sampling_candidates",
    "training.n_fit", "training.mse",
)


def bench(*args: str, root: str = ROOT) -> tuple[int, list[str], dict | None]:
    """Run the benchmark command; return exit code, output lines, result."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    cmd = [sys.executable if command[0] == "python3" else command[0]] + command[1:]
    proc = subprocess.run(cmd + list(args), cwd=root, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


def printed(lines: list[str]) -> dict[str, tuple[float, str]]:
    """``name value unit`` lines of the human-readable output."""
    metrics = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and not line.startswith("#"):
            metrics[fields[0]] = (float(fields[1]), fields[2])
    return metrics


def copy_checkout(dest: str, with_src: bool = True) -> str:
    """A checkout holding the benchmark (and optionally the package) only."""
    os.makedirs(dest)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(BENCH, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_metric_printed_with_unit():
    code, lines, result = bench("--workload", "tiny_duffing", "--seed", "0",
                                "--seconds", "0.01", "--trace", "0")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 16
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    shown = printed(lines)
    for name, unit in run.END_TO_END.items():
        assert shown[name] == (result["metrics"][name]["value"], unit)
    assert shown["failed_frac"] == (0.0, "1")
    assert shown["f_c"][1] == "1"
    assert not any("digest differs" in line for line in lines)


def test_altered_reference_row_counts_as_failed(tmp_path):
    root = copy_checkout(str(tmp_path / "checkout"))
    rows_path = os.path.join(root, "perfbench", "reference", "tiny_duffing", "v0.csv.gz")
    with gzip.open(rows_path, "rt", encoding="ascii") as fh:
        rows = fh.read().splitlines()
    fields = rows[3].split(",")
    fields[2] = str(int(fields[2]) + 7)
    rows[3] = ",".join(fields)
    with gzip.open(rows_path, "wt", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")

    code, lines, result = bench("--workload", "tiny_duffing", "--seed", "0",
                                "--seconds", "0.01", "--trace", "0", root=root)
    assert code == 0
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (16, 1)
    assert printed(lines)["failed_frac"] == (1 / 16, "1")


def test_seed_changes_map_and_shipped_seed_reproduces_reference():
    reference = run.load_reference("tiny_duffing", 0)
    code, lines, shipped = bench("--workload", "tiny_duffing", "--seed", "0",
                                 "--seconds", "0.01", "--trace", "0")
    assert code == 0 and shipped["correct"] and shipped["failed"] == 0
    assert not any("digest differs" in line for line in lines)
    # seeds fold onto the stored variants, so seed VARIANTS is the shipped map
    code, lines, folded = bench("--workload", "tiny_duffing", "--seed", str(run.VARIANTS),
                                "--seconds", "0.01", "--trace", "0")
    assert code == 0 and folded["correct"]

    code, lines, other = bench("--workload", "tiny_duffing", "--seed", "1",
                               "--seconds", "0.01", "--trace", "0")
    assert code == 0 and other["correct"]
    assert any("no stored reference" in line for line in lines)
    digest = next(line.split()[-1] for line in lines if "#   basin_map.csv " in line)
    assert digest != reference["sha256"]["basin_map.csv"]


@pytest.mark.parametrize("workload", sorted(run.TEST_WORKLOADS))
def test_exact_counters_repeat_between_traced_runs(workload):
    results = []
    for _ in range(2):
        code, lines, result = bench("--workload", workload, "--seed", "0",
                                    "--seconds", "0.01", "--trace", "1")
        assert code == 0 and result["correct"], lines[-10:]
        assert [k for k in result["metrics"]] == run.per_layer_names()
        results.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTERS})
    assert results[0] == results[1]
    layer = run.TEST_WORKLOADS[workload]["dominant"][0]
    counter = {"closed_loop": "reservoir.closed_loop_column_steps",
               "kl": "classify.kl_calls",
               "adaptive": "systems.adaptive_trajectories"}[layer]
    assert results[0][counter] > 0


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "t"}


def test_missing_span_and_self_time_accounting():
    spans = [_span(tracer.ROOT, 0.0, 10.0, None),
             _span("experiment.run_basin_experiment", 1.0, 9.0, 0),
             _span("experiment.run_closed_loop_batch", 2.0, 6.0, 1),
             _span("timeseries.TimeSeries.__post_init__", 3.0, 4.0, 2)]
    assert tracer.self_times(spans) == [2.0, 4.0, 3.0, 1.0]
    metrics = tracer.layer_metrics(spans)
    assert metrics["trace.map_s"] == 10.0 and metrics["trace.untraced_s"] == 2.0
    assert metrics["share.closed_loop"] == 0.4
    problems = run.span_problems("duffing_desk", spans, metrics["trace.map_s"])
    assert len(problems) == 1 and "experiment.rk4_ensemble" in problems[0]


def test_fails_without_the_program(tmp_path):
    root = copy_checkout(str(tmp_path / "bare"), with_src=False)
    code, lines, result = bench("--workload", "duffing_desk", "--seed", "0",
                                "--seconds", "1", "--trace", "0", root=root)
    assert code != 0 and result is None
    assert not any(line.startswith("{") for line in lines)
