"""Basin-map benchmark for rcbasin.

Each measurement runs one workload's basin map as a fresh single process
through the user's path, ``rcbasin.cli.main(["basin-map", "--config", INI,
"--parallel", "1", "--out", DIR])``, with the BLAS thread count pinned to 1
(see ``child.py``).  Maps run one after another: a closed loop with one
client.  Every output cell is checked against a stored reference map.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload duffing_desk --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--record perfbench/results/BENCH_1.json]
    python3 perfbench/run.py --write-reference duffing_desk

A single run prints each metric as ``name value unit`` and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
an untraced and a traced map run and the metrics are the per-layer ones
from the traced run (see ``tracer.py``), plus the tracing overhead.

``--seed n`` selects reference variant ``n % VARIANTS``: the three seeds of
the workload's config are offset by the variant, so variant 0 is the
shipped config.  ``--all`` runs every workload once at variant 0, untraced
and traced, and prints a table.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import gzip
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402

WORKLOAD_DIR = os.path.join(HERE, "workloads")
REFERENCE_DIR = os.path.join(HERE, "reference")
WORK_ROOT = os.path.join(ROOT, ".perfbench_tmp")

#: Seed variants with a stored reference map per workload.
VARIANTS = 10
#: Wall time an untraced run spends on set-up-only processes before its maps,
#: and again after them, on top of one set-up per map process.  A fixed time
#: rather than a fixed count gives a quick set-up (about 0.7 s, mostly process
#: start and imports, which vary most) more samples, and the median spans the
#: whole run.
SETUP_PROBE_S = 2.5
#: Longest any single child process may take before its cells count as failed.
CHILD_TIMEOUT_S = 150
ARTIFACTS = ("basin_map.csv", "basin_map.csv.meta", "basin_map.ppm")

END_TO_END = {
    "setup_s": "s",
    "map_s": "s",
    "cells_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Spans every workload must hit when traced.
COMMON_SPANS = (
    "cli.main", "cli.read_config", "experiment.make_system",
    "experiment.run_basin_experiment", "experiment.build_reservoir",
    "experiment.generate_training_set", "training.train_with_mse",
    "training.drive_open_loop", "training.NormalAccumulator.accumulate",
    "training.solve_readout", "experiment.truth_and_test_signals",
    "experiment.drive_open_loop_batch", "experiment.run_closed_loop_batch",
    "experiment.score", "experiment.persist", "experiment.render_basin_map",
    "timeseries.TimeSeries.__post_init__",
)
FIXED_STEP_SPANS = ("experiment.rk4_ensemble", "classify.classify_fixed_point")

#: Workloads (their reasons are in BENCHMARK.json): extra spans each must
#: hit, and the layer expected to dominate its map with the share stated
#: when the workload was chosen.
WORKLOADS = {
    "duffing_desk": {"spans": FIXED_STEP_SPANS, "dominant": ("closed_loop", 0.75)},
    "lorenz_kl": {"spans": ("experiment.rk4_ensemble", "classify.classify_chaotic",
                            "classify.kl_divergence"),
                  "dominant": ("kl", 0.80)},
    "pendulum_adaptive": {"spans": ("experiment.integrate_adaptive",
                                    "classify.classify_fixed_point"),
                          "dominant": ("adaptive", 0.90)},
    "train_wide": {"spans": FIXED_STEP_SPANS, "dominant": ("training", 0.50)},
}

#: Small workloads for the benchmark's own tests; not in BENCHMARK.json.
TEST_WORKLOADS = {
    "tiny_duffing": {"spans": FIXED_STEP_SPANS, "dominant": ("closed_loop", None)},
    "tiny_lorenz": {"spans": WORKLOADS["lorenz_kl"]["spans"], "dominant": ("kl", None)},
    "tiny_pendulum": {"spans": WORKLOADS["pendulum_adaptive"]["spans"],
                      "dominant": ("adaptive", None)},
}
ALL_WORKLOADS = {**WORKLOADS, **TEST_WORKLOADS}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_flops"):
        return "flop-computed"
    if name.endswith("_bytes") and name.startswith("reservoir."):
        return "B-computed"
    if name.endswith("_bytes"):
        return "B"
    if ".ns_per_" in name or "_ns_per_" in name:
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.startswith("share.") or name in ("experiment.sampling_acceptance",
                                             "training.mse", "f_c",
                                             "trace.overhead_frac"):
        return "1"
    return "count"


def per_layer_names() -> list[str]:
    """Names of every per-layer metric a traced run reports, in order."""
    names = list(tracer.layer_metrics([]).keys())
    return names + ["trace.overhead_s", "trace.overhead_frac", "trace.overhead_est_s",
                    "experiment.artifact_bytes", "f_c"]


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

def write_config(workload: str, variant: int, path: str) -> int:
    """Write the workload's config with its seeds offset by ``variant``.

    Returns the number of grid cells.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(os.path.join(WORKLOAD_DIR, workload + ".ini")):
        raise BenchError(f"no config for workload {workload!r}")
    for key in ("reservoir", "sampling", "noise"):
        parser.set("seeds", key, str(parser.getint("seeds", key) + variant))
    with open(path, "w", encoding="ascii") as fh:
        parser.write(fh)
    return parser.getint("experiment", "resolution") ** 2


def _spawn(mode: str, config: str, out: str, result: str, run_id: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
           "--config", config, "--out", out, "--result", result, "--run-id", run_id,
           "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} process failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# Reference maps
# --------------------------------------------------------------------------

def _sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_lines(path: str) -> list[str]:
    if not os.path.exists(path):
        return []
    with open(path, encoding="ascii") as fh:
        return fh.read().splitlines()


def _reference_paths(workload: str, variant: int) -> tuple[str, str]:
    base = os.path.join(REFERENCE_DIR, workload, f"v{variant}")
    return base + ".csv.gz", base + ".json"


def load_reference(workload: str, variant: int) -> dict | None:
    rows_path, info_path = _reference_paths(workload, variant)
    if not os.path.exists(info_path):
        return None
    with open(info_path, encoding="utf-8") as fh:
        ref = json.load(fh)
    with gzip.open(rows_path, "rt", encoding="ascii") as fh:
        ref["rows"] = fh.read().splitlines()
    return ref


def store_reference(workload: str, variant: int, out: str) -> None:
    rows_path, info_path = _reference_paths(workload, variant)
    os.makedirs(os.path.dirname(rows_path), exist_ok=True)
    with open(os.path.join(out, "basin_map.csv"), "rb") as fh:
        data = fh.read()
    with open(rows_path, "wb") as fh:
        fh.write(gzip.compress(data, mtime=0))
    info = {"sha256": {name: _sha256(os.path.join(out, name)) for name in ARTIFACTS},
            "meta": _read_lines(os.path.join(out, "basin_map.csv.meta"))}
    with open(info_path, "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _consistent(row: str) -> bool:
    """A CSV row whose outcome agrees with its true and predicted labels."""
    fields = row.split(",")
    if len(fields) != 5:
        return False
    try:
        truth, pred = int(fields[2]), int(fields[3])
    except ValueError:
        return False
    outcome = fields[4]
    if outcome == "correct":
        return pred == truth and pred >= 0
    if outcome == "wrong":
        return pred != truth and pred >= 0
    return outcome in ("spurious", "unresolved") and pred == -1


def check_map(out: str, cells: int, ref: dict | None, exit_code: int) -> dict:
    """Count failed cells of one map and compare its artifacts to the reference.

    A cell fails when its row differs from the reference row (or, without a
    reference, when the row is malformed or inconsistent); every cell fails
    when the CLI exited non-zero.  The map is correct when no cell failed,
    the image matches, and every reference ``.meta`` line is reproduced.
    """
    lines = _read_lines(os.path.join(out, "basin_map.csv"))
    meta = _read_lines(os.path.join(out, "basin_map.csv.meta"))
    header, rows = (lines[0], lines[1:]) if lines else ("", [])
    digests = {name: _sha256(os.path.join(out, name)) for name in ARTIFACTS}
    meta_values = dict(line.partition("=")[::2] for line in meta)
    f_c = float(meta_values.get("f_c", "nan"))
    n_correct = sum(row.endswith(",correct") for row in rows)
    report = {"digests": digests, "f_c": f_c, "digest_mismatch": []}

    if exit_code != 0 or len(rows) != cells:
        report["failed"] = cells
    elif ref is not None:
        ref_header, ref_rows = ref["rows"][0], ref["rows"][1:]
        if header != ref_header or len(ref_rows) != cells:
            report["failed"] = cells
        else:
            report["failed"] = sum(row != ref_row for row, ref_row in zip(rows, ref_rows))
        report["digest_mismatch"] = [name for name in ARTIFACTS
                                     if digests[name] != ref["sha256"][name]]
    else:
        report["failed"] = sum(1 for row in rows if not _consistent(row))

    ok = report["failed"] == 0 and abs(f_c - n_correct / cells) < 1e-12
    if ref is not None:
        ok = ok and "basin_map.ppm" not in report["digest_mismatch"]
        ok = ok and set(ref["meta"]) <= set(meta)
    report["correct"] = ok
    return report


# --------------------------------------------------------------------------
# One run
# --------------------------------------------------------------------------

@contextlib.contextmanager
def scratch(prefix: str):
    """A fresh directory under WORK_ROOT, removed with WORK_ROOT when empty."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


class Run:
    """One benchmark run of one workload in its own scratch directory."""

    def __init__(self, workload: str, seed: int | None, work: str):
        if workload not in ALL_WORKLOADS:
            raise BenchError(f"unknown workload {workload!r}; choose from "
                             f"{sorted(WORKLOADS)}")
        self.workload = workload
        self.variant = 0 if seed is None else seed % VARIANTS
        self.work = work
        self.config = os.path.join(work, "config.ini")
        self.cells = write_config(workload, self.variant, self.config)
        self.reference = load_reference(workload, self.variant)
        self.n_proc = 0
        self.setups: list[float] = []
        self.maps: list[dict] = []
        self.checks: list[dict] = []

    def _child(self, mode: str) -> tuple[dict, str]:
        self.n_proc += 1
        out = os.path.join(self.work, f"{mode}{self.n_proc}")
        run_id = f"{self.workload}-v{self.variant}-{self.n_proc}"
        result = _spawn(mode, self.config, out, out + ".json", run_id)
        self.setups.append(result["setup_s"])
        return result, out

    def map(self, mode: str = "map") -> dict:
        result, out = self._child(mode)
        check = check_map(out, self.cells, self.reference, result["exit_code"])
        result["out"] = out
        self.maps.append(result)
        self.checks.append(check)
        return result

    def probe_setup(self, seconds: float) -> None:
        """Start set-up-only processes until ``seconds`` have passed (at least one)."""
        end = time.monotonic() + seconds
        self._child("setup")
        while time.monotonic() < end:
            self._child("setup")

    @property
    def attempted(self) -> int:
        return self.cells * len(self.checks)

    @property
    def failed(self) -> int:
        return sum(c["failed"] for c in self.checks)

    @property
    def correct(self) -> bool:
        return all(c["correct"] for c in self.checks)

    def end_to_end(self) -> dict[str, float]:
        untraced = [m for m in self.maps if "spans" not in m]
        map_s = _median([m["map_s"] for m in untraced])
        return {
            "setup_s": _median(self.setups),
            "map_s": map_s,
            "cells_per_s": self.cells / map_s,
            "cpu_s": _median([m["cpu_s"] for m in untraced]),
            "peak_rss_mb": _median([m["peak_rss_mb"] for m in untraced]),
        }


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Run set-up probes around maps that use ``seconds`` of map time.

    A further map starts only if the previous one would still fit in the
    remaining time, so at least one map runs.  With ``trace`` one untraced
    and one traced map run instead, and no set-up probes, since a traced run
    reports no set-up time.
    """
    if trace:
        run.map("map")
        run.map("trace")
        return
    run.probe_setup(SETUP_PROBE_S)
    used = 0.0
    while True:
        used += run.map("map")["map_s"]
        if used + run.maps[-1]["map_s"] > seconds:
            break
    run.probe_setup(SETUP_PROBE_S)


def span_problems(workload: str, spans: list[dict], map_s: float) -> list[str]:
    """Expected spans that a traced map missed, and self times that do not
    add up to the traced map time."""
    problems = []
    seen = {s["name"] for s in spans}
    expected = COMMON_SPANS + ALL_WORKLOADS[workload]["spans"]
    missing = [name for name in expected if name not in seen]
    if missing:
        problems.append("missing spans: " + ", ".join(missing))
    accounted = tracer.accounted(spans)
    if abs(accounted - map_s) > 1e-6 * max(1.0, map_s):
        problems.append(f"self times sum to {accounted!r}, map took {map_s!r}")
    return problems


def trace_metrics(run: Run) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced map, and any problems with its spans."""
    traced = next(m for m in run.maps if "spans" in m)
    untraced = next(m for m in run.maps if "spans" not in m)
    spans = traced["spans"]
    metrics = tracer.layer_metrics(spans)
    metrics["trace.overhead_s"] = traced["map_s"] - untraced["map_s"]
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced["map_s"]
    metrics["trace.overhead_est_s"] = metrics["trace.spans"] * traced["span_cost_s"]
    metrics["experiment.artifact_bytes"] = sum(
        os.path.getsize(os.path.join(traced["out"], name)) for name in ARTIFACTS
        if os.path.exists(os.path.join(traced["out"], name)))
    metrics["f_c"] = run.checks[-1]["f_c"]

    problems = span_problems(run.workload, spans, metrics["trace.map_s"])
    return metrics, problems


def _print_metric(name: str, value: float, unit: str) -> None:
    print(f"{name:45s} {value!r} {unit}")


def run_once(workload: str, seed: int | None, seconds: float, trace: bool) -> dict:
    """Measure one workload; print the metrics and return the result object."""
    with scratch(f"{workload}-") as work:
        run = Run(workload, seed, work)
        measure(run, seconds, trace)
        print(f"# workload {workload}  seed {seed}  variant {run.variant}  "
              f"maps {len(run.maps)}  set-ups {len(run.setups)}  cells {run.cells}  "
              f"blas threads {run.maps[0]['blas_threads']['OPENBLAS_NUM_THREADS']}")
        e2e = run.end_to_end()
        for name, unit in END_TO_END.items():
            _print_metric(name, e2e[name], unit)
        _print_metric("f_c", run.checks[0]["f_c"], "1")
        _print_metric("failed_frac", run.failed / run.attempted, "1")
        if run.reference is None:
            print(f"# no stored reference for {workload} variant {run.variant}; digests:")
            for name, digest in run.checks[0]["digests"].items():
                print(f"#   {name} {digest}")
        for check in run.checks:
            for name in check["digest_mismatch"]:
                print(f"# digest differs from reference: {name} {check['digests'][name]}")
        correct = run.correct
        if trace:
            metrics, problems = trace_metrics(run)
            layer, stated = ALL_WORKLOADS[workload]["dominant"]
            print(f"# dominant layer {layer}: measured share "
                  f"{metrics['share.' + layer]:.3f} of map_s (stated {stated})")
            for problem in problems:
                print(f"# trace problem: {problem}", file=sys.stderr)
            correct = correct and not problems
            for name in per_layer_names():
                _print_metric(name, metrics[name], per_layer_unit(name))
            units = {name: per_layer_unit(name) for name in per_layer_names()}
        else:
            metrics, units = e2e, END_TO_END
        return {
            "correct": bool(correct),
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
            "f_c": run.checks[0]["f_c"],
            "digests": run.checks[0]["digests"],
            "blas_threads": run.maps[0]["blas_threads"],
        }


def write_reference(workload: str) -> None:
    """Store every variant's map of ``workload`` as its reference."""
    variants = 1 if workload in TEST_WORKLOADS else VARIANTS
    for variant in range(variants):
        with scratch(f"ref-{workload}-") as work:
            run = Run(workload, variant, work)
            result = run.map()
            if result["exit_code"] != 0:
                raise BenchError(f"{workload} variant {variant}: CLI exited "
                                 f"{result['exit_code']}")
            store_reference(workload, variant, result["out"])
            print(f"stored {workload} v{variant}: f_c {run.checks[0]['f_c']!r}, "
                  f"map {result['map_s']:.2f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(ALL_WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload once")
    ap.add_argument("--record", help="with --all, write the run record here")
    ap.add_argument("--write-reference", metavar="WORKLOAD",
                    choices=sorted(ALL_WORKLOADS))
    args = ap.parse_args(argv)
    try:
        if args.write_reference:
            write_reference(args.write_reference)
            return 0
        if args.all:
            import record
            record.run_all(run_once, WORKLOADS, args.seconds, args.record)
            return 0
        if args.workload is None:
            ap.error("--workload, --all or --write-reference is required")
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
