"""The benchmark tracer's wrapped names still exist and still see calls.

``perfbench/tracer.py`` patches the functions it times by name, where their
callers look them up.  A rename or a dropped call would otherwise show up
only when the benchmark runs with tracing on.
"""

import importlib.util
from pathlib import Path

import rcbasin
import rcbasin.cli  # noqa: F401  (a traced module the package does not import)
from rcbasin.experiment import default_config, run_basin_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_module("perfbench_tracer", TRACER_PATH)


def test_traced_names_resolve_and_record():
    tracer = load_tracer()
    for module_name, owner_name, attr, _ in tracer.TARGETS:
        owner = getattr(rcbasin, module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        assert callable(getattr(owner, attr)), (module_name, owner_name, attr)

    cfg = default_config("magnetic_pendulum", n_r=50, resolution=2, n_train=2)
    run = tracer.Tracer("tier1")
    run.install(rcbasin)
    try:
        run_basin_experiment(cfg)
    finally:
        run.uninstall()
    assert rcbasin.experiment.integrate_adaptive is rcbasin.systems.integrate_adaptive

    names = {span["name"] for span in run.spans}
    assert {"experiment.integrate_adaptive", "classify.classify_fixed_point",
            "experiment.generate_training_set",
            "experiment.truth_and_test_signals"} <= names
    counted = {".".join(p for p in (module_name, owner_name, attr) if p)
               for module_name, owner_name, attr, counter in tracer.TARGETS
               if counter is not None}
    for span in run.spans:
        if span["name"] in counted:
            assert "counts" in span, span["name"]
    metrics = tracer.layer_metrics(run.spans)
    assert metrics["systems.adaptive_trajectories"] >= 2
    assert metrics["experiment.sampling_accepted"] == cfg.n_train


def test_sampling_counters_follow_blocks(monkeypatch):
    tracer = load_tracer()
    cfg = default_config("duffing", n_r=50, resolution=2, n_train=40,
                         restrict_to_basin=0)
    widths = []
    trajectories = rcbasin.experiment._trajectories

    def recording(cfg_, sys, ics, n_steps):
        if n_steps == cfg.reject_horizon:
            widths.append(len(ics))
        return trajectories(cfg_, sys, ics, n_steps)

    monkeypatch.setattr(rcbasin.experiment, "_trajectories", recording)
    run = tracer.Tracer("tier1")
    run.install(rcbasin)
    try:
        run_basin_experiment(cfg)
    finally:
        run.uninstall()
    metrics = tracer.layer_metrics(run.spans)
    assert len(widths) >= 2
    assert metrics["experiment.sampling_accepted"] == cfg.n_train
    assert metrics["experiment.sampling_candidates"] == sum(widths)


def test_benchmark_span_contract(tmp_path):
    # the benchmark's own check on traced maps, run as its child process runs
    # them; Lorenz takes the KL path and the pendulum the adaptive one
    bench = load_module("perfbench_run", PERFBENCH / "run.py")
    tracer = bench.tracer
    for workload in ("tiny_duffing", "tiny_lorenz", "tiny_pendulum"):
        run = tracer.Tracer("tier1")
        run.install(rcbasin)
        main = run.span(tracer.ROOT, rcbasin.cli.main)
        try:
            code = main(["basin-map", "--config",
                         str(PERFBENCH / "workloads" / f"{workload}.ini"),
                         "--parallel", "1", "--out", str(tmp_path / workload)])
        finally:
            run.uninstall()
        assert code == 0, workload
        map_s = tracer.layer_metrics(run.spans)["trace.map_s"]
        assert bench.span_problems(workload, run.spans, map_s) == [], workload
