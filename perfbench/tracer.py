"""Outside-in tracing of a basin-map run.

The tracer wraps public functions of the ``rcbasin`` package from the
outside, patching each name where its caller looks it up (for example
``experiment.rk4_ensemble`` rather than ``systems.rk4_ensemble``).  Every
call records one span -- name, start, end, parent span, run id -- plus a few
exact counts derived from the call's arguments and result.  Spans are kept
in memory and written out once, when the traced run ends.

:func:`layer_metrics` turns a list of spans into the per-layer metrics the
benchmark reports.  A span's self time is its duration minus the durations
of its direct children, so the self times of all spans under the root sum to
the root's duration exactly.
"""

from __future__ import annotations

import inspect
import math
import time

import numpy as np

#: Root span wrapped around the whole ``basin-map`` CLI call.
ROOT = "cli.main"


def _rows(a) -> int:
    return int(np.shape(a)[0]) if np.ndim(a) else 1


# Counters take the call's bound arguments (defaults applied) and its result.

def _rk4_counts(a, result):
    m = 1 if np.ndim(a["x0"]) == 1 else int(np.shape(a["x0"])[0])
    return {"members": m, "state_steps": m * int(a["n"])}


def _adaptive_counts(a, result):
    return {"grid_steps": result.n_samples - 1}


def _drive_counts(a, result):
    return {"steps": _rows(getattr(a["signal"], "values", a["signal"]))}


def _sync_counts(a, result):
    inputs = np.asarray(a["inputs"])
    return {"steps": int(inputs.shape[0] * inputs.shape[1])}


def _closed_loop_counts(a, result):
    res = a["res"]
    tails = np.asarray(result)
    finite = np.isfinite(tails).reshape(tails.shape[0], -1).all(axis=1)
    return {"columns": int(np.shape(a["r_start"])[0]), "n_steps": int(a["n_steps"]),
            "n_r": int(res.n_r), "n_in": int(res.n_in), "nnz": int(res.w_r.nnz),
            "diverged": int(np.count_nonzero(~finite))}


def _train_counts(a, result):
    readout, mse = result
    return {"n_fit": int(readout.n_fit), "mse": float(mse)}


def _sampling_counts(a, result):
    return {"accepted": len(result)}


def _truth_counts(a, result):
    labels = np.asarray(result[0])
    return {"unresolved": int(np.count_nonzero(labels < 0))}


def _kl_counts(a, result):
    return {"pair_evals": int(a["n_samples"]) * (_rows(a["ref_samples"])
                                                 + _rows(a["test_samples"]))}


#: (module attribute, owner class or None, attribute, counter) for every
#: wrapped name; the span name is ``<module>.<owner.>attribute``.
TARGETS = (
    ("experiment", None, "rk4_ensemble", _rk4_counts),
    ("experiment", None, "integrate_adaptive", _adaptive_counts),
    ("experiment", None, "build_reservoir", None),
    ("experiment", None, "drive_open_loop_batch", _sync_counts),
    ("experiment", None, "run_closed_loop_batch", _closed_loop_counts),
    ("experiment", None, "generate_training_set", _sampling_counts),
    ("experiment", None, "truth_and_test_signals", _truth_counts),
    ("experiment", None, "run_basin_experiment", None),
    ("experiment", None, "persist", None),
    ("experiment", None, "render_basin_map", None),
    ("experiment", None, "score", None),
    ("experiment", None, "make_system", None),
    ("training", None, "drive_open_loop", _drive_counts),
    ("training", None, "train_with_mse", _train_counts),
    ("training", None, "solve_readout", None),
    ("training", "NormalAccumulator", "accumulate", None),
    ("classify", None, "classify_fixed_point", None),
    ("classify", None, "classify_chaotic", None),
    ("classify", None, "kl_divergence", _kl_counts),
    ("timeseries", "TimeSeries", "__post_init__", None),
    ("cli", None, "read_config", None),
)


class Tracer:
    """Records spans for calls to the wrapped functions of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, counter=None):
        """Return ``fn`` wrapped so that each call records a span."""
        tracer = self
        signature = inspect.signature(fn) if counter is not None else None

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            record = {"name": name, "parent": parent, "run": tracer.run_id}
            tracer.spans.append(record)
            tracer._stack.append(index)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record["counts"] = counter(bound.arguments, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, package) -> None:
        """Patch every name in :data:`TARGETS` inside ``package``'s modules."""
        for module_name, owner_name, attr, counter in TARGETS:
            owner = getattr(package, module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
            name = ".".join(p for p in (module_name, owner_name, attr) if p)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _under(spans: list[dict], index: int, ancestor: str) -> bool:
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] == ancestor:
            return True
        parent = spans[parent]["parent"]
    return False


def closed_loop_model(c: dict) -> tuple[int, int]:
    """Computed (not measured) flops and bytes of one closed-loop call.

    Per step and column: readout 2 n_in n_r, recurrent product 2 nnz, input
    product 2 n_r n_in and bias n_r flops (tanh not counted).  Bytes per
    step: the CSR matrix (12 nnz + 4 (n_r + 1)), the dense weights and bias
    (8 n_r (2 n_in + 1)) once for the whole batch, then one read and one
    write of each column's state and output (16 (n_r + n_in)).
    """
    n_r, n_in, nnz = c["n_r"], c["n_in"], c["nnz"]
    column_steps = c["columns"] * c["n_steps"]
    flops = column_steps * (4 * n_in * n_r + 2 * nnz + n_r)
    shared = 12 * nnz + 4 * (n_r + 1) + 8 * n_r * (2 * n_in + 1)
    nbytes = c["n_steps"] * shared + column_steps * 16 * (n_r + n_in)
    return flops, nbytes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by metric name.

    Times are in seconds unless the name says otherwise; counts are exact
    and repeat between runs of the same inputs.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + (s["end"] - s["start"])
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    self_total: dict[str, float] = {}
    for s, t in zip(spans, own):
        self_total[s["name"]] = self_total.get(s["name"], 0.0) + t

    def counted(name: str) -> list[dict]:
        # a call that raised has no counts
        return [s["counts"] for s in spans if s["name"] == name and "counts" in s]

    def counts(name: str, key: str) -> list:
        return [c[key] for c in counted(name)]

    g = total.get
    roots = [i for i, s in enumerate(spans) if s["name"] == ROOT]
    map_s = sum(spans[i]["end"] - spans[i]["start"] for i in roots)

    rk4_steps = sum(counts("experiment.rk4_ensemble", "state_steps"))
    state_steps = rk4_steps + sum(counts("experiment.integrate_adaptive", "grid_steps"))
    integrate_s = g("experiment.rk4_ensemble", 0.0) + g("experiment.integrate_adaptive", 0.0)
    adaptive_n = calls.get("experiment.integrate_adaptive", 0)
    drive_steps = sum(counts("training.drive_open_loop", "steps"))
    loops = counted("experiment.run_closed_loop_batch")
    column_steps = sum(c["columns"] * c["n_steps"] for c in loops)
    modelled = [closed_loop_model(c) for c in loops]
    candidates = 0
    for i, s in enumerate(spans):
        if _under(spans, i, "experiment.generate_training_set"):
            if s["name"] == "experiment.rk4_ensemble" and "counts" in s:
                candidates += s["counts"]["members"]
            elif s["name"] == "experiment.integrate_adaptive":
                candidates += 1
    accepted = sum(counts("experiment.generate_training_set", "accepted"))
    train = counts("training.train_with_mse", "n_fit")
    mse = counts("training.train_with_mse", "mse")

    m = {
        "systems.make_system_s": g("experiment.make_system", 0.0),
        "systems.integrate_s": integrate_s,
        "systems.state_steps": state_steps,
        "systems.ns_per_state_step": 1e9 * _ratio(integrate_s, state_steps),
        "systems.rk4_state_steps": rk4_steps,
        "systems.adaptive_trajectories": adaptive_n,
        "reservoir.build_s": g("experiment.build_reservoir", 0.0),
        "reservoir.drive_open_loop_s": g("training.drive_open_loop", 0.0),
        "reservoir.drive_open_loop_steps": drive_steps,
        "reservoir.sync_s": g("experiment.drive_open_loop_batch", 0.0),
        "reservoir.closed_loop_s": g("experiment.run_closed_loop_batch", 0.0),
        "reservoir.closed_loop_column_steps": column_steps,
        "reservoir.closed_loop_ns_per_column_step": 1e9 * _ratio(
            g("experiment.run_closed_loop_batch", 0.0), column_steps),
        "reservoir.closed_loop_flops": sum(f for f, _ in modelled),
        "reservoir.closed_loop_bytes": sum(b for _, b in modelled),
        "reservoir.closed_loop_diverged": sum(c["diverged"] for c in loops),
        "training.train_s": g("training.train_with_mse", 0.0),
        "training.train_self_s": self_total.get("training.train_with_mse", 0.0),
        "training.accumulate_s": g("training.NormalAccumulator.accumulate", 0.0),
        "training.solve_readout_s": g("training.solve_readout", 0.0),
        "training.n_fit": sum(train),
        "training.mse": mse[0] if len(mse) == 1 else math.fsum(mse),
        "classify.classify_s": (g("classify.classify_fixed_point", 0.0)
                                + g("classify.classify_chaotic", 0.0)),
        "classify.kl_calls": calls.get("classify.kl_divergence", 0),
        "classify.kl_pair_evals": sum(counts("classify.kl_divergence", "pair_evals")),
        "classify.fixed_point_calls": calls.get("classify.classify_fixed_point", 0),
        "experiment.sampling_s": g("experiment.generate_training_set", 0.0),
        "experiment.sampling_candidates": candidates,
        "experiment.sampling_accepted": accepted,
        "experiment.sampling_acceptance": _ratio(accepted, candidates),
        "experiment.truth_s": g("experiment.truth_and_test_signals", 0.0),
        "experiment.truth_unresolved": sum(counts("experiment.truth_and_test_signals",
                                                  "unresolved")),
        "experiment.forecast_self_s": self_total.get("experiment.run_basin_experiment", 0.0),
        "experiment.score_s": g("experiment.score", 0.0),
        "experiment.persist_s": g("experiment.persist", 0.0),
        "experiment.render_s": g("experiment.render_basin_map", 0.0),
        "timeseries.constructions": calls.get("timeseries.TimeSeries.__post_init__", 0),
        "timeseries.construct_s": g("timeseries.TimeSeries.__post_init__", 0.0),
        "cli.read_config_s": g("cli.read_config", 0.0),
        "trace.map_s": map_s,
        "trace.untraced_s": sum(own[i] for i in roots),
        "trace.spans": len(spans),
    }
    for layer, name in SHARES.items():
        m[f"share.{layer}"] = _ratio(g(name, 0.0), map_s)
    return m


#: Layers whose share of the traced map time is reported, by wrapped name.
#: A workload exercises only one integrator and one classifier, so their
#: times are reported together and split here, as shares that may be zero.
SHARES = {
    "closed_loop": "experiment.run_closed_loop_batch",
    "rk4": "experiment.rk4_ensemble",
    "adaptive": "experiment.integrate_adaptive",
    "fixed_point": "classify.classify_fixed_point",
    "kl": "classify.kl_divergence",
    "training": "training.train_with_mse",
}


def accounted(spans: list[dict]) -> float:
    """Sum of the self times of the root spans and every span under them.

    Equals the root spans' total duration up to rounding, since each span's
    self time excludes exactly its children.
    """
    own = self_times(spans)
    return sum(t for i, t in enumerate(own)
               if spans[i]["name"] == ROOT or _under(spans, i, ROOT))
