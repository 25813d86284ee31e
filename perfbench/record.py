"""Run every workload once and write a run record (``run.py --all``).

The record holds the machine (CPU count and model, cache sizes), the
software (Python, numpy, scipy, BLAS library and pinned thread count), the
git SHA and the ``src/`` line count, each workload's end-to-end and
per-layer metrics at its shipped seeds, and each workload's working set
next to the cache sizes.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return None


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(index, f)) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def _bytes(size: str | None) -> int | None:
    if not size:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def software() -> dict:
    sys.path.insert(0, SRC)
    import numpy as np
    import scipy

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def working_set(config: str, caches: dict[str, str]) -> dict:
    """Sizes of the main arrays of one map, in bytes, against the caches."""
    from rcbasin import cli, experiment
    from rcbasin.systems import CHAOTIC

    cfg, _ = cli.read_config(config)
    sys_def = experiment.system_from_config(cfg)
    columns = min(experiment.CELL_CHUNK, cfg.resolution ** 2)
    sets = {
        "closed_loop_state": cfg.n_r * columns * 8,
        "w_r_csr": int(cfg.mean_degree * cfg.n_r) * 12 + 4 * (cfg.n_r + 1),
        "normal_equations": cfg.n_r * cfg.n_r * 8,
    }
    if not cfg.adaptive_truth:
        sets["rk4_truth_chunk"] = cfg.horizon * columns * sys_def.dim * 8
    if sys_def.attractors and sys_def.attractors[0].kind == CHAOTIC:
        ref = sys_def.attractors[0].reference
        sets["kl_mixture_matrix"] = 1000 * ref.shape[0] * 8
    l2, l3 = _bytes(caches.get("L2")), _bytes(caches.get("L3"))
    return {name: {"bytes": size,
                   "fits_l2": None if l2 is None else size <= l2,
                   "fits_l3": None if l3 is None else size <= l3}
            for name, size in sets.items()}


def machine() -> dict:
    caches = _caches()
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else None,
            "cpu_model": _cpu_model(), "caches": caches}


def run_all(run_once, workloads: dict, seconds: float, record_path: str | None) -> None:
    """Run each workload untraced and traced at its shipped seeds."""
    results = {}
    for name in workloads:
        plain = run_once(name, None, seconds, False)
        traced = run_once(name, None, seconds, True)
        results[name] = {"plain": plain, "traced": traced}

    columns = ("setup_s", "map_s", "cells_per_s", "cpu_s", "peak_rss_mb")
    print()
    print(f"{'workload':20s}" + "".join(f"{c:>13s}" for c in columns)
          + f"{'f_c':>8s}{'failed_frac':>13s}{'overhead':>10s}{'estimated':>11s}")
    for name, r in results.items():
        m = r["plain"]["metrics"]
        t = r["traced"]["metrics"]
        print(f"{name:20s}" + "".join(f"{m[c]['value']:13.4f}" for c in columns)
              + f"{r['plain']['f_c']:8.4f}"
              + f"{r['plain']['failed'] / r['plain']['attempted']:13.4f}"
              + f"{t['trace.overhead_frac']['value']:10.3f}"
              + f"{t['trace.overhead_est_s']['value'] / m['map_s']['value']:11.5f}")
    if record_path is None:
        return

    info = machine()
    config_dir = os.path.join(HERE, "workloads")
    record = {
        "machine": info,
        "software": software(),
        "blas_threads": next(iter(results.values()))["plain"]["blas_threads"],
        "git_sha": _git_sha(),
        "src_lines": src_lines(),
        "workloads": {},
    }
    for name, r in results.items():
        record["workloads"][name] = {
            "stated_share": dict([workloads[name]["dominant"]]),
            "correct": r["plain"]["correct"] and r["traced"]["correct"],
            "end_to_end": {k: v["value"] for k, v in r["plain"]["metrics"].items()},
            "f_c": r["plain"]["f_c"],
            "failed_frac": r["plain"]["failed"] / r["plain"]["attempted"],
            "per_layer": {k: v["value"] for k, v in r["traced"]["metrics"].items()},
            "working_set": working_set(os.path.join(config_dir, name + ".ini"),
                                       info["caches"]),
        }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {record_path}")
