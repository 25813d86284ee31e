"""One benchmark process: set-up, then optionally one basin map via the CLI.

``run.py`` starts this script once per measurement, so every map runs in a
fresh interpreter exactly as a user's ``rcbasin basin-map`` call would.

    python3 perfbench/child.py --mode setup|map|trace --config INI --out DIR \
        --t0 SECONDS --result JSON

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there to the end of the first
``make_system`` for the configured system, so it covers interpreter start,
imports and the system's one-off set-up work.  The BLAS thread count is
pinned to 1 in the environment before numpy is imported, so CPU time and
wall time measure one core.
"""

import os

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import configparser  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured in-process."""
    from tracer import Tracer

    def noop():
        return None

    traced = Tracer("calibration").span("noop", noop)
    times = []
    for fn in (noop, traced):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - t)
    return max(times[1] - times[0], 0.0) / calls


def _system_of(config: str) -> tuple[str, dict]:
    """System name and float parameters of an INI config, as the CLI reads them."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(config)
    params = {key: float(value) for key, value in parser.items("system")
              if key not in ("name", "dt", "adaptive_truth", "rel_tol", "abs_tol")}
    return parser.get("system", "name"), params


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "map", "trace"), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--run-id", default="run")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "rcbasin")):
        print(f"no rcbasin package under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, SRC)
    import rcbasin
    import rcbasin.cli
    if not os.path.abspath(rcbasin.__file__).startswith(SRC + os.sep):
        print(f"imported rcbasin from {rcbasin.__file__}, not {SRC}", file=sys.stderr)
        return 3

    tracer = None
    if args.mode == "trace":
        sys.path.insert(0, HERE)
        from tracer import ROOT, Tracer
        tracer = Tracer(args.run_id)
        tracer.install(rcbasin)

    name, params = _system_of(args.config)
    rcbasin.experiment.make_system(name, **params)
    result = {"setup_s": time.monotonic() - args.t0,
              "blas_threads": {var: os.environ[var] for var in BLAS_VARS}}

    if args.mode != "setup":
        cli_args = ["basin-map", "--config", args.config, "--parallel", "1",
                    "--out", args.out]
        main_fn = rcbasin.cli.main if tracer is None else tracer.span(ROOT, rcbasin.cli.main)
        captured = io.StringIO()
        cpu0 = _cpu_seconds()
        t1 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = main_fn(cli_args)
        except Exception:  # the run's cells count as failed; keep measuring
            traceback.print_exc()
            code = -1
        t2 = time.perf_counter()
        result.update(map_s=t2 - t1, cpu_s=_cpu_seconds() - cpu0, exit_code=code,
                      stdout=captured.getvalue())
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.spans
            result["span_cost_s"] = span_cost()

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
