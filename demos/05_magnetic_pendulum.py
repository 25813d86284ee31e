"""Fractal-like basins of the magnetic pendulum versus a naive baseline.

Three magnets under a damped pendulum give three interleaved basins with a
fractal-like boundary, so small forecast errors flip the predicted outcome
easily.  A 1000-node reservoir trained on one basin still beats the
baseline that simply names the magnet nearest the bob at the end of each
test signal.

This is the scaled-down configuration, configs/magnetic_smoke.ini (20 x 20
grid); it takes about 20 s on a 2-core x86 machine with one BLAS thread.
The configs/ directory carries 60 x 60 and full-size variants.

Run from the repository root:  python demos/05_magnetic_pendulum.py
"""

import pathlib

from rcbasin.cli import read_config
from rcbasin.experiment import persist, render_basin_map, run_basin_experiment

out = pathlib.Path("demo_output/magnetic")
out.mkdir(parents=True, exist_ok=True)

cfg, _ = read_config("configs/magnetic_smoke.ini")
print("this takes about 20 s on two cores ...")
basin_map = run_basin_experiment(cfg, parallel=2)

m = basin_map.metrics
print(f"reservoir f_c: {m.f_c:.3f}")
print(f"baseline  f_c: {basin_map.baseline_f_c:.3f}   (nearest magnet at the "
      "end of the test signal)")
print(f"spurious fraction: {m.f_spurious:.4f}")
print(f"{'basin':>8} {'n_true':>7} {'f_c':>7} {'FNR':>7} {'FPR':>7}")
for pb in m.per_basin:
    print(f"{pb.basin:>8} {pb.n_true:>7} {pb.f_c:>7.3f} "
          f"{pb.false_negative_rate:>7.3f} {pb.false_positive_rate:>7.3f}")

persist(basin_map, out / "basin_map.csv")
render_basin_map(basin_map, out / "basin_map.ppm")
print(f"wrote {out}/basin_map.csv and {out}/basin_map.ppm")
