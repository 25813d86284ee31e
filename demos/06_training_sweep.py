"""Sweeping training-set size and diversity.

A small factorial sweep over the number of training trajectories and the
half-width of their sampling box, each cell averaged over independent
realizations of the reservoir and the training draws.  The grid prints as a
text heatmap of mean fraction correct.  The sweep is configs/duffing_sweep.ini
on a 20 x 20 grid, with a third box half-width, 7, between its two.

Run from the repository root:  python demos/06_training_sweep.py
"""

import dataclasses
import math

import numpy as np

from rcbasin.cli import read_config
from rcbasin.experiment import run_sweep, write_sweep_csv

cfg, inputs = read_config("configs/duffing_sweep.ini")
cfg = dataclasses.replace(cfg, resolution=20)
half_widths = [4.0, 7.0, 10.0]
axes = {"n_train": inputs[("sweep", "n_train")], "train_half_width": half_widths,
        "test_half_width": inputs[("sweep", "test_half_width")]}
realizations = inputs[("sweep", "realizations")]

print("running", math.prod(map(len, axes.values())) * realizations, "cells ...")
rows, errors = run_sweep(cfg, axes, realizations=realizations, parallel=2)
for err in errors:
    print("failed:", err)
write_sweep_csv(rows, "demo_output_sweep.csv", axes)

means = {}
for n_train, half_train, _, _, f_c, _ in rows:
    means.setdefault((n_train, half_train), []).append(f_c)

header = "n_train \\ half_train " + "".join(f"{hw:>8.1f}" for hw in half_widths)
print()
print(header)
for nt in axes["n_train"]:
    cells = "".join(f"{np.nanmean(means[(nt, hw)]):>8.3f}" for hw in half_widths)
    print(f"{nt:>20} {cells}")
print()
print("accuracy climbs with the sampling half-width: training trajectories")
print("must explore the transients for the reservoir to generalize; adding")
print("more trajectories cannot substitute for range.")
print("wrote demo_output_sweep.csv")
