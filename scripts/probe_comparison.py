#!/usr/bin/env python3
"""Fisher information of the standard probes against the two sensitivity limits.

For N particles, scans theta and tabulates the number-counting Fisher
information of the polarized (coherent), twin-Fock, and NOON probes under a
y rotation (NOON under z with the probe-projection measurement, where its
F = N^2 shows), next to the shot-noise value N and the Heisenberg value N^2.

Usage: python scripts/probe_comparison.py [--n 10] [--points 25] [--out FILE]
"""

import argparse

import numpy as np

from spinmetro import (ProbabilityModel, SpinSpace, fisher_scan, noon,
                       povm_number_counting, povm_probe_projection, qfi_pure,
                       spin_polarized, twin_fock)
from spinmetro.reporting import write_csv

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--n", type=int, default=10, help="even particle number")
parser.add_argument("--points", type=int, default=25)
parser.add_argument("--out", type=str, default=None)
args = parser.parse_args()

space = SpinSpace(args.n)
counting = povm_number_counting(space)
models = {
    "coherent": ProbabilityModel(spin_polarized(space), "y", counting),
    "twin_fock": ProbabilityModel(twin_fock(space), "y", counting),
    "noon": ProbabilityModel(noon(space), "z", povm_probe_projection(noon(space))),
}

print(f"N = {args.n}: shot noise F = {args.n}, Heisenberg F = {args.n ** 2}")
for name, model in models.items():
    print(f"  QFI[{name}] = {qfi_pure(model.probe, model.axis):.6g}")

grid = np.linspace(0.05, 1.5, args.points)
scans = [fisher_scan(model, grid)[0] for model in models.values()]
rows = np.column_stack([grid, *scans, np.full_like(grid, args.n),
                        np.full_like(grid, args.n**2)]).tolist()

header = ("theta", "coherent", "twin_fock", "noon", "shot_noise", "heisenberg")
if args.out:
    write_csv(args.out, header, rows)
    print(f"wrote {args.out}")
else:
    print(" ".join(f"{h:>10}" for h in header))
    for row in rows:
        print(" ".join(f"{v:10.4f}" for v in row))
