#!/usr/bin/env python3
"""Fractal dimension of the fidelity signal vs disorder and chain length.

The single-realization box count of the N = 500 reference point is
`spinchain fractal --n 500 --eps-j 0.26 --seed SEED --out FILE`.
"""

import argparse
from pathlib import Path

import numpy as np

import spinchain as sc
from spinchain.tableio import write_csv, write_sidecar


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=20240816)
    ap.add_argument("--n-real", type=int, default=6)
    ap.add_argument("--t-max", type=float, default=1e4)
    ap.add_argument("--dt", type=float, default=0.05)
    ap.add_argument("--out-dir", type=Path, default=Path("results"))
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    n_values = (100,) if args.quick else (100, 200, 500)
    n_real = 2 if args.quick else args.n_real
    t_max = 2000.0 if args.quick else args.t_max
    grid = np.geomspace(0.05, 1.2, 14)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    rows, curves = [], {}
    for ni, n in enumerate(n_values):
        dmean, derr, notes = sc.dimension_curve(n, grid, n_real, args.seed,
                                                t_max=t_max, dt=args.dt,
                                                key_prefix=(ni,))
        curves[n] = (grid, dmean)
        rows += [(n, eps, d, e) for eps, d, e in zip(grid, dmean, derr)]
        print(f"N={n}: D(eps) = {np.round(dmean, 3)} ({len(notes)} refusals)")

    path = args.out_dir / "dimension_vs_eps_j.csv"
    write_csv(path, ("n_sites", "eps_j", "dimension", "stderr"), rows,
              metadata={"seed": args.seed, "n_real": n_real})
    payload = {}
    for target in (1.76, 1.6, 1.4):
        try:
            th = sc.dimension_threshold(curves, target)
        except ValueError as err:
            print(f"D_c at D={target}: {err}")
            continue
        payload[str(target)] = {"exponent": th.fit.params["exponent"],
                                "thresholds": th.thresholds}
        print(f"D_c at D={target}: exponent {th.fit.params['exponent']:+.3f}")
    write_sidecar(path, {"targets": payload, "n_real": n_real, "seed": args.seed})


if __name__ == "__main__":
    main()
