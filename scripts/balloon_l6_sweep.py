#!/usr/bin/env python3
"""Sweep the balloon's adjustable flight-chain length and map the poles.

Assembles the planar balloon once (the design length l6 stays a symbolic
LFT parameter), evaluates the A matrix over a sweep of l6 in one batched
call, and writes a poles CSV (re,im,freq_hz,damping) suitable for
plotting mode migration.
Also reports the spectral abscissa over the sweep (the model is damped,
so it should never be positive).
"""
import argparse
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from mblft.assembly import assemble, modes, sample_model
from mblft.modelfile import load_model

MODELS = pathlib.Path(__file__).resolve().parents[1] / "models"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=20)
    ap.add_argument("--lo", type=float, default=10.0)
    ap.add_argument("--hi", type=float, default=60.0)
    ap.add_argument("-o", "--output", default="balloon_poles.csv")
    args = ap.parse_args()

    t0 = time.time()
    model = load_model(MODELS / "balloon_planar.yaml")
    lm = assemble(model)
    rows = ["re,im,freq_hz,damping"]
    abscissa = -np.inf
    sweep = [{"l6": float(l6)} for l6 in np.linspace(args.lo, args.hi, args.points)]
    a_sweep, _, _, _ = sample_model(lm, sweep)  # one batched evaluation
    for md in modes(a_sweep):
        for lam, f, z in md:
            rows.append(f"{lam.real:.15g},{lam.imag:.15g},{f:.15g},{z:.15g}")
            abscissa = max(abscissa, lam.real)
    pathlib.Path(args.output).write_text("\n".join(rows) + "\n")
    print(f"order {lm.order}, {args.points} points in {time.time() - t0:.2f} s")
    print(f"spectral abscissa over sweep: {abscissa:.3e}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
