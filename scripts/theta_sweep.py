#!/usr/bin/env python3
"""Sweep the appearance-weight crossover angle theta (and optionally the
direction-cost weight lambda) over synthetic scenarios with mixed
appearance homogeneity, printing a metric table per setting.

Usage: python scripts/theta_sweep.py [--lambdas] [--seeds N]
"""

import argparse

import numpy as np

from macsort.metrics import TrackSequence, evaluate
from macsort.synth import ScenarioSpec, generate
from macsort.tracker import AssocConfig, track_sequence


def run(scenario, cfg):
    pred = TrackSequence()
    for frame, tid, box in track_sequence(scenario.detections, cfg):
        pred.add(frame, tid, box)
    return evaluate(scenario.gt, pred)


def scenarios(seeds):
    for seed in seeds:
        for homogeneity in (0.0, 0.5, 1.0):
            yield ScenarioSpec(
                seed=seed, n_objects=4, n_frames=50, motion="crossing",
                appearance_homogeneity=homogeneity, detection_noise_px=0.8,
                miss_rate=0.05, embedding_dim=16,
            )


def sweep(settings, label, make_cfg, seeds):
    print(f"\n{label:<10} {'HOTA':>7} {'MOTA':>7} {'IDF1':>7} {'IDSW':>6}")
    for value in settings:
        cfg = make_cfg(value)
        hota, mota, idf1, idsw = [], [], [], 0
        for spec in scenarios(seeds):
            rep = run(generate(spec), cfg)
            hota.append(rep.hota)
            mota.append(rep.mota)
            idf1.append(rep.idf1)
            idsw += rep.id_switches
        print(f"{value:<10} {np.mean(hota):>7.4f} {np.mean(mota):>7.4f} "
              f"{np.mean(idf1):>7.4f} {idsw:>6d}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambdas", action="store_true",
                    help="also sweep the direction-cost weight")
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()
    seeds = list(range(args.seeds))

    sweep([22.5, 45.0, 67.5, 80.0], "theta",
          lambda t: AssocConfig(theta_deg=t), seeds)
    if args.lambdas:
        sweep([0.0, 0.1, 0.2, 0.4], "lambda",
              lambda l: AssocConfig(lam=l), seeds)


if __name__ == "__main__":
    main()
