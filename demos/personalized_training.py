"""Federated training of per-cluster models over the analog uplink.

Two device clusters learn different linear regressors. The run compares
a noiseless ideal aggregator, the unbiased over-the-air scheme, its
adaptive-denoiser variant, and a random-phase baseline, then trains one
shared global model on the same data to show what personalization buys.
"""

import numpy as np

from airpfl.flsim import local_loss, run_training, synth_clustered_tasks
from airpfl.sysmodel import make_config

ROUNDS = 150
ETA = 0.08


def main():
    cfg = make_config(
        num_devices=8,
        num_clusters=2,
        num_ris_elements=128,
        model_dim=16,
        cluster_of=[0, 0, 0, 0, 1, 1, 1, 1],
        max_power=np.ones(8),
        noise_var=1e-10,
        master_seed=11,
    )
    tasks, truth = synth_clustered_tasks(cfg, 50, 0.1, task_seed=cfg.master_seed)

    print(f"{ROUNDS} rounds, eta = {ETA}, summed cluster loss\n")
    print(f"{'scheme':>14} {'round 1':>12} {'final':>12}")
    results = {}
    for scheme in ("ideal", "unbiased", "mmse", "random-phase"):
        hist = run_training(cfg, tasks, scheme, rounds=ROUNDS, eta=ETA)
        summed = hist.losses.sum(axis=1)
        results[scheme] = summed[-1]
        print(f"{scheme:>14} {summed[0]:>12.4e} {summed[-1]:>12.4e}")

    cfg_g = cfg.replace(num_clusters=1, cluster_of=np.zeros(8, dtype=int))
    hist_g = run_training(cfg_g, tasks, "ideal", rounds=ROUNDS, eta=ETA)
    w_global = hist_g.final_weights[0]
    members = [np.flatnonzero(cfg.cluster_of == m) for m in range(cfg.num_clusters)]
    global_summed = sum(local_loss(w_global, tasks)[idx].mean() for idx in members)
    print(f"{'one global':>14} {'':>12} {global_summed:>12.4e}")

    gain = 1.0 - results["unbiased"] / global_summed
    print(f"\npersonalization beats the single shared model by {gain:.1%}")
    print(f"analog unbiased vs ideal final loss ratio: "
          f"{results['unbiased'] / results['ideal']:.4f}")


if __name__ == "__main__":
    main()
