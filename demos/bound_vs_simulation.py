"""Evaluate the optimality-gap recursion on a recorded training schedule.

The recursion needs only what the link produced each round: how many
users made it in and the realized aggregation error.  We feed it first a
constant idealized schedule, then the per-round schedule from an actual
noisy run, and print both trajectories.
"""

import pathlib

import numpy as np

from fluidfed.analytics import ConvergenceConstants, optimality_gap_trajectory
from fluidfed.channel import Clayton
from fluidfed.fedlearn import (
    FlConfig,
    records_to_csv,
    run_training,
    schedule_from_records,
    training_data,
)
from fluidfed.ota import OtaConfig

HERE = pathlib.Path(__file__).resolve().parent

K = 10
CONSTANTS = ConvergenceConstants(
    lr=0.05,
    pl_constant=1.0,
    smoothness=4.0,
    grad_norm_bound=1.0,
    grad_variance=0.5,
    batch_sizes=32,
    n_users=K,
)
FIRST_GAP = 1.0


def show(label, schedule):
    traj = optimality_gap_trajectory(CONSTANTS, schedule, FIRST_GAP)
    marks = [0, 4, 9, 19, len(traj) - 1]
    picks = "  ".join(f"G[{t}]={traj[t]:.4f}" for t in sorted(set(marks)))
    print(f"{label:<22s} {picks}")
    return traj


def main():
    psi = 1.0 - CONSTANTS.lr * CONSTANTS.pl_constant
    print(f"contraction factor per round: {psi:.3f}\n")

    # 1. constant schedule: all K users, fixed aggregation error
    show("constant, mse=0.02", [(K, 0.02)] * 30)
    show("constant, mse=0.20", [(K, 0.20)] * 30)

    # 2. schedule harvested from a real noisy run
    fl = FlConfig(n_clients=K, rounds=30, n_ports=10, lr=0.01,
                  classes=8, dims=8, separation=1.2, samples=6000, split=0.7)
    link = OtaConfig(p_max=0.01, sigma2=3e-3, tau=4.0, d=1)
    records = run_training(fl, link, Clayton(2.0), *training_data(fl, 1), seed=1)
    log = HERE / "bound_input_run.csv"
    records_to_csv(records, log)
    schedule = schedule_from_records(log)  # same round-trip the CLI uses
    traj = show("recorded clayton-2 run", schedule)

    parts = np.array([s for s, _ in schedule])
    mses = np.array([m for _, m in schedule if m == m])
    print(f"\nrecorded schedule: participants min/mean {parts.min()}/"
          f"{parts.mean():.1f}, mse mean {mses.mean():.4f}")
    print("every dropped user and every bit of channel noise shows up as a"
          " wider floor; the contraction rate itself never changes.")
    print(f"bound after {len(traj)} rounds of the recorded run: {traj[-1]:.4f}")


if __name__ == "__main__":
    main()
