"""Sweep the number of selectable ports and measure the diversity payoff."""

import pathlib

from fluidfed.montecarlo import McPlan, run_port_sweep
from fluidfed.ota import gain_threshold

HERE = pathlib.Path(__file__).resolve().parent


def main():
    plan = McPlan(n_users=20, trials=15000, seed=8)
    results = run_port_sweep(plan)

    grid = [int(n) for n in plan.n_grid]
    labels = list(results)
    print(f"probability that all {plan.n_users} users clear the power check "
          f"(threshold {gain_threshold(plan.link):.2f}):\n")
    print("ports  " + "".join(f"{lbl:>14s}" for lbl in labels))
    for i, n in enumerate(grid):
        row = f"{n:5d}  "
        for lbl in labels:
            row += f"{results[lbl].points[i].analytic:14.4f}"
        print(row)

    print("\nthe N=1 row is dependence-free -- every column starts from the"
          " same floor and climbs at its own rate.")
    for lbl in labels:
        if not results[lbl].all_pass:
            print(f"note: simulation disagrees with the closed form for {lbl}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return

    fig, ax = plt.subplots(figsize=(6.5, 4))
    for lbl in labels:
        ax.plot(grid, [p.analytic for p in results[lbl].points], "-o", ms=3, label=lbl)
    ax.set_xlabel("ports per user")
    ax.set_ylabel(f"P(all {plan.n_users} participate)")
    ax.legend()
    ax.grid(alpha=0.3)
    out = HERE / "port_count_payoff.png"
    fig.savefig(out, dpi=120, bbox_inches="tight")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
