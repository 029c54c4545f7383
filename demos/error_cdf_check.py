"""Monte-Carlo vs closed-form CDF of the aggregation error.

Runs the seeded harness once per dependence variant, prints a pass/fail
table, and (when matplotlib is importable) drops a comparison figure next
to this script.
"""

import pathlib

from fluidfed.montecarlo import McPlan, run_mse_cdf_experiment

HERE = pathlib.Path(__file__).resolve().parent


def main():
    plan = McPlan(n_users=20, n_ports=10, s_target=15, trials=20000, seed=3)
    reports = run_mse_cdf_experiment(plan)

    print(f"{plan.trials} trials, {plan.n_users} users, {plan.n_ports} ports, "
          f"error-CDF evaluated at {len(plan.tau_grid)} grid points\n")
    print(f"{'variant':<16s} {'sup gap':>9s} {'worst z':>8s}  verdict")
    for label, rep in reports.items():
        worst = max(
            (abs(p.empirical - p.analytic) / p.stderr if p.stderr > 0 else 0.0)
            for p in rep.points
        )
        verdict = "ok" if rep.all_pass else "MISMATCH"
        print(f"{label:<16s} {rep.sup_gap:9.5f} {worst:8.2f}  {verdict}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not available, skipping the figure")
        return

    fig, ax = plt.subplots(figsize=(7, 4.5))
    for label, rep in reports.items():
        xs = [p.x for p in rep.points]
        ax.plot(xs, [p.analytic for p in rep.points], label=f"{label} (analytic)")
        ax.plot(xs, [p.empirical for p in rep.points], ".", ms=4, color=ax.lines[-1].get_color())
    ax.set_xscale("log")
    ax.set_xlabel("normalized error threshold")
    ax.set_ylabel("P(error <= threshold)")
    ax.set_title("aggregation-error CDF: lines analytic, dots empirical")
    ax.legend(fontsize=8)
    ax.grid(alpha=0.3)
    out = HERE / "error_cdf_check.png"
    fig.savefig(out, dpi=120, bbox_inches="tight")
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
