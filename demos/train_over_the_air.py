"""Federated training over a noisy analog uplink, four channel variants.

Same data, same model init, same round seeds -- the only thing that
changes is the channel each client gets.  'ideal' is the noiseless
full-participation reference; the others pay both an aggregation-noise
tax and a participation tax that grows as ports become more correlated.
Writes per-round CSVs next to this script.
"""

import pathlib
import time

from fluidfed.channel import Clayton, Independent, PerfectDependence
from fluidfed.fedlearn import FlConfig, records_to_csv, run_training, training_data
from fluidfed.ota import OtaConfig

HERE = pathlib.Path(__file__).resolve().parent
SEED = 0

VARIANTS = [
    ("ideal", Independent()),          # dependence unused on the ideal path
    ("fa-independent", Independent()),
    ("fa-clayton2", Clayton(2.0)),
    ("fpa", PerfectDependence()),
]


def main():
    link = OtaConfig(p_max=0.01, sigma2=3e-3, tau=4.0, d=1)
    base = dict(n_clients=10, rounds=30, n_ports=10, lr=0.01,
                classes=8, dims=8, separation=1.2, samples=6000, split=0.7)

    print(f"{'variant':<16s} {'mean part.':>10s} {'mean mse':>10s} "
          f"{'final acc':>10s} {'secs':>6s}")
    data = training_data(FlConfig(**base), SEED)
    for label, dep in VARIANTS:
        fl = FlConfig(benchmark="ideal" if label == "ideal" else "ota", **base)
        t0 = time.perf_counter()
        records = run_training(fl, link, dep, *data, seed=SEED)
        secs = time.perf_counter() - t0

        active = [r for r in records if r.participants > 0]
        mean_part = sum(r.participants for r in records) / len(records)
        mean_mse = (sum(r.mse for r in active) / len(active)) if active else float("nan")
        print(f"{label:<16s} {mean_part:10.2f} {mean_mse:10.4f} "
              f"{records[-1].test_acc:10.4f} {secs:6.2f}")

        records_to_csv(records, HERE / f"train_{label}.csv")

    print(f"\nper-round logs written to {HERE}/train_<variant>.csv")
    print("with tau this loose everyone participates nearly every round, so"
          " the accuracy gap is pure aggregation-noise damage.")


if __name__ == "__main__":
    main()
