"""Federated averaging over a noisy over-the-air uplink.

One server, K clients, IID data partition.  Each round: sample every
client's fluid-antenna channel, keep the clients whose best-port gain
passes the participation threshold, run one local optimizer step on each
participant, and aggregate the resulting parameter vectors over the air
(zero-forcing scaling + receiver noise).  The transmitted vectors are
normalized by the round's maximum update norm (a shared scalar) and
denormalized after aggregation, so with zero noise and full participation
the round reproduces plain FedAvg to float rounding.

The model is a single-hidden-layer MLP (ReLU hidden, softmax output,
cross-entropy loss) in plain float64 numpy, trained with Adam or SGD.
Data comes from IDX image/label files or from a synthetic Gaussian-blob
generator.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import ota
from .channel import (
    DependenceSpec,
    RngLike,
    as_generator,
    sample_port_gains,
    select_ports,
)

__all__ = [
    "TrainingDivergedError",
    "Dataset",
    "ClientState",
    "MlpModel",
    "FlConfig",
    "RoundRecord",
    "ingest_mnist",
    "synthesize_dataset",
    "partition_iid",
    "local_update",
    "run_training",
    "records_to_csv",
    "records_to_jsonl",
    "schedule_from_records",
]

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


class TrainingDivergedError(RuntimeError):
    """Parameters went nonfinite; carries the rounds completed so far."""

    def __init__(self, message: str, records: list):
        super().__init__(message)
        self.records = records


# ----------------------------------------------------------------------
# data
# ----------------------------------------------------------------------


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def n_features(self) -> int:
        return self.train_x.shape[1]

    @property
    def n_classes(self) -> int:
        labels = (
            np.concatenate([self.train_y, self.test_y])
            if self.test_y.size
            else self.train_y
        )
        return int(labels.max()) + 1


def _read_idx(path, expected_magic: int, kind: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ValueError(f"{kind} file {path} is truncated")
    magic, count = struct.unpack(">II", raw[:8])
    if magic != expected_magic:
        raise ValueError(
            f"{kind} file {path} has magic {magic}, expected {expected_magic}"
        )
    if expected_magic == IDX_IMAGE_MAGIC:
        if len(raw) < 16:
            raise ValueError(f"{kind} file {path} is truncated")
        rows, cols = struct.unpack(">II", raw[8:16])
        body = np.frombuffer(raw, dtype=np.uint8, offset=16)
        if body.size != count * rows * cols:
            raise ValueError(
                f"{kind} file {path}: expected {count * rows * cols} pixels, "
                f"found {body.size}"
            )
        return body.reshape(count, rows * cols)
    body = np.frombuffer(raw, dtype=np.uint8, offset=8)
    if body.size != count:
        raise ValueError(
            f"{kind} file {path}: expected {count} labels, found {body.size}"
        )
    return body


def _split(
    x: np.ndarray, y: np.ndarray, split: float, rng: RngLike
) -> Dataset:
    if not (0 < split <= 1):
        raise ValueError("split must be in (0, 1]")
    gen = as_generator(rng)
    n = x.shape[0]
    order = gen.permutation(n)
    n_train = int(round(split * n))
    if n >= 2:
        n_train = min(max(n_train, 1), n - 1)
    idx_train, idx_test = order[:n_train], order[n_train:]
    return Dataset(
        train_x=x[idx_train],
        train_y=y[idx_train],
        test_x=x[idx_test],
        test_y=y[idx_test],
    )


def ingest_mnist(
    images_path, labels_path, split: float = 0.9, rng: RngLike = 0
) -> Dataset:
    """Load IDX image/label files, scale pixels to [0, 1], shuffle, split."""
    images = _read_idx(images_path, IDX_IMAGE_MAGIC, "image")
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label")
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}"
        )
    x = images.astype(np.float64) / 255.0
    y = labels.astype(np.int64)
    return _split(x, y, split, rng)


def synthesize_dataset(
    classes: int = 3,
    dims: int = 16,
    samples: int = 2000,
    rng: RngLike = 0,
    separation: float = 6.0,
    split: float = 0.9,
) -> Dataset:
    """Gaussian blobs with class means on a scaled, centered simplex.

    Class c's mean is separation * (e_c - centroid) in R^dims (requires
    dims >= classes); unit isotropic noise.  At the default separation the
    classes are cleanly separable.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if classes < 2:
        raise ValueError("classes must be >= 2")
    if dims < classes:
        raise ValueError("dims must be >= classes")
    gen = as_generator(rng)
    means = np.zeros((classes, dims))
    means[np.arange(classes), np.arange(classes)] = 1.0
    means = separation * (means - means.mean(axis=0))
    y = gen.integers(0, classes, size=samples)
    x = means[y] + gen.standard_normal((samples, dims))
    return _split(x, y, split, gen)


@dataclass
class ClientState:
    """One client's shard plus persistent optimizer state."""

    client_id: int
    x: np.ndarray
    y: np.ndarray
    adam_m: Optional[np.ndarray] = None
    adam_v: Optional[np.ndarray] = None
    step: int = 0


def partition_iid(dataset: Dataset, n_clients: int, rng: RngLike) -> list[ClientState]:
    """Shuffle the training split into near-equal shards (sizes differ <= 1)."""
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    n = dataset.train_x.shape[0]
    if n_clients > n:
        raise ValueError(f"cannot split {n} training samples into {n_clients} shards")
    gen = as_generator(rng)
    order = gen.permutation(n)
    shards = np.array_split(order, n_clients)
    return [
        ClientState(client_id=i, x=dataset.train_x[s], y=dataset.train_y[s])
        for i, s in enumerate(shards)
    ]


# ----------------------------------------------------------------------
# model
# ----------------------------------------------------------------------


class MlpModel:
    """Single-hidden-layer MLP on flat parameter vectors.

    Layout: W1 (in x hidden), b1, W2 (hidden x classes), b2 packed in that
    order.  ReLU hidden activation, softmax output, mean cross-entropy loss.
    """

    def __init__(self, n_inputs: int, n_hidden: int, n_classes: int):
        if min(n_inputs, n_hidden, n_classes) < 1:
            raise ValueError("layer sizes must be >= 1")
        self.n_inputs = n_inputs
        self.n_hidden = n_hidden
        self.n_classes = n_classes

    @property
    def n_params(self) -> int:
        return (
            self.n_inputs * self.n_hidden
            + self.n_hidden
            + self.n_hidden * self.n_classes
            + self.n_classes
        )

    def init_params(self, rng: RngLike) -> np.ndarray:
        """Uniform Xavier/Glorot weights, zero biases."""
        gen = as_generator(rng)
        lim1 = np.sqrt(6.0 / (self.n_inputs + self.n_hidden))
        lim2 = np.sqrt(6.0 / (self.n_hidden + self.n_classes))
        w1 = gen.uniform(-lim1, lim1, size=(self.n_inputs, self.n_hidden))
        w2 = gen.uniform(-lim2, lim2, size=(self.n_hidden, self.n_classes))
        return np.concatenate(
            [w1.ravel(), np.zeros(self.n_hidden), w2.ravel(), np.zeros(self.n_classes)]
        )

    def unpack(self, w: np.ndarray):
        i, h, c = self.n_inputs, self.n_hidden, self.n_classes
        a = 0
        w1 = w[a : a + i * h].reshape(i, h)
        a += i * h
        b1 = w[a : a + h]
        a += h
        w2 = w[a : a + h * c].reshape(h, c)
        a += h * c
        b2 = w[a : a + c]
        return w1, b1, w2, b2

    def _logits(self, w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w1, b1, w2, b2 = self.unpack(w)
        z1 = x @ w1 + b1
        a1 = np.maximum(z1, 0.0)
        return z1, a1 @ w2 + b2

    def predict_proba(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        _, z2 = self._logits(w, x)
        z2 = z2 - z2.max(axis=1, keepdims=True)
        e = np.exp(z2)
        return e / e.sum(axis=1, keepdims=True)

    def loss_and_grad(
        self, w: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Mean cross-entropy and its gradient wrt the flat parameters."""
        w1, b1, w2, b2 = self.unpack(w)
        n = x.shape[0]
        z1 = x @ w1 + b1
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ w2 + b2
        shift = z2 - z2.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shift).sum(axis=1, keepdims=True))
        log_probs = shift - log_norm
        loss = -float(log_probs[np.arange(n), y].mean())
        dz2 = np.exp(log_probs)
        dz2[np.arange(n), y] -= 1.0
        dz2 /= n
        dw2 = a1.T @ dz2
        db2 = dz2.sum(axis=0)
        da1 = dz2 @ w2.T
        dz1 = da1 * (z1 > 0)
        dw1 = x.T @ dz1
        db1 = dz1.sum(axis=0)
        grad = np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])
        return loss, grad

    def accuracy(self, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
        if x.shape[0] == 0:
            return float("nan")
        _, z2 = self._logits(w, x)
        return float(np.mean(z2.argmax(axis=1) == y))


# ----------------------------------------------------------------------
# training loop
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FlConfig:
    """Training-run shape: clients, rounds, optimizer, channel, and data."""

    n_clients: int = 10
    rounds: int = 30
    n_ports: int = 10
    lr: float = 0.01
    batch_size: int = 32
    hidden: int = 32
    local_steps: int = 1
    optimizer: str = "adam"
    benchmark: str = "ota"  # "ota" or "ideal" (noise-free full participation)
    data: str = "synthetic"  # "synthetic" or "mnist"
    classes: int = 3
    dims: int = 16
    samples: int = 2000
    separation: float = 6.0
    split: float = 0.9
    mnist_images: Optional[str] = None
    mnist_labels: Optional[str] = None

    def __post_init__(self):
        if self.n_clients < 1 or self.rounds < 1 or self.n_ports < 1:
            raise ValueError("n_clients, rounds, n_ports must be >= 1")
        if not (self.lr > 0):
            raise ValueError("lr must be > 0")
        if self.batch_size < 1 or self.local_steps < 1 or self.hidden < 1:
            raise ValueError("batch_size, local_steps, hidden must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.benchmark not in ("ota", "ideal"):
            raise ValueError("benchmark must be 'ota' or 'ideal'")
        if self.data not in ("synthetic", "mnist"):
            raise ValueError("data must be 'synthetic' or 'mnist'")


@dataclass
class RoundRecord:
    """One training round's outcome.

    ``mse``, ``eta``, ``train_loss`` are None when undefined (skipped round
    or the ideal benchmark); ``wall_time`` stays in memory and is not
    serialized so reruns are byte-identical.
    """

    round: int
    participants: int
    mse: Optional[float]
    eta: Optional[float]
    train_loss: Optional[float]
    test_acc: float
    wall_time: float = 0.0


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def local_update(
    model: MlpModel,
    client: ClientState,
    w_global: np.ndarray,
    cfg: FlConfig,
    rng: RngLike,
) -> tuple[np.ndarray, float]:
    """One client round: minibatch step(s) from the current global model.

    Returns the client's new parameter vector and the loss of its first
    batch at the incoming global parameters.  Adam moments live in the
    client state and carry across rounds.
    """
    gen = as_generator(rng)
    w = w_global.copy()
    first_loss = None
    for _ in range(cfg.local_steps):
        n = client.x.shape[0]
        batch = gen.choice(n, size=min(cfg.batch_size, n), replace=False)
        loss, grad = model.loss_and_grad(w, client.x[batch], client.y[batch])
        if first_loss is None:
            first_loss = loss
        if cfg.optimizer == "sgd":
            w = w - cfg.lr * grad
            continue
        if client.adam_m is None:
            client.adam_m = np.zeros_like(w)
            client.adam_v = np.zeros_like(w)
        client.step += 1
        client.adam_m = ADAM_BETA1 * client.adam_m + (1 - ADAM_BETA1) * grad
        client.adam_v = ADAM_BETA2 * client.adam_v + (1 - ADAM_BETA2) * grad**2
        m_hat = client.adam_m / (1 - ADAM_BETA1**client.step)
        v_hat = client.adam_v / (1 - ADAM_BETA2**client.step)
        w = w - cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return w, float(first_loss)


def _build_dataset(cfg: FlConfig, rng: RngLike) -> Dataset:
    if cfg.data == "mnist":
        if not (cfg.mnist_images and cfg.mnist_labels):
            raise ValueError("mnist data requires mnist_images and mnist_labels paths")
        return ingest_mnist(cfg.mnist_images, cfg.mnist_labels, cfg.split, rng)
    return synthesize_dataset(
        cfg.classes, cfg.dims, cfg.samples, rng, cfg.separation, cfg.split
    )


def run_training(
    fl: FlConfig,
    link: ota.OtaConfig,
    dep: DependenceSpec,
    seed: int = 0,
    dataset: Optional[Dataset] = None,
) -> list[RoundRecord]:
    """Run T federated rounds and return one record per round.

    The RNG tree is spawned from ``seed``: data/partition, model init, then
    per-round children split into channel, uplink noise, and one stream per
    client, so client work can run in parallel without changing results.
    The link config's vector length is overridden with the model dimension.
    """
    root = np.random.SeedSequence(seed)
    data_ss, init_ss, rounds_ss = root.spawn(3)
    if dataset is None:
        gen_ss, part_ss = data_ss.spawn(2)
        dataset = _build_dataset(fl, np.random.default_rng(gen_ss))
        clients = partition_iid(dataset, fl.n_clients, np.random.default_rng(part_ss))
    else:
        clients = partition_iid(dataset, fl.n_clients, np.random.default_rng(data_ss))

    model = MlpModel(dataset.n_features, fl.hidden, dataset.n_classes)
    w = model.init_params(np.random.default_rng(init_ss))
    import dataclasses as _dc

    link = _dc.replace(link, d=model.n_params)

    records: list[RoundRecord] = []
    round_streams = rounds_ss.spawn(fl.rounds)
    for t in range(1, fl.rounds + 1):
        t0 = time.monotonic()
        ch_ss, noise_ss, clients_root = round_streams[t - 1].spawn(3)
        client_streams = clients_root.spawn(fl.n_clients)

        if fl.benchmark == "ideal":
            locals_w = []
            losses = []
            for k in range(fl.n_clients):
                wk, loss = local_update(model, clients[k], w, fl, client_streams[k])
                locals_w.append(wk)
                losses.append(loss)
            w = np.mean(locals_w, axis=0)
            participants, mse, eta, train_loss = fl.n_clients, 0.0, None, float(np.mean(losses))
        else:
            gains = sample_port_gains(dep, fl.n_clients, fl.n_ports, ch_ss)
            effective = select_ports(gains)
            selected = ota.select_users(effective, link)
            if selected.size == 0:
                records.append(
                    RoundRecord(
                        round=t,
                        participants=0,
                        mse=None,
                        eta=None,
                        train_loss=None,
                        test_acc=model.accuracy(w, dataset.test_x, dataset.test_y),
                        wall_time=time.monotonic() - t0,
                    )
                )
                continue
            outcome = ota.zf_power_control(effective, selected, link)
            locals_w = []
            losses = []
            for k in selected:
                wk, loss = local_update(model, clients[k], w, fl, client_streams[k])
                locals_w.append(wk)
                losses.append(loss)
            stack = np.asarray(locals_w)
            norm_scale = float(np.max(np.linalg.norm(stack, axis=1)))
            if norm_scale == 0.0:
                norm_scale = 1.0
            estimate = ota.ota_aggregate(stack / norm_scale, outcome, link, noise_ss)
            w = norm_scale * estimate
            participants = int(selected.size)
            mse, eta, train_loss = outcome.realized_mse, outcome.eta, float(np.mean(losses))

        if not np.all(np.isfinite(w)):
            raise TrainingDivergedError(
                f"parameters went nonfinite at round {t}", records
            )
        records.append(
            RoundRecord(
                round=t,
                participants=participants,
                mse=mse,
                eta=eta,
                train_loss=train_loss,
                test_acc=model.accuracy(w, dataset.test_x, dataset.test_y),
                wall_time=time.monotonic() - t0,
            )
        )
    return records


# ----------------------------------------------------------------------
# record serialization
# ----------------------------------------------------------------------

_RECORD_FIELDS = ("round", "participants", "mse", "eta", "train_loss", "test_acc")


def _field_str(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def records_to_csv(records: Sequence[RoundRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_RECORD_FIELDS) + "\n")
        for r in records:
            fh.write(",".join(_field_str(getattr(r, f)) for f in _RECORD_FIELDS) + "\n")


def records_to_jsonl(records: Sequence[RoundRecord], path) -> None:
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps({f: getattr(r, f) for f in _RECORD_FIELDS}))
            fh.write("\n")


def schedule_from_records(path) -> list[tuple[int, float]]:
    """Read a round-record CSV back into a (participants, mse) schedule.

    Skipped rounds keep participants = 0 and mse = 0; the bound trajectory
    treats them as no-contraction rounds.
    """
    out: list[tuple[int, float]] = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        try:
            i_part = header.index("participants")
            i_mse = header.index("mse")
        except ValueError as exc:
            raise ValueError(f"{path} is not a round-record CSV: {exc}") from exc
        for line in fh:
            cells = line.rstrip("\n").split(",")
            participants = int(cells[i_part])
            mse = float(cells[i_mse]) if cells[i_mse] else 0.0
            out.append((participants, mse))
    return out
