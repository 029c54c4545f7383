"""Federated averaging over a noisy over-the-air uplink.

One server, K clients, IID data partition.  Each round: sample every
client's fluid-antenna channel, keep the clients whose best-port gain
passes the participation threshold (the round's cohort; the ideal
benchmark's cohort is every client), run the cohort's local optimizer
steps, and aggregate the resulting parameter vectors over the air
(zero-forcing scaling + receiver noise).  The transmitted vectors are
normalized by the round's maximum update norm (a shared scalar) and
denormalized after aggregation, so with zero noise and full participation
the round reproduces plain FedAvg to float rounding.

The model is a single-hidden-layer MLP (ReLU hidden, softmax output,
cross-entropy loss) in plain float64 numpy, trained with Adam or SGD.
Client shards are rows of one (K, max shard) index matrix into the
training split.  A round's local updates are one ``local_update`` call on
(S, .) stacks: per local step, one key draw for all K clients, one gather
and one ``loss_and_grad`` call per batch length, with Adam moments kept
as run-level (K, P) stacks.  Every slice equals a per-client computation
bit for bit.  Data comes from IDX image/label files, when both paths are
given, or else from a synthetic Gaussian-blob generator.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ota
from .channel import (
    DependenceSpec,
    RngLike,
    sample_port_gains,
    select_ports,
)

__all__ = [
    "TrainingDivergedError",
    "Dataset",
    "AdamMoments",
    "MlpModel",
    "FlConfig",
    "RoundRecord",
    "STAGES",
    "ingest_mnist",
    "synthesize_dataset",
    "partition_iid",
    "training_data",
    "local_update",
    "run_training",
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
        return int(max(self.train_y.max(), self.test_y.max(initial=0))) + 1


def _read_idx(path, expected_magic: int, kind: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ValueError(f"{kind} file {path} is truncated")
    magic, count = struct.unpack(">II", raw[:8])
    if magic != expected_magic:
        raise ValueError(f"{kind} file {path} has magic {magic}, expected {expected_magic}")
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
        raise ValueError(f"{kind} file {path}: expected {count} labels, found {body.size}")
    return body


def _train_count(n: int, split: float) -> int:
    """Rows of ``n`` that ``_split`` puts in the training split."""
    if not (0 < split <= 1):
        raise ValueError("split must be in (0, 1]")
    if n < 2:
        raise ValueError("samples must be >= 2: one training and one test row")
    return min(max(int(round(split * n)), 1), n - 1)


def _split(x: np.ndarray, y: np.ndarray, split: float, rng: RngLike) -> Dataset:
    n_train = _train_count(x.shape[0], split)
    order = np.random.default_rng(rng).permutation(x.shape[0])
    idx_train, idx_test = order[:n_train], order[n_train:]
    return Dataset(x[idx_train], y[idx_train], x[idx_test], y[idx_test])


def ingest_mnist(images_path, labels_path, split: float = 0.9, rng: RngLike = 0) -> Dataset:
    """Load IDX image/label files, scale pixels to [0, 1], shuffle, split."""
    images = _read_idx(images_path, IDX_IMAGE_MAGIC, "image")
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label")
    if images.shape[0] != labels.shape[0]:
        raise ValueError(f"image count {images.shape[0]} in {images_path} != "
                         f"label count {labels.shape[0]} in {labels_path}")
    if images.shape[0] < 2:  # named by its file, before _split's samples check
        raise ValueError(f"mnist_images {images_path} holds {images.shape[0]} images, fewer than 2")
    return _split(images.astype(np.float64) / 255.0, labels.astype(np.int64), split, rng)


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
    _train_count(samples, split)  # before any draw
    if classes < 2:
        raise ValueError("classes must be >= 2")
    if dims < classes:
        raise ValueError("dims must be >= classes")
    gen = np.random.default_rng(rng)
    means = np.zeros((classes, dims))
    means[np.arange(classes), np.arange(classes)] = 1.0
    means = separation * (means - means.mean(axis=0))
    y = gen.integers(0, classes, size=samples)
    x = means[y] + gen.standard_normal((samples, dims))
    return _split(x, y, split, gen)


def partition_iid(dataset: Dataset, n_clients: int, rng: RngLike) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle the training split into near-equal shards (sizes differ <= 1).

    Returns a (K, max shard) matrix whose row k holds client k's training
    row indices in its first ``sizes[k]`` columns, and the (K,) ``sizes``.
    """
    n = dataset.train_x.shape[0]
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if n_clients > n:
        raise ValueError(f"n_clients must be <= {n}, the training samples to split")
    order = np.random.default_rng(rng).permutation(n)
    sizes = np.full(n_clients, n // n_clients)
    sizes[: n % n_clients] += 1
    index = np.zeros((n_clients, sizes[0]), dtype=np.intp)
    index[np.arange(sizes[0]) < sizes[:, None]] = order
    return index, sizes


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
        return (self.n_inputs + 1) * self.n_hidden + (self.n_hidden + 1) * self.n_classes

    def init_params(self, rng: RngLike) -> np.ndarray:
        """Uniform Xavier/Glorot weights, zero biases."""
        gen = np.random.default_rng(rng)
        lim1 = np.sqrt(6.0 / (self.n_inputs + self.n_hidden))
        lim2 = np.sqrt(6.0 / (self.n_hidden + self.n_classes))
        w1 = gen.uniform(-lim1, lim1, size=(self.n_inputs, self.n_hidden))
        w2 = gen.uniform(-lim2, lim2, size=(self.n_hidden, self.n_classes))
        return np.concatenate(
            [w1.ravel(), np.zeros(self.n_hidden), w2.ravel(), np.zeros(self.n_classes)]
        )

    def unpack(self, w: np.ndarray):
        """Views of W1, b1, W2, b2; a leading axis of ``w`` is kept on each."""
        i, h, c = self.n_inputs, self.n_hidden, self.n_classes
        w1, b1, w2, b2 = np.split(w, [i * h, (i + 1) * h, (i + 1 + c) * h], axis=-1)
        return w1.reshape(*w.shape[:-1], i, h), b1, w2.reshape(*w.shape[:-1], h, c), b2

    def _logits(self, w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden activations and output logits, (..., b, h) and (..., b, c)."""
        w1, b1, w2, b2 = self.unpack(w)
        z1 = x @ w1
        z1 += b1[..., None, :]
        a1 = np.maximum(z1, 0.0, out=z1)
        z2 = a1 @ w2
        z2 += b2[..., None, :]
        return a1, z2

    def loss_and_grad(self, w: np.ndarray, x: np.ndarray, y: np.ndarray):
        """Mean cross-entropy and its gradient wrt the flat parameters, per client.

        ``x`` (S, b, in) and ``y`` (S, b) stack the batches of S clients, and
        the parameters ``w`` are (P,) shared by all S or (S, P).  Returns (S,)
        losses and (S, P) gradients.  Stacked matmul runs one GEMM per slice,
        so each slice equals its S = 1 call bit for bit.
        """
        s, n = y.shape
        _, _, w2, _ = self.unpack(w)
        a1, z2 = self._logits(w, x)
        z2 -= z2.max(axis=-1, keepdims=True)
        log_probs = z2 - np.log(np.exp(z2).sum(axis=-1, keepdims=True))
        rows, cols = np.arange(s)[:, None], np.arange(n)
        loss = -log_probs[rows, cols, y].mean(axis=-1)
        dz2 = np.exp(log_probs)
        dz2[rows, cols, y] -= 1.0
        dz2 /= n
        grad = np.empty((s, self.n_params))
        gw1, gb1, gw2, gb2 = self.unpack(grad)
        np.matmul(a1.transpose(0, 2, 1), dz2, out=gw2)
        np.sum(dz2, axis=1, out=gb2)
        active = a1 > 0
        da1 = np.matmul(dz2, np.swapaxes(w2, -1, -2), out=a1)
        da1 *= active
        np.matmul(x.transpose(0, 2, 1), da1, out=gw1)
        np.sum(da1, axis=1, out=gb1)
        return loss, grad

    def accuracy(self, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
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
    classes: int = 3
    dims: int = 16
    samples: int = 2000
    separation: float = 6.0
    split: float = 0.9
    mnist_images: Optional[str] = None
    mnist_labels: Optional[str] = None

    def __post_init__(self):
        for name in ("n_clients", "rounds", "n_ports", "batch_size", "local_steps", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (self.lr > 0):
            raise ValueError("lr must be > 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.benchmark not in ("ota", "ideal"):
            raise ValueError("benchmark must be 'ota' or 'ideal'")
        _train_count(self.samples, self.split)  # checks samples, and split for either data
        for name, other in (("mnist_images", "mnist_labels"), ("mnist_labels", "mnist_images")):
            if getattr(self, name) is None and getattr(self, other) is not None:
                raise ValueError(f"{name} must name an IDX file when {other} does")


@dataclass
class RoundRecord:
    """One training round's outcome.

    ``mse``, ``eta``, ``train_loss`` are None on a skipped round; the ideal
    benchmark's noise-free mean records ``mse`` = 0.0 and ``eta`` None.
    ``norm_scale`` is None unless the round went over the air.
    ``stage_s`` holds the round's seconds in each of ``STAGES``, in that
    order.  ``wall_time``, ``norm_scale`` and ``stage_s`` stay in memory and
    are not serialized, so reruns are byte-identical.
    """

    round: int
    participants: int
    mse: Optional[float]
    eta: Optional[float]
    train_loss: Optional[float]
    test_acc: float
    wall_time: float = 0.0
    norm_scale: Optional[float] = None
    stage_s: tuple = ()


# a round's stages, as RoundRecord.stage_s times them: channel draw and
# user selection, the cohort's local updates, aggregation, test-set eval
STAGES = ("channel", "local_update", "aggregate", "eval")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamMoments:
    """Adam state of every client: rows of ``m``, ``v`` and ``steps`` per client."""

    m: np.ndarray
    v: np.ndarray
    steps: np.ndarray

    @classmethod
    def zeros(cls, n_clients: int, n_params: int) -> "AdamMoments":
        shape = (n_clients, n_params)
        return cls(np.zeros(shape), np.zeros(shape), np.zeros(n_clients, dtype=np.int64))


def _bias_correction(beta: float, steps: np.ndarray) -> np.ndarray:
    # Python's float pow per client: numpy's vectorized power differs from
    # it in the last bit on some steps
    return np.array([[1 - beta ** int(s)] for s in steps])


def local_update(
    model: MlpModel,
    dataset: Dataset,
    shards: tuple[np.ndarray, np.ndarray],
    cohort: np.ndarray,
    w_global: np.ndarray,
    cfg: FlConfig,
    rng: RngLike,
    adam: Optional[AdamMoments] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minibatch step(s) from w_global for the clients in ``cohort``.

    Each local step draws one (K, max shard) uniform key matrix from
    ``rng``, so a client's batch does not depend on the rest of the cohort:
    client k takes the rows of its ``min(batch_size, sizes[k])`` smallest
    keys among the first ``sizes[k]`` columns of its :func:`partition_iid`
    ``shards`` row, in column order.  Clients of equal batch length (at most
    two, as shard sizes differ by at most one) share one gather and one
    ``loss_and_grad`` call per step.  Adam moments are gathered from and
    scattered back to the run-level ``adam`` stacks (zero moments when
    None).  Returns the (S, P) new parameters and the (S,) losses of each
    client's first batch at w_global.
    """
    gen = np.random.default_rng(rng)
    index, sizes = shards
    lengths = np.minimum(cfg.batch_size, sizes[cohort])
    padding = np.arange(index.shape[1]) >= sizes[cohort, None]
    w = w_global
    for step in range(cfg.local_steps):
        keys = np.where(padding, np.inf, gen.random(index.shape)[cohort])
        loss, grad = np.empty(cohort.size), np.empty((cohort.size, w_global.size))
        for n in sorted(set(lengths.tolist())):  # np.unique would import numpy.ma here
            pos = np.flatnonzero(lengths == n)
            picked = np.sort(np.argpartition(keys[pos], n - 1, axis=1)[:, :n], axis=1)
            rows = index[cohort[pos, None], picked]
            x, y = dataset.train_x[rows], dataset.train_y[rows]
            loss[pos], grad[pos] = model.loss_and_grad(w if w.ndim == 1 else w[pos], x, y)
        if step == 0:
            first_loss = loss
        # in place, rounding exactly as the plain expressions w - lr * g
        # and w - lr * m_hat / (sqrt(v_hat) + eps) do
        if cfg.optimizer == "sgd":
            grad *= cfg.lr
            w = np.subtract(w, grad, out=grad)
            continue
        if step == 0:
            adam = adam if adam is not None else AdamMoments.zeros(sizes.size, w_global.size)
            m, v, steps = adam.m[cohort], adam.v[cohort], adam.steps[cohort]
        steps += 1
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * grad
        grad *= grad
        grad *= 1 - ADAM_BETA2
        v *= ADAM_BETA2
        v += grad
        m_hat = m / _bias_correction(ADAM_BETA1, steps)
        denom = np.divide(v, _bias_correction(ADAM_BETA2, steps), out=grad)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        m_hat *= cfg.lr
        m_hat /= denom
        w = np.subtract(w, m_hat, out=m_hat)
    if cfg.optimizer == "adam":
        adam.m[cohort], adam.v[cohort], adam.steps[cohort] = m, v, steps
    return w, first_loss


def training_data(fl: FlConfig, seed: int = 0) -> tuple[Dataset, tuple[np.ndarray, np.ndarray]]:
    """The dataset of ``fl`` and its client shards, for :func:`run_training`.

    Drawn from child 0 of ``SeedSequence(seed)``, split into a data and a
    partition stream.  Raises ValueError for a malformed IDX file and for
    more clients than training samples.
    """
    gen_ss, part_ss = np.random.SeedSequence(seed).spawn(3)[0].spawn(2)
    gen = np.random.default_rng(gen_ss)
    if fl.mnist_images is not None:  # and so mnist_labels
        dataset = ingest_mnist(fl.mnist_images, fl.mnist_labels, fl.split, gen)
    else:
        dataset = synthesize_dataset(fl.classes, fl.dims, fl.samples, gen, fl.separation, fl.split)
    return dataset, partition_iid(dataset, fl.n_clients, np.random.default_rng(part_ss))


def run_training(
    fl: FlConfig,
    link: ota.OtaConfig,
    dep: DependenceSpec | None,
    dataset: Dataset,
    shards: tuple[np.ndarray, np.ndarray],
    seed: int = 0,
) -> list[RoundRecord]:
    """Run T federated rounds on the client ``shards`` and return one record per round.

    ``dataset`` and ``shards`` come from :func:`training_data`, child 0 of
    the RNG tree spawned from ``seed``.  Child 1 is the model init, child 2
    the per-round children, split into channel, uplink noise, and the batch
    stream from which ``local_update`` draws every client's batch keys.
    Each round is one ``local_update`` call: on every client for the ideal
    benchmark, then averaged; on the selected clients for the OTA path, then
    normalized and aggregated over the air as vectors of the model's
    parameter count.  The ideal benchmark draws no channel: ``dep`` is
    unused there, and may be None.
    """
    _, init_ss, rounds_ss = np.random.SeedSequence(seed).spawn(3)
    model = MlpModel(dataset.n_features, fl.hidden, dataset.n_classes)
    w = model.init_params(np.random.default_rng(init_ss))
    adam = AdamMoments.zeros(fl.n_clients, model.n_params) if fl.optimizer == "adam" else None

    records: list[RoundRecord] = []
    for t, round_ss in enumerate(rounds_ss.spawn(fl.rounds), start=1):
        t0 = time.monotonic()
        ch_ss, noise_ss, batch_ss = round_ss.spawn(3)
        if fl.benchmark == "ideal":
            cohort = np.arange(fl.n_clients)
        else:
            best = select_ports(sample_port_gains(dep, fl.n_clients, fl.n_ports, ch_ss))
            cohort = ota.select_users(best, link)
        rec = RoundRecord(t, int(cohort.size), None, None, None, float("nan"))
        t_update = t_aggregate = time.monotonic()
        if cohort.size:
            stack, losses = local_update(model, dataset, shards, cohort, w, fl, batch_ss, adam)
            t_aggregate = time.monotonic()
            rec.train_loss = float(np.mean(losses))
            if fl.benchmark == "ideal":
                w, rec.mse = stack.mean(axis=0), 0.0
            else:
                outcome = ota.zf_power_control(best, cohort, link, model.n_params)
                rec.mse, rec.eta = outcome.realized_mse, outcome.eta
                rec.norm_scale = float(np.max(np.linalg.norm(stack, axis=1))) or 1.0
                estimate = ota.ota_aggregate(stack / rec.norm_scale, outcome, link, noise_ss)
                w = rec.norm_scale * estimate
            if not np.all(np.isfinite(w)):
                raise TrainingDivergedError(f"parameters went nonfinite at round {t}", records)
        t_eval = time.monotonic()
        rec.test_acc = model.accuracy(w, dataset.test_x, dataset.test_y)
        t_end = time.monotonic()
        rec.wall_time = t_end - t0
        rec.stage_s = (t_update - t0, t_aggregate - t_update, t_eval - t_aggregate, t_end - t_eval)
        records.append(rec)
    return records
