"""Data ingestion, model/gradient, and training-loop tests."""

import struct

import numpy as np
import pytest

from fluidfed import montecarlo, ota
from fluidfed.analytics import GainDistribution, qualify_probability
from fluidfed.channel import Clayton, Independent, PerfectDependence
from fluidfed.fedlearn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamMoments,
    FlConfig,
    MlpModel,
    TrainingDivergedError,
    ingest_mnist,
    local_update,
    partition_iid,
    run_training,
    synthesize_dataset,
    training_data,
)
from fluidfed.montecarlo import FAMILY_ALPHA
from fluidfed.ota import gain_threshold

# ------------------------------------------------------------------ idx


def _write_idx_images(path, images):
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 2051, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def _write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 2049, labels.size))
        fh.write(labels.astype(np.uint8).tobytes())


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(40, 4, 4), dtype=np.uint8)
    labels = rng.integers(0, 10, size=40, dtype=np.uint8)
    ip, lp = tmp_path / "img", tmp_path / "lab"
    _write_idx_images(ip, images)
    _write_idx_labels(lp, labels)
    ds = ingest_mnist(ip, lp, split=0.75, rng=1)
    assert ds.train_x.shape == (30, 16)
    assert ds.test_x.shape == (10, 16)
    assert ds.train_x.max() <= 1.0 and ds.train_x.min() >= 0.0
    # every pixel value is recoverable: x * 255 returns integers
    assert np.allclose(np.round(ds.train_x * 255), ds.train_x * 255)
    # the shuffle keeps image-label pairs together
    all_x = np.vstack([ds.train_x, ds.test_x])
    all_y = np.concatenate([ds.train_y, ds.test_y])
    flat = images.reshape(40, 16) / 255.0
    for xi, yi in zip(all_x[:10], all_y[:10]):
        matches = np.where((flat == xi).all(axis=1))[0]
        assert labels[matches[0]] == yi


def test_idx_bad_magic(tmp_path):
    p = tmp_path / "bad"
    with open(p, "wb") as fh:
        fh.write(struct.pack(">IIII", 1234, 1, 2, 2))
        fh.write(bytes(4))
    with pytest.raises(ValueError, match="magic"):
        ingest_mnist(p, p)


def test_idx_truncated_and_count_mismatch(tmp_path):
    short = tmp_path / "short"
    short.write_bytes(b"\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        ingest_mnist(short, short)
    # header says 5 images but body has pixels for 4
    liar = tmp_path / "liar"
    with open(liar, "wb") as fh:
        fh.write(struct.pack(">IIII", 2051, 5, 2, 2))
        fh.write(bytes(16))
    labs = tmp_path / "labs"
    _write_idx_labels(labs, np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError, match="expected 20 pixels"):
        ingest_mnist(liar, labs)


def test_idx_label_count_must_match_images(tmp_path):
    rng = np.random.default_rng(3)
    ip, lp = tmp_path / "i", tmp_path / "l"
    _write_idx_images(ip, rng.integers(0, 255, (6, 2, 2), dtype=np.uint8))
    _write_idx_labels(lp, np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError, match="label count"):
        ingest_mnist(ip, lp)


def test_idx_needs_a_training_and_a_test_image(tmp_path):
    ip, lp = tmp_path / "i", tmp_path / "l"
    _write_idx_images(ip, np.zeros((1, 2, 2), dtype=np.uint8))
    _write_idx_labels(lp, np.zeros(1, dtype=np.uint8))
    with pytest.raises(ValueError, match="^mnist_images .* holds 1 images, fewer than 2$"):
        ingest_mnist(ip, lp)


# ------------------------------------------------------------- synthetic


def test_synthetic_is_separable_at_wide_separation():
    ds = synthesize_dataset(classes=2, dims=4, samples=3000, rng=0, separation=10.0)
    # nearest-class-mean classification should be essentially perfect
    means = np.stack([ds.train_x[ds.train_y == c].mean(axis=0) for c in (0, 1)])
    d = ((ds.test_x[:, None, :] - means[None]) ** 2).sum(axis=2)
    acc = (d.argmin(axis=1) == ds.test_y).mean()
    assert acc > 0.99


def test_synthetic_validation_and_split():
    with pytest.raises(ValueError):
        synthesize_dataset(classes=1)
    with pytest.raises(ValueError):
        synthesize_dataset(classes=5, dims=3)
    ds = synthesize_dataset(samples=100, split=0.8, rng=2)
    assert ds.train_x.shape[0] == 80 and ds.test_x.shape[0] == 20
    assert ds.n_classes == 3


def test_synthetic_class_means_are_centered():
    ds = synthesize_dataset(classes=4, dims=8, samples=40000, rng=5, separation=5.0)
    grand = np.vstack([ds.train_x, ds.test_x]).mean(axis=0)
    assert np.abs(grand).max() < 0.15


def test_partition_sizes_differ_by_at_most_one():
    ds = synthesize_dataset(samples=103, rng=0)
    index, sizes = partition_iid(ds, 7, rng=1)
    n = ds.train_x.shape[0]
    assert index.shape == (7, sizes.max()) and sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1
    # the shards are np.array_split of one permutation, and disjoint:
    # every training row appears exactly once
    order = np.random.default_rng(1).permutation(n)
    for k, shard in enumerate(np.array_split(order, 7)):
        assert np.array_equal(index[k, : sizes[k]], shard)
    used = index[np.arange(index.shape[1]) < sizes[:, None]]
    assert np.array_equal(np.sort(used), np.arange(n))


def test_partition_more_clients_than_samples_raises():
    ds = synthesize_dataset(samples=10, split=0.5, rng=0)
    with pytest.raises(ValueError):
        partition_iid(ds, 50, rng=0)


# ----------------------------------------------------------------- model


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(42)
    model = MlpModel(n_inputs=5, n_hidden=7, n_classes=3)
    w = model.init_params(rng) + 0.01 * rng.standard_normal(model.n_params)
    x = rng.standard_normal((12, 5))[None]
    y = rng.integers(0, 3, size=12)[None]
    grad = model.loss_and_grad(w, x, y)[1][0]
    eps = 1e-6
    probes = rng.choice(model.n_params, size=60, replace=False)
    for i in probes:
        wp, wm = w.copy(), w.copy()
        wp[i] += eps
        wm[i] -= eps
        lp = model.loss_and_grad(wp, x, y)[0][0]
        lm = model.loss_and_grad(wm, x, y)[0][0]
        fd = (lp - lm) / (2 * eps)
        denom = max(abs(fd), abs(grad[i]), 1e-8)
        assert abs(grad[i] - fd) / denom < 1e-5, i


def test_param_vector_layout_roundtrip():
    model = MlpModel(4, 3, 2)
    assert model.n_params == 4 * 3 + 3 + 3 * 2 + 2
    w = np.arange(model.n_params, dtype=float)
    w1, b1, w2, b2 = model.unpack(w)
    assert w1.shape == (4, 3) and b1.shape == (3,)
    assert w2.shape == (3, 2) and b2.shape == (2,)
    assert w1[0, 0] == 0.0 and b2[-1] == w.size - 1


def test_loss_decreases_under_plain_gradient_steps():
    rng = np.random.default_rng(7)
    model = MlpModel(6, 8, 3)
    x = rng.standard_normal((64, 6))[None]
    y = rng.integers(0, 3, size=64)[None]
    w = model.init_params(rng)
    losses = []
    for _ in range(60):
        loss, grad = model.loss_and_grad(w, x, y)
        losses.append(loss[0])
        w = w - 0.5 * grad[0]
    assert losses[-1] < losses[0] * 0.7


def test_sgd_local_update_is_one_explicit_step():
    rng = np.random.default_rng(3)
    model = MlpModel(4, 5, 2)
    ds = synthesize_dataset(classes=2, dims=4, samples=50, rng=0)
    shards = partition_iid(ds, 2, rng=0)
    cfg = FlConfig(optimizer="sgd", lr=0.2, batch_size=8, classes=2, dims=4)
    w0 = model.init_params(rng)
    w1, loss = local_update(model, ds, shards, np.array([1]), w0, cfg, 99)
    assert w1.shape == (1, model.n_params) and loss.shape == (1,)
    # replay the key draw for both clients and apply w - lr*g by hand
    shard = np.array_split(np.random.default_rng(0).permutation(ds.train_x.shape[0]), 2)[1]
    keys = np.random.default_rng(99).random((2, shards[0].shape[1]))
    batch = shard[np.sort(np.argsort(keys[1, : shard.size])[:8])]
    ref_loss, g = model.loss_and_grad(w0, ds.train_x[batch][None], ds.train_y[batch][None])
    assert loss[0] == ref_loss[0]
    assert np.array_equal(w1[0], w0 - 0.2 * g[0])


def _reference_loss_and_grad(model, w, x, y):
    # one client, written out on its own (b, in) batch
    w1, b1, w2, b2 = model.unpack(w)
    n = x.shape[0]
    z1 = x @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w2 + b2
    shift = z2 - z2.max(axis=1, keepdims=True)
    log_probs = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
    loss = -float(log_probs[np.arange(n), y].mean())
    dz2 = np.exp(log_probs)
    dz2[np.arange(n), y] -= 1.0
    dz2 /= n
    dz1 = (dz2 @ w2.T) * (z1 > 0)
    grad = np.concatenate(
        [(x.T @ dz1).ravel(), dz1.sum(axis=0), (a1.T @ dz2).ravel(), dz2.sum(axis=0)]
    )
    return loss, grad


def _reference_local_update(model, x, y, w_global, cfg, keys, state):
    # one client's round on its own unpadded shard rows ``x``, ``y``, with
    # ``keys`` its (steps, max shard) rows of the key draws; ``state`` holds
    # its Adam m, v and step count
    w = w_global.copy()
    first_loss = None
    n = x.shape[0]
    for step in range(cfg.local_steps):
        batch = np.sort(np.argsort(keys[step, :n])[: min(cfg.batch_size, n)])
        loss, grad = _reference_loss_and_grad(model, w, x[batch], y[batch])
        first_loss = loss if first_loss is None else first_loss
        if cfg.optimizer == "sgd":
            w = w - cfg.lr * grad
            continue
        state["step"] += 1
        state["m"] = ADAM_BETA1 * state["m"] + (1 - ADAM_BETA1) * grad
        state["v"] = ADAM_BETA2 * state["v"] + (1 - ADAM_BETA2) * grad**2
        m_hat = state["m"] / (1 - ADAM_BETA1 ** state["step"])
        v_hat = state["v"] / (1 - ADAM_BETA2 ** state["step"])
        w = w - cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return w, first_loss


def test_cohort_loss_and_grad_slices_equal_single_client_calls():
    rng = np.random.default_rng(8)
    model = MlpModel(6, 9, 4)
    x = rng.standard_normal((5, 11, 6))
    y = rng.integers(0, 4, size=(5, 11))
    shared = model.init_params(rng)
    stacked = shared + 0.1 * rng.standard_normal((5, model.n_params))
    for w in (shared, stacked):
        loss, grad = model.loss_and_grad(w, x, y)
        assert loss.shape == (5,) and grad.shape == (5, model.n_params)
        for j in range(5):
            wj = w if w.ndim == 1 else w[j]
            ref_loss, ref_grad = _reference_loss_and_grad(model, wj, x[j], y[j])
            assert loss[j] == ref_loss
            assert np.array_equal(grad[j], ref_grad)
            # an S = 1 stack gives the same slice
            one_loss, one_grad = model.loss_and_grad(wj, x[j][None], y[j][None])
            assert one_loss.shape == (1,) and one_loss[0] == ref_loss
            assert np.array_equal(one_grad[0], ref_grad)


def _ragged_clients():
    # 49 training rows in shards of 10, 10, 9, 9, 9, each also cut out on
    # its own from the same permutation, without the index matrix
    ds = synthesize_dataset(classes=3, dims=4, samples=52, rng=2)
    shards = partition_iid(ds, 5, rng=3)
    own = np.array_split(np.random.default_rng(3).permutation(ds.train_x.shape[0]), 5)
    assert [rows.size for rows in own] == [10, 10, 9, 9, 9]
    return ds, shards, own


@pytest.mark.parametrize(
    "optimizer, local_steps, batch_size",
    [
        ("adam", 1, 8),
        ("adam", 3, 8),
        ("sgd", 1, 8),
        ("sgd", 3, 8),
        # shards of 10, 10, 9, 9, 9 rows: one cohort holds two batch lengths
        ("adam", 3, 10),
        ("sgd", 1, 10),
        ("adam", 1, 50),
        ("sgd", 3, 50),
    ],
)
def test_cohort_update_equals_per_client_loop_bitwise(optimizer, local_steps, batch_size):
    model = MlpModel(4, 6, 3)
    ds, shards, own = _ragged_clients()
    cfg = FlConfig(optimizer=optimizer, local_steps=local_steps, batch_size=batch_size,
                   lr=0.05, classes=3, dims=4)
    w = model.init_params(np.random.default_rng(4))
    adam = AdamMoments.zeros(5, model.n_params)
    states = [{"m": 0.0, "v": 0.0, "step": 0} for _ in own]
    # changing cohorts, the whole population among them, so Adam state is
    # gathered from and scattered back to the stacks across 12 steps
    cohorts = [[0, 2, 3], [1, 2], [0, 1, 2, 3, 4], [4], [0, 3, 4], [0, 1, 2, 3, 4]]
    for r, cohort in enumerate(cohorts):
        new_w, losses = local_update(model, ds, shards, np.array(cohort), w, cfg, r, adam)
        gen = np.random.default_rng(r)
        keys = np.stack([gen.random((5, 10)) for _ in range(local_steps)])
        for j, k in enumerate(cohort):
            ref_w, ref_loss = _reference_local_update(
                model, ds.train_x[own[k]], ds.train_y[own[k]], w, cfg, keys[:, k], states[k]
            )
            assert np.array_equal(new_w[j], ref_w), (r, k)
            assert losses[j] == ref_loss, (r, k)
        w = new_w.mean(axis=0)
    if optimizer == "adam":
        for k, state in enumerate(states):
            assert np.array_equal(adam.m[k], np.broadcast_to(state["m"], adam.m[k].shape))
            assert np.array_equal(adam.v[k], np.broadcast_to(state["v"], adam.v[k].shape))
            assert adam.steps[k] == state["step"]


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_client_update_does_not_depend_on_its_cohort(optimizer):
    model = MlpModel(4, 6, 3)
    ds, shards, _ = _ragged_clients()
    cfg = FlConfig(optimizer=optimizer, local_steps=3, batch_size=8, lr=0.05, classes=3, dims=4)
    w = model.init_params(np.random.default_rng(4))
    for k in range(5):
        alone_w, alone_loss = local_update(model, ds, shards, np.array([k]), w, cfg, 7)
        for cohort in ([k, (k + 1) % 5], list(range(5)), sorted({0, 2, 4, k})):
            cohort_w, losses = local_update(model, ds, shards, np.array(cohort), w, cfg, 7)
            j = cohort.index(k)
            assert np.array_equal(cohort_w[j], alone_w[0]), (k, cohort)
            assert losses[j] == alone_loss[0], (k, cohort)


def test_gradient_vanishes_at_symmetric_origin():
    model = MlpModel(2, 2, 2)
    # identical inputs with both labels: at w = 0 every logit is 0, the
    # softmax residuals cancel in pairs and the gradient is exactly zero
    x = np.array([[[1.0, 0.0], [1.0, 0.0]]])
    y = np.array([[0, 1]])
    w = np.zeros(model.n_params)
    _, g = model.loss_and_grad(w, x, y)
    assert np.allclose(g, 0.0, atol=1e-15)


# -------------------------------------------------------------- training


def _quiet_link():
    # effectively noiseless, threshold ~ 0: everyone always participates
    return ota.OtaConfig(p_max=1.0, sigma2=1e-12, tau=1e6)


def _train(fl, link, dep, seed):
    return run_training(fl, link, dep, *training_data(fl, seed), seed=seed)


def test_noiseless_full_participation_matches_plain_fedavg():
    import dataclasses

    fl = FlConfig(n_clients=5, rounds=3, samples=400, classes=2, dims=4)
    # sigma2 so small the additive noise is swallowed by float rounding
    link = ota.OtaConfig(p_max=1.0, sigma2=1e-300, tau=1e6)
    ideal = _train(
        dataclasses.replace(fl, benchmark="ideal"), link, Independent(), seed=4
    )
    noisy = _train(fl, link, Independent(), seed=4)
    assert [r.participants for r in noisy] == [5, 5, 5]
    for a, b in zip(ideal, noisy):
        # identical client streams and batches; the two aggregation paths
        # compute the same mean in a different operation order, so the
        # trajectories agree to float rounding (not bit-for-bit)
        assert a.train_loss == pytest.approx(b.train_loss, rel=1e-12)
        assert a.test_acc == pytest.approx(b.test_acc, abs=0.01)
    assert ideal[0].mse == 0.0 and ideal[0].eta is None


def test_training_is_deterministic_given_seed():
    fl = FlConfig(n_clients=4, rounds=4, samples=300, classes=2, dims=4)
    link = ota.OtaConfig(p_max=0.01, sigma2=1e-3, tau=0.5)
    a = _train(fl, link, Clayton(2.0), seed=11)
    b = _train(fl, link, Clayton(2.0), seed=11)
    assert len(a) == len(b) == 4
    for ra, rb in zip(a, b):
        assert ra.round == rb.round
        assert ra.participants == rb.participants
        assert ra.mse == rb.mse
        assert ra.test_acc == rb.test_acc
    c = _train(fl, link, Clayton(2.0), seed=12)
    assert any(ra.test_acc != rc.test_acc for ra, rc in zip(a, c))


def test_impossible_threshold_skips_every_round():
    fl = FlConfig(n_clients=3, rounds=3, samples=200, classes=2, dims=4)
    # threshold = sigma2/(tau*p_max) = 1e9: nobody ever qualifies
    link = ota.OtaConfig(p_max=1.0, sigma2=1.0, tau=1e-9)
    records = _train(fl, link, PerfectDependence(), seed=0)
    assert [r.participants for r in records] == [0, 0, 0]
    assert all(r.mse is None and r.eta is None for r in records)
    # the model never moves, so accuracy is frozen at its initial value
    assert len({r.test_acc for r in records}) == 1


def test_training_participation_matches_the_closed_form():
    # rounds and clients draw independent channels, so one variant's total
    # participant count is Binomial(K*T, q) with q the closed-form
    # qualify_probability; exact two-sided tests, Bonferroni over variants
    fl = FlConfig(n_clients=40, rounds=50, samples=100, classes=2, dims=2, hidden=2,
                  batch_size=2)
    link = ota.OtaConfig(p_max=0.01, sigma2=1e-3, tau=0.05)
    data = training_data(fl, 0)
    trials = fl.n_clients * fl.rounds
    variants = (Independent(), Clayton(2.0), PerfectDependence())
    alpha = FAMILY_ALPHA / len(variants)
    for dep in variants:
        count = sum(r.participants for r in run_training(fl, link, dep, *data, seed=0))
        dist = GainDistribution(fl.n_ports, dep)
        q = qualify_probability(dist, gain_threshold(link))
        assert montecarlo._p_values(count, trials, q) > alpha, (dep, count, q)
        # power: the same count rejects the law at twice the threshold
        q_wrong = qualify_probability(dist, 2 * gain_threshold(link))
        assert montecarlo._p_values(count, trials, q_wrong) <= alpha, (dep, count, q_wrong)


def test_divergence_raises_with_partial_records():
    # an enormous learning rate forces the loss to explode within a few
    # rounds; records collected so far ride along on the exception
    fl = FlConfig(
        n_clients=2,
        rounds=50,
        samples=200,
        classes=2,
        dims=4,
        optimizer="sgd",
        lr=1e6,
        separation=1e3,
    )
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as err:
        _train(fl, _quiet_link(), Independent(), seed=0)
    assert isinstance(err.value.records, list)
    assert len(err.value.records) < 50


def test_training_accuracy_improves_on_easy_task():
    fl = FlConfig(n_clients=5, rounds=20, samples=1000, classes=3, dims=16)
    records = _train(fl, _quiet_link(), Independent(), seed=1)
    assert records[-1].test_acc > 0.95
    assert records[-1].test_acc > records[0].test_acc


def test_config_validation():
    with pytest.raises(ValueError):
        FlConfig(optimizer="rmsprop")
    with pytest.raises(ValueError):
        FlConfig(benchmark="oracle")
    with pytest.raises(ValueError):
        FlConfig(data="cifar")
    with pytest.raises(ValueError):
        FlConfig(rounds=0)
    with pytest.raises(ValueError):
        FlConfig(data="mnist")
