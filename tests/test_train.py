import dataclasses
import re
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from oxcim.data import synthetic_dataset
from oxcim.errors import ConfigError, DomainError, ShapeError, TrainingDiverged
from oxcim.network import (Activation, Conv2D, Dense, MaxPool2D,
                           NetworkDescription, conv_weight_matrix,
                           forward_ideal, lenet, maxpool, walk)
from oxcim.quant import Precision
from oxcim.train import (BLOCK_BYTES, EVAL_BATCH, TrainConfig, Trainer, train,
                         _blocks, _conv_blocks, _conv_weight_gradient,
                         _encode_batch, _patch_rows, _unpool)
from conftest import patches
from test_golden import GOLDEN_TRAIN_RUN


def small_arch(precision=Precision.TERNARY, r=0.5):
    """Reduced conv net over the full 8x32x32 input; fast to train."""
    hid = "ternary" if precision is Precision.TERNARY else "binary"
    layers = [
        Conv2D(4, 5, stride=2), Activation(hid, r), MaxPool2D(2),
        Dense(32), Activation(hid, r),
        Dense(10), Activation("sigmoid_output"),
    ]
    return NetworkDescription(precision, (8, 32, 32), layers,
                              [None] * len(layers))


class TestTrainConfig:
    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_batch_size_below_one_rejected(self, batch_size):
        with pytest.raises(ConfigError, match="batch size"):
            TrainConfig(batch_size=batch_size)

    @pytest.mark.parametrize("val_fraction", [-0.1, 1.0, 1.5, float("nan")])
    def test_val_fraction_outside_unit_interval_rejected(self, val_fraction):
        with pytest.raises(ConfigError, match="val fraction"):
            TrainConfig(val_fraction=val_fraction)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one_rejected(self, epochs):
        with pytest.raises(ConfigError, match="epochs"):
            TrainConfig(epochs=epochs)

    @pytest.mark.parametrize("lr", [-1.0, -1e-9, float("nan"), float("inf")])
    def test_negative_or_non_finite_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="learning rate"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("weight_r", [0.0, -0.5, 1.0, 1.5, float("nan"),
                                          float("inf")])
    def test_weight_r_outside_open_unit_interval_rejected(self, weight_r):
        with pytest.raises(ConfigError, match="weight r"):
            TrainConfig(weight_r=weight_r)

    @pytest.mark.parametrize("field, what", [("lr", "learning rate"),
                                             ("weight_r", "weight r"),
                                             ("val_fraction", "val fraction")])
    @pytest.mark.parametrize("value", ["0.1", None, True])
    def test_non_real_hyperparameters_rejected(self, field, what, value):
        # "0.1" and None used to end in a TypeError, and lr=True trained
        with pytest.raises(ConfigError, match=f"{what} must be a real number"):
            TrainConfig(**{field: value})

    def test_lr_beyond_the_largest_float_rejected(self):
        # an int too large for a float used to end in a TypeError
        with pytest.raises(ConfigError, match="learning rate must be finite"):
            TrainConfig(lr=10 ** 400)

    def test_lr_too_long_to_print_rejected(self):
        # str() refuses an int of 4,300 digits: the message used to end in
        # Python's ValueError
        with pytest.raises(ConfigError, match="integer of 16610 bits"):
            TrainConfig(lr=10 ** 5000)

    def test_negative_seed_rejected(self):
        # numpy's generator takes no negative seed
        with pytest.raises(ConfigError, match="training seed"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("field, what", [("epochs", "epochs"),
                                             ("batch_size", "batch size"),
                                             ("seed", "training seed")])
    @pytest.mark.parametrize("value", [1.0, 2.5, float("nan"), True])
    def test_non_integer_counts_rejected(self, field, what, value):
        # a float would reach range() or the generator as a TypeError
        with pytest.raises(ConfigError, match=f"{what} must be an integer"):
            TrainConfig(**{field: value})


    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("seed", -1), ("epochs", 1.5), ("epochs", 0)])
    def test_a_config_cannot_change_after_its_check(self, field, value):
        # each value, set after construction, used to reach training
        # unchecked: range() or numpy refused it, or no epoch ran
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
        assert cfg == TrainConfig()


class TestLabelChecks:
    """Labels are integers in [0, output width), one per image."""

    @pytest.fixture(scope="class")
    def store(self):
        return synthetic_dataset(n_train=24, n_test=4, seed=2)

    @pytest.mark.parametrize("form, error", [
        ("list", DomainError),    # ended in an AttributeError on .shape
        ("int64", DomainError),   # was trained on
        ("single", ShapeError)],  # one 28x28 image was read as 28 images
        ids=["list", "int64", "single"])
    def test_images_checked_by_fit_and_evaluate_loss(self, store, form,
                                                      error):
        images = {"list": store.train_images.tolist(),
                  "int64": store.train_images.astype(np.int64),
                  "single": store.train_images[0]}[form]
        labels = np.arange(len(images)) % 10
        trainer = Trainer(small_arch(), TrainConfig(epochs=1, seed=1))
        for call in (trainer.fit, trainer.evaluate_loss):
            with pytest.raises(error, match="uint8|n, H, W"):
                call(images, labels)

    def test_negative_label_rejected_by_loss_and_grads(self, store):
        # -1 would index the last output and be read as class 9
        trainer = Trainer(small_arch(), TrainConfig(seed=1))
        x = _encode_batch(store.train_images[:4])
        with pytest.raises(DomainError, match="0..9"):
            trainer.loss_and_grads(x, [-1, 0, 1, 2])

    @pytest.mark.parametrize("precision, bad", [
        (Precision.TERNARY, 0.5), (Precision.TERNARY, 7),
        (Precision.BINARY, 0)])
    def test_inputs_outside_the_precision_rejected_by_loss_and_grads(
            self, store, precision, bad):
        # used to train on them, as forward_ideal would not have run them
        trainer = Trainer(small_arch(precision), TrainConfig(seed=1))
        x = _encode_batch(store.train_images[:2]).astype(type(bad))
        x[1, 3, 16, 16] = bad
        with pytest.raises(DomainError, match="not allowed"):
            trainer.loss_and_grads(x, store.train_labels[:2])

    def test_input_shape_checked_by_loss_and_grads(self, store):
        trainer = Trainer(small_arch(), TrainConfig(seed=1))
        x = _encode_batch(store.train_images[:2])[:, :, :30, :30]
        with pytest.raises(ShapeError, match="input shape"):
            trainer.loss_and_grads(x, store.train_labels[:2])

    @pytest.mark.parametrize("bad", [10, 255])
    def test_label_past_output_width_rejected_by_train(self, store, bad):
        labels = store.train_labels.copy()
        labels[5] = bad  # would end in an IndexError
        with pytest.raises(DomainError, match="0..9"):
            train(small_arch(), store.train_images, labels,
                  TrainConfig(epochs=1, batch_size=8))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
    def test_non_integer_labels_rejected_by_train(self, store, dtype):
        with pytest.raises(DomainError, match="integers"):
            train(small_arch(), store.train_images,
                  store.train_labels.astype(dtype),
                  TrainConfig(epochs=1, batch_size=8))

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_label_count_off_by_one_rejected_by_train(self, store, extra):
        n = len(store.train_images)
        labels = np.resize(store.train_labels, n + extra)
        with pytest.raises(ShapeError, match="one label per image"):
            train(small_arch(), store.train_images, labels,
                  TrainConfig(epochs=1, batch_size=8))

    def test_label_count_off_by_one_rejected_by_loss_and_grads(self, store):
        trainer = Trainer(small_arch(), TrainConfig(seed=1))
        x = _encode_batch(store.train_images[:4])
        with pytest.raises(ShapeError, match="one label per image"):
            trainer.loss_and_grads(x, store.train_labels[:3])

    def test_label_list_accepted_by_train(self, store):
        cfg = TrainConfig(epochs=1, batch_size=8, seed=3)
        as_array = train(small_arch(), store.train_images,
                         store.train_labels, cfg)
        as_list = train(small_arch(), store.train_images,
                        [int(v) for v in store.train_labels], cfg)
        assert as_list.loss_curve == as_array.loss_curve

    def test_empty_batch_rejected_by_loss_and_grads(self, store):
        # the walk would end in numpy's ValueError from a reshape
        trainer = Trainer(small_arch(), TrainConfig(seed=1))
        x = _encode_batch(store.train_images[:0])
        with pytest.raises(ShapeError, match="no images"):
            trainer.loss_and_grads(x, store.train_labels[:0])

    def test_empty_validation_set_rejected_by_evaluate_loss(self, store):
        # a mean over no images used to come back as 0.0
        trainer = Trainer(small_arch(), TrainConfig(seed=1))
        with pytest.raises(ShapeError, match="no images"):
            trainer.evaluate_loss(store.train_images[:0],
                                  store.train_labels[:0])

    def test_label_count_checked_against_all_images_by_evaluate_loss(self):
        # checked per chunk, 257 labels for 300 images were reported as
        # "labels of shape (1,) for 44 images"
        store = synthetic_dataset(n_train=300, n_test=4, seed=2)
        trainer = Trainer(small_arch(), TrainConfig(seed=1))
        with pytest.raises(ShapeError,
                           match=r"labels of shape \(257,\) for 300 images"):
            trainer.evaluate_loss(store.train_images,
                                  store.train_labels[:257])

    def test_no_training_images_left_rejected(self, store):
        # 4 images at val fraction 0.9 hold out all 4: no batch would run
        with pytest.raises(ShapeError, match="none to train on"):
            train(small_arch(), store.train_images[:4],
                  store.train_labels[:4],
                  TrainConfig(epochs=1, batch_size=8, val_fraction=0.9))


class TestEntryPointArguments:
    """train() and Trainer refuse a wrong type with a ConfigError before
    any work (each ended in an AttributeError or a TypeError)."""

    @pytest.fixture(scope="class")
    def store(self):
        return synthetic_dataset(n_train=24, n_test=4, seed=2)

    @pytest.fixture
    def no_training(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("trained before the argument check")
        monkeypatch.setattr(Trainer, "loss_and_grads", refuse)
        monkeypatch.setattr(Trainer, "evaluate_loss", refuse)

    @pytest.mark.parametrize("cfg", [{"epochs": 1}, 0, "cfg"],
                             ids=["dict", "zero", "str"])
    def test_config_that_is_not_a_train_config_rejected(self, store, cfg,
                                                        no_training):
        with pytest.raises(ConfigError, match="not a TrainConfig"):
            Trainer(small_arch(), cfg)
        with pytest.raises(ConfigError, match="not a TrainConfig"):
            train(small_arch(), store.train_images, store.train_labels, cfg)

    @pytest.mark.parametrize("template", ["lenet", None, "layers"])
    def test_template_that_is_not_a_network_description_rejected(
            self, store, template, no_training):
        if template == "layers":
            template = small_arch().layers
        with pytest.raises(ConfigError, match="not a NetworkDescription"):
            Trainer(template)
        with pytest.raises(ConfigError, match="not a NetworkDescription"):
            train(template, store.train_images, store.train_labels)

    @pytest.mark.parametrize("log_fn", ["print", 0, [print]],
                             ids=["str", "zero", "list"])
    def test_log_fn_that_is_not_callable_rejected(self, store, log_fn,
                                                  no_training):
        with pytest.raises(ConfigError, match="log_fn is not callable"):
            train(small_arch(), store.train_images, store.train_labels,
                  TrainConfig(epochs=1), log_fn=log_fn)


class TestTrainerMechanics:
    def test_zero_learning_rate_keeps_weights(self):
        store = synthetic_dataset(n_train=64, n_test=10, seed=1)
        cfg = TrainConfig(epochs=1, batch_size=32, lr=0.0, seed=2,
                          val_fraction=0.0)
        trainer = Trainer(small_arch(), cfg)
        before = [p.copy() for p in trainer.params]
        trainer.fit(store.train_images, store.train_labels)
        for b, a in zip(before, trainer.params):
            np.testing.assert_array_equal(b, a)

    def test_divergence_aborts(self):
        store = synthetic_dataset(n_train=64, n_test=10, seed=1)
        trainer = Trainer(small_arch(), TrainConfig(epochs=1, batch_size=32,
                                                    seed=2))
        trainer.params[0][:] = np.nan
        with pytest.raises(TrainingDiverged):
            trainer.fit(store.train_images, store.train_labels)

    def test_same_seed_same_result(self):
        store = synthetic_dataset(n_train=128, n_test=10, seed=1)
        cfg = TrainConfig(epochs=1, batch_size=32, seed=5)
        r1 = train(small_arch(), store.train_images, store.train_labels, cfg)
        r2 = train(small_arch(), store.train_images, store.train_labels, cfg)
        for a, b in zip(r1.net.weights, r2.net.weights):
            if a is not None:
                np.testing.assert_array_equal(a.data, b.data)
        assert r1.loss_curve == r2.loss_curve

    @pytest.mark.parametrize("precision", list(Precision))
    def test_forward_preactivations_are_exact_popcounts(self, precision,
                                                        monkeypatch):
        # the float32 forward products must give float64 popcounts bit for bit
        trainer = Trainer(small_arch(precision), TrainConfig(seed=3))
        store = synthetic_dataset(n_train=16, n_test=1, seed=2)
        seen = []

        def spy_walk(net, x, preact, output, activate):
            def exact_preact(op, inputs):
                u = preact(op, inputs)
                k = net.parametric_indices().index(op.index)
                w = trainer.quantized_weights()[k].data.astype(np.int64)
                wmat = w if op.gather is None else w.reshape(len(w), -1).T
                pc = patches(op, inputs).astype(np.int64) @ wmat
                seen.append(u.dtype == np.float64 and np.array_equal(
                    u.reshape(pc.shape), pc / op.scale))
                return u
            return walk(net, x, exact_preact, output, activate)

        # sys.modules: the package's own name `train` is the function
        monkeypatch.setattr(sys.modules["oxcim.train"], "walk", spy_walk)
        trainer.loss_and_grads(_encode_batch(store.train_images),
                               store.train_labels)
        assert seen == [True] * len(trainer.params)

    def test_quantized_weights_are_valid_trits(self):
        trainer = Trainer(small_arch(Precision.BINARY))
        net = trainer.network()
        for i in net.parametric_indices():
            vals = set(np.unique(net.weights[i].data))
            assert vals <= {-1, 1}


class TestTrainingProgress:
    def test_sanity_run_improves_validation_loss(self, dataset):
        # one epoch on a 1000-image subset: val loss strictly below the
        # untrained baseline
        cfg = TrainConfig(epochs=1, batch_size=64, lr=2e-3, seed=4,
                          val_fraction=0.2)
        result = train(small_arch(), dataset.train_images[:1000],
                       dataset.train_labels[:1000], cfg)
        assert result.loss_curve[-1][2] < result.initial_val_loss

    def test_binary_and_ternary_both_learn(self, dataset):
        for precision in (Precision.BINARY, Precision.TERNARY):
            cfg = TrainConfig(epochs=1, batch_size=64, lr=2e-3, seed=6,
                              val_fraction=0.2)
            result = train(small_arch(precision), dataset.train_images[:800],
                           dataset.train_labels[:800], cfg)
            assert result.loss_curve[-1][2] < result.initial_val_loss

    def test_trained_ternary_uses_all_three_values(self, trained_tnn):
        vals = set()
        for i in trained_tnn.parametric_indices():
            vals |= set(np.unique(trained_tnn.weights[i].data))
        assert vals == {-1, 0, 1}

    def test_trained_binary_has_no_zeros(self, trained_bnn):
        for i in trained_bnn.parametric_indices():
            assert 0 not in np.unique(trained_bnn.weights[i].data)


def use_surrogate(monkeypatch):
    """Swap train's quantized forward for its clipped-identity surrogate, a
    differentiable net whose analytic gradients finite differences can
    check: weights and hidden activations are clipped, not quantized, and
    each product is a float64 patch-matrix product."""
    def preact(op, x, w):
        wmat = w if op.gather is None else conv_weight_matrix(w)
        u = np.asarray(patches(op, x), np.float64) @ wmat / op.scale
        o, *hw = op.out_shape
        return u.reshape(len(x), *hw, o)

    module = sys.modules["oxcim.train"]
    monkeypatch.setattr(module, "activate",
                        lambda op, u: np.clip(u, -1.0, 1.0))
    monkeypatch.setattr(module, "quantize_weights", lambda p, precision, r:
                        SimpleNamespace(data=np.clip(p, -1.0, 1.0)))
    monkeypatch.setattr(module, "exact_preact", preact)


class TestGradients:
    @staticmethod
    def check_surrogate_gradients(monkeypatch, arch, x_shape, n_classes):
        # latents kept well inside the clip range so the surrogate network
        # is smooth there
        use_surrogate(monkeypatch)
        trainer = Trainer(arch, TrainConfig(seed=8))
        for k, p in enumerate(trainer.params):
            trainer.params[k] = 0.4 * p  # keep |latent| well inside 1
        gen = np.random.default_rng(9)
        x = gen.choice([-1, 0, 1], size=x_shape).astype(np.int8)
        y = gen.integers(0, n_classes, size=x_shape[0])
        loss0, grads = trainer.loss_and_grads(x, y)
        # without the surrogate every gradient would be 0: each latent
        # here rounds to a 0 weight, and the quantized net is flat
        assert all(np.abs(g).max() > 1e-4 for g in grads)
        eps = 1e-6
        checked = 0
        for k, p in enumerate(trainer.params):
            flat = p.ravel()
            for idx in range(0, flat.size, max(1, flat.size // 10)):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp, _ = trainer.loss_and_grads(x, y)
                flat[idx] = orig - eps
                lm, _ = trainer.loss_and_grads(x, y)
                flat[idx] = orig
                fd = (lp - lm) / (2 * eps)
                an = grads[k].ravel()[idx]
                assert an == pytest.approx(fd, rel=1e-4, abs=1e-8)
                checked += 1
        assert checked >= 20

    def test_surrogate_gradients_match_finite_differences(self, monkeypatch):
        # two-layer dense net with 4 output classes
        arch = NetworkDescription(
            Precision.TERNARY, (1, 3, 3),
            [Dense(6), Activation("ternary"), Dense(4),
             Activation("sigmoid_output")],
            [None, None, None, None])
        self.check_surrogate_gradients(monkeypatch, arch, (5, 1, 3, 3), 4)

    def test_surrogate_gradients_through_convs_and_stacked_pools(
            self, monkeypatch):
        # a second conv routes its gradient back through col2im, and two
        # pools in a row route theirs back through each other's ties
        layers = [Conv2D(2, 3), Activation("ternary"),
                  Conv2D(3, 3), Activation("ternary"),
                  MaxPool2D(3), MaxPool2D(2),
                  Dense(4), Activation("sigmoid_output")]
        arch = NetworkDescription(Precision.TERNARY, (1, 10, 10), layers,
                                  [None] * len(layers))
        self.check_surrogate_gradients(monkeypatch, arch, (3, 1, 10, 10), 4)

    def test_ste_masks_zero_gradients_outside_clip(self):
        trainer = Trainer(small_arch(), TrainConfig(seed=10))
        trainer.params[0][:] = 1.5  # clip() keeps params in [-1,1] after
        # steps, but set out-of-range directly to observe the mask
        store = synthetic_dataset(n_train=32, n_test=4, seed=2)
        x = _encode_batch(store.train_images[:8])
        _, grads = trainer.loss_and_grads(x, store.train_labels[:8])
        np.testing.assert_array_equal(grads[0], np.zeros_like(grads[0]))


class TestForwardOnlyValidation:
    def test_backward_runs_once_per_training_batch_only(self, monkeypatch):
        store = synthetic_dataset(n_train=90, n_test=4, seed=3)
        cfg = TrainConfig(epochs=2, batch_size=16, val_fraction=0.2, seed=4)
        calls = {"loss_and_grads": 0, "backward": 0, "evaluate_loss": 0,
                 "backward_in_evaluate_loss": 0}
        inside_eval = []
        real = {name: getattr(Trainer, name)
                for name in ("loss_and_grads", "_backward", "evaluate_loss")}

        def loss_and_grads(self, *args, **kwargs):
            calls["loss_and_grads"] += 1
            return real["loss_and_grads"](self, *args, **kwargs)

        def backward(self, *args):
            calls["backward"] += 1
            calls["backward_in_evaluate_loss"] += bool(inside_eval)
            return real["_backward"](self, *args)

        def evaluate_loss(self, *args):
            calls["evaluate_loss"] += 1
            inside_eval.append(True)
            try:
                return real["evaluate_loss"](self, *args)
            finally:
                inside_eval.pop()

        monkeypatch.setattr(Trainer, "loss_and_grads", loss_and_grads)
        monkeypatch.setattr(Trainer, "_backward", backward)
        monkeypatch.setattr(Trainer, "evaluate_loss", evaluate_loss)
        train(small_arch(), store.train_images, store.train_labels, cfg)
        # 72 training images in batches of 16: 5 batches per epoch
        assert calls == {"loss_and_grads": 10, "backward": 10,
                         "evaluate_loss": 3, "backward_in_evaluate_loss": 0}

    def test_validation_loss_is_weighted_mean_of_training_losses(self):
        store = synthetic_dataset(n_train=EVAL_BATCH + 45, n_test=4, seed=5)
        images, labels = store.train_images, store.train_labels
        assert len(images) % EVAL_BATCH
        trainer = Trainer(small_arch(), TrainConfig(seed=6))
        total = 0.0
        for lo in range(0, len(images), EVAL_BATCH):
            x = _encode_batch(images[lo:lo + EVAL_BATCH])
            loss, _ = trainer.loss_and_grads(x, labels[lo:lo + EVAL_BATCH])
            total += loss * len(x)
        expect = total / len(images)
        assert trainer.evaluate_loss(images, labels).hex() == expect.hex()


LENET_CONV1 = lenet(Precision.TERNARY).plan[0]


def conv1_patch_bytes(batch, itemsize):
    """Bytes of a LeNet conv1 patch matrix of batch images."""
    return batch * LENET_CONV1.gather.shape[0] * LENET_CONV1.fan_in * itemsize


class TestBlockedWeightGradient:
    """_blocks splits a conv's patch columns into whole units that each fit
    in BLOCK_BYTES; the gradient keeps the one-product bits."""

    @pytest.mark.parametrize("batch", [1, 13, 14, 33, 41, 61, 64, 70])
    def test_blocks_match_one_float64_product_bit_for_bit(self, batch):
        # 1 and 13 images fit the budget: one product
        x, dpre = conv_gradient_case(LENET_CONV1, batch)
        spans = _conv_blocks(LENET_CONV1, batch)[0]
        channels = LENET_CONV1.in_shape[0]
        assert (len(spans) > 1) == (conv1_patch_bytes(batch, 8) > BLOCK_BYTES)
        assert all(s.start % channels == 0 and s.stop - s.start >= channels
                   for s in spans)
        expect = np.asarray(patches(LENET_CONV1, x), np.float64).T @ dpre
        assert_same_bits(conv_gradient(LENET_CONV1, x, dpre),
                         expect.T.reshape(LENET_CONV1.weight_shape))

    def test_uneven_blocks_are_tested(self):
        widths = {s.stop - s.start for batch in (33, 70)
                  for s in _conv_blocks(LENET_CONV1, batch)[0]}
        assert len(widths) > 1

    def test_float64_inputs_above_the_budget(self):
        # the windows keep x's dtype: float64 activations, as the gradient
        # tests' surrogate feeds conv2, pass the budget at 150 images too
        op = CONVS["lenet-conv2"]
        rng = np.random.default_rng(1)
        x = rng.choice([-1.0, 0.0, 1.0], size=(150, *op.in_shape))
        dpre = _patch_rows(rng.standard_normal((150, *op.out_shape)))
        p = np.asarray(patches(op, x), np.float64)
        assert p.nbytes > BLOCK_BYTES and len(_conv_blocks(op, 150)[0]) > 1
        assert_same_bits(conv_gradient(op, x, dpre),
                         (p.T @ dpre).T.reshape(op.weight_shape))

    def test_blocks_are_at_least_one_unit_long(self):
        assert [s.stop - s.start for s in _blocks(9, 10**12, 4)] == [4, 5]
        assert _blocks(3, 10**12, 4) == [slice(0, 3)]

    def test_golden_training_batch_crosses_the_budget(self):
        # the golden run's pin then covers the blocked path
        batch = int(re.search(r"batch_size=(\d+)", GOLDEN_TRAIN_RUN)[1])
        assert conv1_patch_bytes(batch, 8) > BLOCK_BYTES


def conv_op(in_channels, out_channels):
    """The 3x3 conv of a one-conv net over (in_channels, 12, 12) inputs."""
    layers = [Conv2D(out_channels, 3), Activation("ternary"), Dense(10),
              Activation("sigmoid_output")]
    return NetworkDescription(Precision.TERNARY, (in_channels, 12, 12),
                              layers, [None] * len(layers)).plan[0]


CONVS = {
    "lenet-conv1": LENET_CONV1,
    "lenet-conv2": lenet(Precision.TERNARY).plan[3],
    "small-stride2": small_arch().plan[0],
    "1ch-3x3": conv_op(1, 4),
    "2ch-3x3": conv_op(2, 3),
}


def conv_gradient_case(op, batch):
    """A conv's int8 input batch and (N*P, O) pre-activation gradient."""
    gen = np.random.default_rng(batch)
    x = gen.integers(-1, 2, size=(batch, *op.in_shape), dtype=np.int8)
    return x, _patch_rows(gen.standard_normal((batch, *op.out_shape)))


def conv_gradient(op, x, dpre):
    return _conv_weight_gradient(op, x, dpre,
                                 np.empty(_conv_blocks(op, len(x))[1]))


def assert_same_bits(got, expect):
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.uint64),
        np.ascontiguousarray(expect).view(np.uint64))


BATCHES = [1, 2, 4, 13, 24, 61, 64, 70, 130]


class TestConvWeightGradient:
    """A conv's weight gradient comes from windows of its input, in blocks
    of whole kernel positions, and has the bits of one output-major float64
    product of the patch matrix."""

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("conv", list(CONVS))
    def test_matches_the_patch_matrix_product_bit_for_bit(self, conv, batch):
        # 4 images: the fixture run's last batch; 13: one-kernel-row blocks
        # of conv2 fell under the small-matrix GEMM there.  The reference
        # sums the patch columns in the code's (kh, kw, c) order.
        op = CONVS[conv]
        o, c, k, _ = op.weight_shape
        x, dpre = conv_gradient_case(op, batch)
        got = conv_gradient(op, x, dpre)
        p = np.asarray(patches(op, x), np.float64)
        p = np.ascontiguousarray(p.reshape(-1, c, k, k).transpose(0, 2, 3, 1)) \
            .reshape(p.shape)
        expect = (dpre.T @ p).reshape(o, k, k, c).transpose(0, 3, 1, 2)
        assert got.shape == op.weight_shape
        assert_same_bits(got, expect)

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("conv",
                             ["lenet-conv1", "lenet-conv2", "small-stride2"])
    def test_trained_convs_keep_the_input_major_bits(self, conv, batch):
        # the gradients of the nets the fixtures and the benchmark train
        # equal P.T @ dpre too; 1- and 2-channel 3x3 convs round differently
        op = CONVS[conv]
        x, dpre = conv_gradient_case(op, batch)
        expect = (np.asarray(patches(op, x), np.float64).T @ dpre) \
            .T.reshape(op.weight_shape)
        assert_same_bits(conv_gradient(op, x, dpre), expect)

    def test_training_step_builds_no_patch_matrix(self, monkeypatch):
        # a patch matrix is an np.take of the input through the im2col
        # offsets (conftest.patches, the tests' own); a step takes none
        def refuse(*args, **kwargs):
            raise AssertionError("built a patch matrix")
        monkeypatch.setattr(np, "take", refuse)
        store = synthetic_dataset(n_train=8, n_test=4, seed=3)
        x = _encode_batch(store.train_images)
        for arch in (lenet(Precision.TERNARY), small_arch()):
            loss, grads = Trainer(arch, TrainConfig(seed=3)) \
                .loss_and_grads(x, store.train_labels)
            assert np.isfinite(loss) and all(np.isfinite(g).all()
                                             for g in grads)

    @pytest.mark.parametrize("batch", [70, 130])
    def test_kernel_position_blocks_fit_the_budget(self, batch):
        # a near-equal split of 25 positions into as many blocks as the
        # budget divides gave 5-position blocks of 17.6 MB at 70 images
        channels = LENET_CONV1.in_shape[0]
        column = conv1_patch_bytes(batch, 8) // LENET_CONV1.fan_in
        spans = _blocks(LENET_CONV1.fan_in, conv1_patch_bytes(batch, 8),
                        unit=channels)
        assert len(spans) > 1
        for s in spans:
            assert s.start % channels == 0 and s.stop % channels == 0
            assert BLOCK_BYTES / 3 <= (s.stop - s.start) * column \
                <= BLOCK_BYTES

    def test_one_output_conv_keeps_the_gemv_bits(self):
        # one output channel makes each block product a gemv, which sums 4
        # columns at a time; blocks on whole kernel positions of 3 channels
        # (9, 12, 9, ... columns) moved bits, blocks on lcm(3, 4) do not
        layers = [Conv2D(1, 5), Activation("ternary"), Dense(10),
                  Activation("sigmoid_output")]
        op = NetworkDescription(Precision.TERNARY, (3, 32, 32), layers,
                                [None] * len(layers)).plan[0]
        x, dpre = conv_gradient_case(op, 200)
        spans = _conv_blocks(op, 200)[0]
        assert len(spans) > 1 and all(s.start % 12 == 0 for s in spans)
        p = patches(op, x)  # int8, then columns in (kh, kw, c) order
        p = p.reshape(-1, 3, 5, 5).transpose(0, 2, 3, 1).reshape(p.shape)
        expect = (dpre.T @ np.asarray(p, np.float64)) \
            .reshape(1, 5, 5, 3).transpose(0, 3, 1, 2)
        assert_same_bits(conv_gradient(op, x, dpre), expect)

    def test_steps_share_one_held_block_buffer(self):
        # LeNet's conv2 and conv1 gradients fill one buffer, the size of
        # conv1's largest block, which the next step reuses and validation
        # releases
        store = synthetic_dataset(n_train=64, n_test=4, seed=7)
        trainer = Trainer(lenet(Precision.TERNARY), TrainConfig(seed=7))
        x = _encode_batch(store.train_images)
        trainer.loss_and_grads(x, store.train_labels)
        held = trainer._block
        assert held.nbytes == 8 * _conv_blocks(LENET_CONV1, 64)[1]
        trainer.loss_and_grads(x, store.train_labels)
        assert trainer._block is held
        trainer.evaluate_loss(store.test_images, store.test_labels)
        assert trainer._block.size == 0

    @pytest.mark.parametrize("batch", [64, 70, 130])
    def test_training_step_working_set_is_one_block_and_the_walk(self,
                                                                  batch):
        # no patch matrix: besides the one float64 block buffer, which the
        # first step allocates, a step holds per image the int8
        # channels-last copy of the conv1 input (8 KiB) and the float64
        # conv1 gradients of the walk (37 KiB each), about 190 KiB in all.
        # It traced 30.5, 29.9 and 44.7 MiB; a float64 copy of the whole
        # patch matrix took 99 MiB at 64 images.
        store = synthetic_dataset(n_train=batch, n_test=4, seed=7)
        x = _encode_batch(store.train_images)
        Trainer(lenet(Precision.TERNARY), TrainConfig(seed=7)) \
            .loss_and_grads(x, store.train_labels)  # warm caches
        trainer = Trainer(lenet(Precision.TERNARY), TrainConfig(seed=7))
        tracemalloc.start()
        try:
            trainer.loss_and_grads(x, store.train_labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= BLOCK_BYTES + batch * 2**18


class TestValidationLoss:
    def test_working_set_is_bounded(self):
        # the forward casts blocks of images to float32 row windows; a
        # patch matrix of all 256 images and its float32 copy peaked at
        # 65 MiB
        store = synthetic_dataset(n_train=EVAL_BATCH, n_test=4, seed=7)
        trainer = Trainer(lenet(Precision.TERNARY), TrainConfig(seed=7))
        trainer.evaluate_loss(store.train_images, store.train_labels)
        tracemalloc.start()
        try:
            trainer.evaluate_loss(store.train_images, store.train_labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20

    def test_held_block_buffer_leaves_validation_within_a_step(self):
        # a 64-image step, then validation on EVAL_BATCH images: the block
        # buffer the step holds would take the peak to 43 MiB
        batch = 64
        store = synthetic_dataset(n_train=EVAL_BATCH, n_test=4, seed=7)
        x = _encode_batch(store.train_images[:batch])
        warm = Trainer(lenet(Precision.TERNARY), TrainConfig(seed=7))
        warm.loss_and_grads(x, store.train_labels[:batch])
        warm.evaluate_loss(store.train_images, store.train_labels)
        trainer = Trainer(lenet(Precision.TERNARY), TrainConfig(seed=7))
        tracemalloc.start()
        try:
            trainer.loss_and_grads(x, store.train_labels[:batch])
            trainer.evaluate_loss(store.train_images, store.train_labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= BLOCK_BYTES + batch * 2**18


def unpool_reference(a, sizes, dval):
    """Each tie of a window takes (1.0 / tie count, as float64) * dval."""
    inputs = [a]
    for size in sizes:
        inputs.append(maxpool(inputs[-1], size))
    for x, pooled, s in reversed(list(zip(inputs, inputs[1:], sizes))):
        b, c, h, w = x.shape
        ties = (x.reshape(b, c, h // s, s, w // s, s)
                == pooled.reshape(b, c, h // s, 1, w // s, 1)) \
            .astype(np.float64)
        ties /= ties.sum(axis=(3, 5), keepdims=True)
        dval = (ties * dval.reshape(b, c, h // s, 1, w // s, 1)) \
            .reshape(b, c * h * w)
    return dval


class TestUnpool:
    @pytest.fixture(scope="class")
    def activations(self):
        # trits: most 2x2 windows tie; 2-, 3- and 4-way ties all occur
        gen = np.random.default_rng(11)
        a = gen.choice([-1.0, 0.0, 1.0], size=(3, 2, 12, 12))
        windows = a.reshape(3, 2, 6, 2, 6, 2)
        counts = (windows == maxpool(a, 2).reshape(3, 2, 6, 1, 6, 1)) \
            .sum(axis=(3, 5))
        assert {2, 3, 4} <= set(np.unique(counts))
        return a

    @pytest.mark.parametrize("sizes", [[2], [3], [2, 2], [3, 2], [2, 3]])
    def test_matches_float64_ties_bit_for_bit(self, activations, sizes):
        b, c, h, w = activations.shape
        n_out = c * (h // int(np.prod(sizes))) * (w // int(np.prod(sizes)))
        gen = np.random.default_rng(len(sizes) * 10 + sizes[0])
        dval = gen.standard_normal((b, n_out))
        # signed zeros, and subnormals whose share rounds to a signed zero
        dval.flat[::7] = 0.0
        dval.flat[1::7] = -0.0
        dval.flat[2::7] = -5e-324
        dval.flat[3::7] = 5e-324
        assert (dval < 0).any()
        got = _unpool(activations, sizes, dval)
        expect = unpool_reference(activations, sizes, dval)
        assert got.dtype == np.float64 and got.shape == expect.shape
        np.testing.assert_array_equal(got.view(np.uint64),
                                      expect.view(np.uint64))
        assert np.signbit(got).any() and (got == 0).any()


class TestTrainInferConsistency:
    def test_trainer_forward_matches_forward_ideal(self, dataset):
        # the trainer's batched forward and the inference engine must give
        # identical scores for identical quantized weights
        cfg = TrainConfig(epochs=1, batch_size=32, lr=2e-3, seed=12,
                          val_fraction=0.0)
        trainer = Trainer(small_arch(), cfg)
        trainer.fit(dataset.train_images[:256], dataset.train_labels[:256])
        net = trainer.network()
        x = _encode_batch(dataset.test_images[:16])
        # reuse the internal forward by asking for the loss pieces
        for i in range(8):
            scores = forward_ideal(net, x[i])
            assert scores.shape == (10,)
            # recompute via the trainer's path: probabilities before norm
            loss_i, _ = trainer.loss_and_grads(x[i:i + 1],
                                               dataset.test_labels[i:i + 1])
            p = scores / scores.sum()
            expect = -np.log(p[dataset.test_labels[i]] + 1e-12)
            assert loss_i == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("run", ["forward_ideal", "loss_and_grads"])
    def test_pools_read_c_ordered_conv_activations(self, monkeypatch, run):
        # the walk's conv activations used to keep the channels-last order
        # of the pre-activations, so each pool read strided across channels
        layouts = []

        def spy(x, size):
            layouts.append((x.shape, x.flags.c_contiguous))
            return maxpool(x, size)

        monkeypatch.setattr("oxcim.network.maxpool", spy)
        store = synthetic_dataset(n_train=8, n_test=1, seed=3)
        x = _encode_batch(store.train_images)
        trainer = Trainer(lenet(Precision.TERNARY), TrainConfig(seed=3))
        if run == "forward_ideal":
            forward_ideal(trainer.network(), x)
        else:
            trainer.loss_and_grads(x, store.train_labels)
        assert layouts == [((8, 6, 28, 28), True), ((8, 16, 10, 10), True)]
