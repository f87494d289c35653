import numpy as np
import pytest

from oxcim.bench import (ConfusionMatrix, ExperimentSpec, run_accuracy,
                         sweep_sense_distribution,
                         weight_conductance_histogram)
from oxcim.errors import ConfigError, DomainError, ShapeError
from oxcim.hardware import map_network_to_tiles, predict_hardware
from oxcim.network import predict_ideal
from oxcim.quant import Precision
from oxcim.train import TrainConfig
from test_network import tiny_net


@pytest.fixture(scope="module")
def trained_small_net(dataset):
    from oxcim.train import train
    from test_train import small_arch
    cfg = TrainConfig(epochs=1, batch_size=64, lr=2e-3, seed=31,
                      val_fraction=0.1)
    return train(small_arch(), dataset.train_images[:2000],
                 dataset.train_labels[:2000], cfg).net


class TestConfusionMatrix:
    def test_perfect_classifier_is_diagonal(self):
        truth = np.repeat(np.arange(10), 5)
        cm = ConfusionMatrix.from_predictions(truth, truth)
        assert 100.0 * np.trace(cm.counts) / cm.counts.sum() == 100.0
        assert np.all(np.diag(cm.counts) == 5)
        assert cm.counts.sum() == np.trace(cm.counts)

    def test_row_sums_conserve_counts(self):
        gen = np.random.default_rng(0)
        truth = gen.integers(0, 10, size=200)
        pred = gen.integers(0, 10, size=200)
        cm = ConfusionMatrix.from_predictions(truth, pred)
        np.testing.assert_array_equal(cm.counts.sum(axis=1),
                                      np.bincount(truth, minlength=10))
        assert cm.counts.sum() == 200

    def test_overall_is_trace_over_total(self):
        gen = np.random.default_rng(1)
        truth = gen.integers(0, 10, size=300)
        pred = np.where(gen.random(300) < 0.7, truth,
                        gen.integers(0, 10, size=300))
        cm = ConfusionMatrix.from_predictions(truth, pred)
        assert 100.0 * np.trace(cm.counts) / cm.counts.sum() == pytest.approx(
            100.0 * np.mean(truth == pred))


    def test_prediction_count_must_match_truth(self):
        # one prediction used to be broadcast against every true class
        with pytest.raises(ShapeError, match="one label per image"):
            ConfusionMatrix.from_predictions(np.arange(4), [3])

    @pytest.mark.parametrize("counts", [-np.eye(10, dtype=np.int64),
                                        np.full((10, 10), 0.5)])
    def test_counts_are_integers_at_least_zero(self, counts):
        # -1 was kept and 0.5 truncated to 0
        with pytest.raises(DomainError, match="counts must be integers"):
            ConfusionMatrix(counts)


class TestExperimentSpec:
    def test_seeds_default_to_config_seed(self, hrs_config):
        spec = ExperimentSpec(net=tiny_net(), config=hrs_config,
                              mode="hardware")
        assert spec.seeds == [hrs_config.seed]

    def test_empty_seed_list_rejected(self, hrs_config):
        with pytest.raises(ConfigError, match="seeds"):
            ExperimentSpec(net=tiny_net(), config=hrs_config, mode="ideal",
                           seeds=[])

    @pytest.mark.parametrize("seeds", [3, "12", {1, 2}, [[1], [2]],
                                       np.array([[1], [2]])])
    def test_seeds_must_be_a_sequence(self, hrs_config, seeds):
        # 3 used to end in a TypeError
        with pytest.raises(ConfigError, match="seeds must be a non-empty "
                                              "sequence"):
            ExperimentSpec(net=tiny_net(), config=hrs_config, mode="ideal",
                           seeds=seeds)

    def test_seeds_may_be_an_array(self, hrs_config):
        # an array used to end in numpy's ambiguous-truth ValueError
        spec = ExperimentSpec(net=tiny_net(), config=hrs_config,
                              mode="ideal", seeds=np.array([1, 2]))
        assert list(spec.seeds) == [1, 2]

    def test_duplicate_seeds_rejected(self, hrs_config):
        with pytest.raises(ConfigError):
            ExperimentSpec(net=tiny_net(), config=hrs_config, mode="ideal",
                           seeds=[5, 5])

    def test_unknown_mode_rejected(self, hrs_config):
        with pytest.raises(ConfigError):
            ExperimentSpec(net=tiny_net(), config=hrs_config, mode="magic")

    @pytest.mark.parametrize("seed", [2 ** 64, -2 ** 63 - 1])
    def test_seed_outside_64_bits_rejected(self, hrs_config, seed):
        with pytest.raises(ConfigError, match="seed must lie in"):
            ExperimentSpec(net=tiny_net(), config=hrs_config,
                           mode="hardware", seeds=[1, seed])

    def test_non_integer_seed_rejected(self, hrs_config):
        # 1.5 used to pass as distinct from 1 and draw seed 1's streams
        with pytest.raises(ConfigError, match="seed must be an integer"):
            ExperimentSpec(net=tiny_net(), config=hrs_config,
                           mode="hardware", seeds=[1, 1.5])

    @pytest.mark.parametrize("field, value", [
        ("limit", 2.5), ("limit", 2.0), ("threads", 1.5), ("threads", "2"),
        ("max_tile", (64.5, 64)), ("max_tile", (64, 3.0)), ("threads", True)])
    def test_non_integer_counts_rejected(self, hrs_config, field, value):
        # limit=2.5 and max_tile=(64.5, 64) used to end in a TypeError
        with pytest.raises(ConfigError, match=field.replace("_", " ")):
            ExperimentSpec(net=tiny_net(), config=hrs_config, mode="ideal",
                           **{field: value})

    @pytest.mark.parametrize("threads", [0, -1, -3])
    def test_threads_below_one_rejected(self, hrs_config, threads):
        with pytest.raises(ConfigError, match="threads"):
            ExperimentSpec(net=tiny_net(), config=hrs_config, mode="ideal",
                           threads=threads)


class TestRunAccuracy:
    def test_ideal_trials_identical(self, hrs_config, dataset, monkeypatch):
        from oxcim import bench
        from oxcim.network import predict_ideal
        images_seen = []
        monkeypatch.setattr(bench, "predict_ideal",
                            lambda net, x: images_seen.append(len(x)) or
                            predict_ideal(net, x))
        net = tiny_net(Precision.TERNARY, seed=1)
        # tiny net takes (1, 4, 4) inputs; use a 10-class fake set instead
        imgs = dataset.test_images[:60]
        labels = dataset.test_labels[:60]
        from test_train import small_arch
        from oxcim.train import Trainer
        net = Trainer(small_arch(), ).network()
        spec = ExperimentSpec(net=net, config=hrs_config, mode="ideal",
                              seeds=[1, 2], limit=40)
        rep = run_accuracy(spec, imgs, labels)
        assert rep.accuracies[0] == rep.accuracies[1]
        assert rep.n_images == 40
        assert rep.confusion.counts.sum() == 40
        # the ideal pass has no randomness, so it runs once for both trials
        assert sum(images_seen) == 40

    @pytest.mark.parametrize("mode", ["ideal", "hardware"])
    def test_no_images_rejected_before_mapping(self, hrs_config, dataset,
                                               monkeypatch, mode):
        from oxcim import bench
        from test_train import small_arch
        from oxcim.train import Trainer

        def refuse(*args, **kwargs):
            raise AssertionError("tiles mapped for no images")
        monkeypatch.setattr(bench, "map_network_to_tiles", refuse)
        spec = ExperimentSpec(net=Trainer(small_arch()).network(),
                              config=hrs_config, mode=mode)
        with pytest.raises(ShapeError, match="no images"):
            run_accuracy(spec, dataset.test_images[:0],
                         dataset.test_labels[:0])

    @pytest.mark.parametrize("labels, error", [
        ([-1, 0, 1, 2], DomainError),  # counted as class 9
        ([3], ShapeError),             # spread over every image
        ([0, 1, 2, 3, 4], ShapeError),
        ([0.0, 1.0, 2.0, 3.0], DomainError)])
    def test_labels_checked_before_mapping(self, hrs_config, dataset,
                                           monkeypatch, labels, error):
        from oxcim import bench
        from test_train import small_arch
        from oxcim.train import Trainer

        def refuse(*args, **kwargs):
            raise AssertionError("tiles mapped for bad labels")
        monkeypatch.setattr(bench, "map_network_to_tiles", refuse)
        spec = ExperimentSpec(net=Trainer(small_arch()).network(),
                              config=hrs_config, mode="hardware")
        with pytest.raises(error, match="0..9|one label per image"):
            run_accuracy(spec, dataset.test_images[:4], np.array(labels))

    def test_hardware_deterministic_per_seed(self, hrs_config, dataset):
        from test_train import small_arch
        from oxcim.train import Trainer
        net = Trainer(small_arch()).network()
        spec = ExperimentSpec(net=net, config=hrs_config, mode="hardware",
                              seeds=[3], limit=25)
        a = run_accuracy(spec, dataset.test_images, dataset.test_labels)
        b = run_accuracy(spec, dataset.test_images, dataset.test_labels)
        assert a.accuracies == b.accuracies
        np.testing.assert_array_equal(a.confusion.counts, b.confusion.counts)

    def test_disjoint_seed_sets_agree_within_binomial_error(self, hrs_config,
                                                            trained_small_net,
                                                            dataset):
        # two disjoint Monte-Carlo seed sets on >= 1000 images: the accuracy
        # estimates must sit within 3 sigma of binomial sampling error
        n = 1000
        reps = []
        for seeds in ([101], [202]):
            spec = ExperimentSpec(net=trained_small_net, config=hrs_config,
                                  mode="hardware", seeds=seeds,
                                  limit=n)
            reps.append(run_accuracy(spec, dataset.test_images,
                                     dataset.test_labels))
        p = np.mean([r.mean for r in reps]) / 100.0
        sigma = 100.0 * np.sqrt(p * (1.0 - p) / n)
        assert abs(reps[0].mean - reps[1].mean) < 3.0 * sigma

    def test_threads_do_not_change_results(self, hrs_config, dataset):
        from test_train import small_arch
        from oxcim.train import Trainer
        net = Trainer(small_arch()).network()
        base = ExperimentSpec(net=net, config=hrs_config, mode="hardware",
                              seeds=[3], limit=25, threads=1)
        multi = ExperimentSpec(net=net, config=hrs_config, mode="hardware",
                               seeds=[3], limit=25, threads=4)
        a = run_accuracy(base, dataset.test_images, dataset.test_labels)
        b = run_accuracy(multi, dataset.test_images, dataset.test_labels)
        assert a.accuracies == b.accuracies


class TestChunkBoundaries:
    """run_accuracy in CHUNK-image passes gives each image's own result."""

    @pytest.fixture(scope="class")
    def case(self, hrs_config, dataset):
        from test_train import small_arch
        from oxcim.bench import encode_images
        from oxcim.train import Trainer
        net = Trainer(small_arch(), TrainConfig(seed=4)).network()
        images = dataset.test_images[:21]
        tiled = map_network_to_tiles(net, hrs_config)
        encoded = encode_images(images)
        refs = {
            "ideal": [predict_ideal(net, x) for x in encoded],
            "hardware": [predict_hardware(tiled, x, image_ordinal=i)
                         for i, x in enumerate(encoded)],
        }
        batched = {"ideal": predict_ideal(net, encoded[5:14]),
                   "hardware": predict_hardware(tiled, encoded[5:14],
                                                image_ordinal=5)}
        return net, images, refs, batched

    @pytest.mark.parametrize("mode", ["ideal", "hardware"])
    def test_batch_predictions_are_per_image_int64(self, case, mode):
        _, _, refs, batched = case
        assert all(type(p) is int for p in refs[mode])  # one image: an int
        assert batched[mode].dtype == np.int64
        np.testing.assert_array_equal(batched[mode], refs[mode][5:14])

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 21])
    @pytest.mark.parametrize("mode", ["ideal", "hardware"])
    def test_matches_per_image_references(self, hrs_config, case, mode, n,
                                          threads):
        net, images, refs, _ = case
        spec = ExperimentSpec(net=net, config=hrs_config, mode=mode,
                              limit=n, threads=threads)
        report = run_accuracy(spec, images, refs[mode])
        counts = report.confusion.counts
        assert report.n_images == n
        assert np.trace(counts) == counts.sum() == n


class TestSweepSense:
    def test_binary_popcount_groups_are_even(self, hrs_config):
        rows = sweep_sense_distribution((4, 4), Precision.BINARY, hrs_config,
                                        samples=800, seed=0)
        groups = {pc for pc, *_ in rows}
        assert groups == {-4, -2, 0, 2, 4}

    def test_ternary_popcount_groups_are_all_integers(self, hrs_config):
        rows = sweep_sense_distribution((4, 4), Precision.TERNARY, hrs_config,
                                        samples=3000, seed=0)
        groups = {pc for pc, *_ in rows}
        assert groups == set(range(-4, 5))

    def test_zero_variability_medians_increase_with_popcount(self, hrs_config):
        cfg = hrs_config.with_zero_variability()
        rows = sweep_sense_distribution((4, 4), Precision.TERNARY, cfg,
                                        samples=1500, seed=1)
        # group deltas by (popcount, n_pos, n_neg): the imbalance term is
        # common within a group, so medians must be strictly monotone in pc
        from collections import defaultdict
        by_comp = defaultdict(dict)
        for pc, npos, nneg, d, _v in rows:
            by_comp[(npos, nneg)].setdefault(pc, []).append(d)
        checked = 0
        for comp, groups in by_comp.items():
            if len(groups) < 2:
                continue
            pcs = sorted(groups)
            meds = [np.median(groups[p]) for p in pcs]
            assert all(a < b for a, b in zip(meds, meds[1:])), comp
            checked += 1
        assert checked >= 5

    def test_rows_carry_matching_composition(self, hrs_config):
        rows = sweep_sense_distribution((3, 2), Precision.TERNARY, hrs_config,
                                        samples=50, seed=2)
        assert len(rows) == 100  # one row per column per sample
        for pc, npos, nneg, _d, _v in rows:
            assert 0 <= npos + nneg <= 3
            assert abs(pc) <= 3

    def test_large_tiles_rejected(self, hrs_config):
        with pytest.raises(ConfigError):
            sweep_sense_distribution((9, 4), Precision.BINARY, hrs_config)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(samples=2.5), "samples must be an integer"),
        (dict(samples=True), "samples must be an integer"),
        (dict(seed=1.5), "sweep seed must be an integer"),
        (dict(tile_dims=(2.5, 2)), "sweep tile size must be an integer"),
        (dict(tile_dims=(2, 0)), "sweep tile size must lie in \\[1, 9\\)"),
        (dict(tile_dims=(4,)), "sweep tile must be \\(rows, cols\\)"),
        (dict(tile_dims=((2, 2), 2)), "sweep tile size must be an integer")],
        ids=["samples", "samples_bool", "seed", "tile_dims", "tile_zero",
             "tile_one_dim", "tile_ragged"])
    def test_bad_arguments_rejected(self, hrs_config, kwargs, message):
        # samples=2.5, seed=1.5 and tile_dims=(2.5, 2) used to end in a
        # TypeError
        kwargs = dict(dict(tile_dims=(2, 2), samples=2), **kwargs)
        with pytest.raises(ConfigError, match=message):
            sweep_sense_distribution(config=hrs_config,
                                     precision=Precision.BINARY, **kwargs)


class TestHistogram:
    def test_zero_d2d_gives_delta_spikes(self, hrs_config):
        net = tiny_net(Precision.TERNARY, seed=5)
        tiled = map_network_to_tiles(net, hrs_config.with_zero_variability())
        rows, stats = weight_conductance_histogram(tiled)
        # all mass of each trit lands in a single bin (a delta spike); the
        # sample std is zero up to float summation noise
        for t in (-1, 0, 1):
            occupied = [c for trit, _lo, _hi, c in rows if trit == t and c > 0]
            assert len(occupied) == 1
            assert stats["std_S"][t] < 1e-18
        assert stats["separability"] > 1e12

    def test_mass_conserved_per_trit(self, hrs_config):
        net = tiny_net(Precision.TERNARY, seed=6)
        tiled = map_network_to_tiles(net, hrs_config)
        rows, stats = weight_conductance_histogram(tiled)
        want = {t: 0 for t in (-1, 0, 1)}
        for i in net.parametric_indices():
            vals, counts = np.unique(net.weights[i].data, return_counts=True)
            for v, c in zip(vals, counts):
                want[int(v)] += int(c)
        for t in (-1, 0, 1):
            hist_mass = sum(c for trit, _lo, _hi, c in rows if trit == t)
            assert hist_mass == want[t] == stats["count"][t]

    def test_hrs_more_separable_than_lrs(self, hrs_config, lrs_config):
        net = tiny_net(Precision.TERNARY, seed=7)
        _, hrs_stats = weight_conductance_histogram(
            map_network_to_tiles(net, hrs_config))
        _, lrs_stats = weight_conductance_histogram(
            map_network_to_tiles(net, lrs_config))
        assert hrs_stats["separability"] > lrs_stats["separability"]

