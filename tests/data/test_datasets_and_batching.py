"""Tests for the synthetic datasets and the batch iterators."""

import numpy as np
import pytest

from repro.data import (
    BatchIterator,
    BPTTBatcher,
    make_synthetic_corpus,
    make_synthetic_mnist,
)


class TestSyntheticMNIST:
    def test_shapes_and_ranges(self, tiny_mnist):
        assert tiny_mnist.train_images.shape == (400, 784)
        assert tiny_mnist.test_images.shape == (160, 784)
        assert tiny_mnist.num_features == 784
        assert tiny_mnist.num_classes == 10
        assert tiny_mnist.train_images.min() >= 0.0
        assert tiny_mnist.train_images.max() <= 1.0
        assert set(np.unique(tiny_mnist.train_labels)).issubset(set(range(10)))

    def test_deterministic_given_seed(self):
        a = make_synthetic_mnist(num_train=50, num_test=20, seed=3)
        b = make_synthetic_mnist(num_train=50, num_test=20, seed=3)
        assert np.array_equal(a.train_images, b.train_images)
        assert np.array_equal(a.train_labels, b.train_labels)

    def test_different_seeds_differ(self):
        a = make_synthetic_mnist(num_train=50, num_test=20, seed=3)
        b = make_synthetic_mnist(num_train=50, num_test=20, seed=4)
        assert not np.array_equal(a.train_images, b.train_images)

    def test_classes_are_distinguishable(self, tiny_mnist):
        """Nearest-class-mean classification must beat chance by a wide margin."""
        means = np.stack([
            tiny_mnist.train_images[tiny_mnist.train_labels == digit].mean(axis=0)
            for digit in range(10)])
        distances = ((tiny_mnist.test_images[:, None, :] - means[None]) ** 2).sum(axis=2)
        predictions = distances.argmin(axis=1)
        accuracy = float(np.mean(predictions == tiny_mnist.test_labels))
        assert accuracy > 0.5

    def test_label_noise_only_affects_train(self):
        clean = make_synthetic_mnist(num_train=300, num_test=100, label_noise=0.0, seed=5)
        noisy = make_synthetic_mnist(num_train=300, num_test=100, label_noise=0.3, seed=5)
        assert np.array_equal(clean.test_labels, noisy.test_labels)
        assert np.mean(clean.train_labels != noisy.train_labels) > 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            make_synthetic_mnist(num_train=0)
        with pytest.raises(ValueError):
            make_synthetic_mnist(noise=-1)
        with pytest.raises(ValueError):
            make_synthetic_mnist(label_noise=1.0)


class TestSyntheticCorpus:
    def test_shapes_and_vocab(self, tiny_corpus):
        assert tiny_corpus.vocab_size == 60
        assert tiny_corpus.train.shape == (1200,)
        assert tiny_corpus.train.min() >= 0
        assert tiny_corpus.train.max() < 60
        assert tiny_corpus.num_train_tokens == 1200

    def test_deterministic(self):
        a = make_synthetic_corpus(vocab_size=40, num_train_tokens=500, seed=2)
        b = make_synthetic_corpus(vocab_size=40, num_train_tokens=500, seed=2)
        assert np.array_equal(a.train, b.train)

    def test_zipfian_skew(self, tiny_corpus):
        counts = np.bincount(tiny_corpus.train, minlength=60)
        top_share = np.sort(counts)[::-1][:6].sum() / counts.sum()
        assert top_share > 0.25  # frequent words dominate

    def test_bigram_structure_is_learnable(self, tiny_corpus):
        """A bigram model must beat the unigram model in log-likelihood."""
        train, test = tiny_corpus.train, tiny_corpus.test
        vocab = tiny_corpus.vocab_size
        unigram = np.bincount(train, minlength=vocab) + 1.0
        unigram /= unigram.sum()
        bigram = np.ones((vocab, vocab))
        np.add.at(bigram, (train[:-1], train[1:]), 1.0)
        bigram /= bigram.sum(axis=1, keepdims=True)
        unigram_ll = np.log(unigram[test[1:]]).mean()
        bigram_ll = np.log(bigram[test[:-1], test[1:]]).mean()
        assert bigram_ll > unigram_ll + 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            make_synthetic_corpus(vocab_size=1)
        with pytest.raises(ValueError):
            make_synthetic_corpus(num_train_tokens=0)
        with pytest.raises(ValueError):
            make_synthetic_corpus(reset_probability=2.0)


class TestLargeVocabCorpus:
    """ISSUE 10: the vectorized generator scales to very large vocabularies
    (the adaptive-softmax workload) without losing its statistical shape."""

    @pytest.fixture(scope="class")
    def large_corpus(self):
        # 100k words in a fraction of a second — the per-word loops of the
        # original generator took minutes at this scale.
        return make_synthetic_corpus(vocab_size=100_000,
                                     num_train_tokens=60_000,
                                     num_valid_tokens=2_000,
                                     num_test_tokens=2_000, seed=5)

    def test_unigram_counts_follow_the_zipf_exponent(self, large_corpus):
        """The head of the empirical rank/frequency curve must fit a power
        law with slope near the generator's -1.05 exponent."""
        counts = np.bincount(large_corpus.train,
                             minlength=large_corpus.vocab_size)
        head = np.sort(counts)[::-1][:200].astype(np.float64)
        assert head.min() > 0  # the frequent head is well-sampled at 60k tokens
        ranks = np.arange(1, 201, dtype=np.float64)
        slope = np.polyfit(np.log(ranks), np.log(head), 1)[0]
        assert abs(slope - (-1.05)) < 0.15

    def test_ids_are_frequency_ordered_in_aggregate(self, large_corpus):
        """The adaptive head assumes id 0 is most frequent: the first 1000
        ids must absorb far more mass than a uniform slice would."""
        counts = np.bincount(large_corpus.train,
                             minlength=large_corpus.vocab_size)
        head_share = counts[:1000].sum() / counts.sum()
        assert head_share > 0.5

    def test_half_million_vocab_builds_quickly_and_deterministically(self):
        import time

        started = time.perf_counter()
        first = make_synthetic_corpus(vocab_size=500_000,
                                      num_train_tokens=20_000,
                                      num_valid_tokens=1_000,
                                      num_test_tokens=1_000, seed=6)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0  # seconds, not minutes (measured ~1s)
        second = make_synthetic_corpus(vocab_size=500_000,
                                       num_train_tokens=20_000,
                                       num_valid_tokens=1_000,
                                       num_test_tokens=1_000, seed=6)
        assert np.array_equal(first.train, second.train)
        assert first.train.max() < 500_000


class TestBatchIterator:
    def test_batch_shapes_and_count(self, tiny_mnist, rng):
        iterator = BatchIterator(tiny_mnist.train_images, tiny_mnist.train_labels,
                                 batch_size=64, rng=rng)
        batches = list(iterator)
        assert len(batches) == len(iterator) == 400 // 64
        for images, labels in batches:
            assert images.shape == (64, 784)
            assert labels.shape == (64,)

    def test_shuffling_changes_order(self, tiny_mnist):
        iterator = BatchIterator(tiny_mnist.train_images, tiny_mnist.train_labels,
                                 batch_size=64, rng=np.random.default_rng(0))
        first_epoch = next(iter(iterator))[1]
        second_epoch = next(iter(iterator))[1]
        assert not np.array_equal(first_epoch, second_epoch)

    def test_no_shuffle_preserves_order(self, tiny_mnist):
        iterator = BatchIterator(tiny_mnist.train_images, tiny_mnist.train_labels,
                                 batch_size=64, shuffle=False)
        images, labels = next(iter(iterator))
        assert np.array_equal(labels, tiny_mnist.train_labels[:64])

    def test_validation(self, tiny_mnist):
        with pytest.raises(ValueError):
            BatchIterator(tiny_mnist.train_images, tiny_mnist.train_labels[:10], 16)
        with pytest.raises(ValueError):
            BatchIterator(tiny_mnist.train_images, tiny_mnist.train_labels, 0)
        with pytest.raises(ValueError):
            BatchIterator(tiny_mnist.train_images[:5], tiny_mnist.train_labels[:5], 16)


class TestBatchIteratorEdgeCases:
    """Regression tests for the partial-batch / small-dataset / determinism fixes."""

    def make_data(self, n=10, features=3):
        images = np.arange(n * features, dtype=float).reshape(n, features)
        labels = np.arange(n)
        return images, labels

    def test_final_partial_batch_yielded_when_drop_last_false(self):
        images, labels = self.make_data(n=10)
        iterator = BatchIterator(images, labels, batch_size=4, shuffle=False,
                                 drop_last=False)
        batches = list(iterator)
        assert len(batches) == len(iterator) == 3
        assert [len(b[1]) for b in batches] == [4, 4, 2]
        # Every sample appears exactly once.
        seen = np.concatenate([b[1] for b in batches])
        assert np.array_equal(np.sort(seen), labels)

    def test_drop_last_true_drops_partial_batch(self):
        images, labels = self.make_data(n=10)
        iterator = BatchIterator(images, labels, batch_size=4, shuffle=False)
        batches = list(iterator)
        assert len(batches) == len(iterator) == 2
        assert all(len(b[1]) == 4 for b in batches)

    def test_exact_multiple_has_no_empty_trailing_batch(self):
        images, labels = self.make_data(n=8)
        iterator = BatchIterator(images, labels, batch_size=4, shuffle=False,
                                 drop_last=False)
        batches = list(iterator)
        assert [len(b[1]) for b in batches] == [4, 4]

    def test_batch_size_larger_than_dataset(self):
        images, labels = self.make_data(n=3)
        iterator = BatchIterator(images, labels, batch_size=16, shuffle=False,
                                 drop_last=False)
        batches = list(iterator)
        assert len(batches) == len(iterator) == 1
        assert batches[0][0].shape == (3, 3)
        # drop_last=True still refuses (it would yield zero batches).
        with pytest.raises(ValueError):
            BatchIterator(images, labels, batch_size=16, drop_last=True)

    def test_empty_dataset_rejected(self):
        images, labels = self.make_data(n=10)
        with pytest.raises(ValueError):
            BatchIterator(images[:0], labels[:0], batch_size=4, drop_last=False)

    def test_shuffle_deterministic_under_fixed_seed(self):
        images, labels = self.make_data(n=12)
        a = BatchIterator(images, labels, batch_size=4, seed=99)
        b = BatchIterator(images, labels, batch_size=4, seed=99)
        for _ in range(3):  # identical across several epochs, not just the first
            for (_, la), (_, lb) in zip(a, b):
                assert np.array_equal(la, lb)

    def test_epochs_reshuffle_but_reproducibly(self):
        images, labels = self.make_data(n=32)
        first = [lab for _, lab in BatchIterator(images, labels, 8, seed=5)]
        iterator = BatchIterator(images, labels, 8, seed=5)
        epoch1 = [lab for _, lab in iterator]
        epoch2 = [lab for _, lab in iterator]
        assert all(np.array_equal(x, y) for x, y in zip(first, epoch1))
        assert not all(np.array_equal(x, y) for x, y in zip(epoch1, epoch2))

    def test_explicit_rng_takes_precedence_over_seed(self):
        images, labels = self.make_data(n=12)
        a = BatchIterator(images, labels, 4, rng=np.random.default_rng(1), seed=7)
        b = BatchIterator(images, labels, 4, rng=np.random.default_rng(1), seed=8)
        assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))


class TestBPTTBatcher:
    def test_window_shapes(self, tiny_corpus):
        batcher = BPTTBatcher(tiny_corpus.train, batch_size=8, seq_len=15)
        windows = list(batcher)
        assert len(windows) == len(batcher) > 0
        for inputs, targets in windows:
            assert inputs.shape == (15, 8)
            assert targets.shape == (15, 8)

    def test_targets_are_next_tokens(self, tiny_corpus):
        batcher = BPTTBatcher(tiny_corpus.train, batch_size=4, seq_len=10)
        inputs, targets = next(iter(batcher))
        # Within a column, the target at step t equals the input at step t+1.
        assert np.array_equal(inputs[1:, 0], targets[:-1, 0])

    def test_columns_are_contiguous_stream_segments(self):
        stream = np.arange(101)
        batcher = BPTTBatcher(stream, batch_size=4, seq_len=5)
        inputs, _ = next(iter(batcher))
        # Column 0 starts at position 0, column 1 at position 25, etc.
        assert inputs[0, 0] == 0
        assert inputs[0, 1] == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            BPTTBatcher(np.arange(10).reshape(2, 5), 2, 2)
        with pytest.raises(ValueError):
            BPTTBatcher(np.arange(100), 0, 5)
        with pytest.raises(ValueError):
            BPTTBatcher(np.arange(3), 8, 5)

