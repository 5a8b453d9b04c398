"""Mini-batch iterators for classification and truncated-BPTT language modelling."""

from __future__ import annotations

from typing import Iterator

import numpy as np


class BatchIterator:
    """Shuffled mini-batches over a classification dataset.

    Parameters
    ----------
    images:
        Feature matrix of shape ``(n, features)``.
    labels:
        Integer labels of shape ``(n,)``.
    batch_size:
        Mini-batch size.
    shuffle:
        Reshuffle the sample order at the start of every epoch.
    drop_last:
        When ``True`` (the default) the final partial batch is dropped —
        constant-shape batches keep the GPU-timing comparison per iteration
        meaningful and match Caffe's fixed-batch behaviour.  When ``False``
        the final partial batch is yielded, and a dataset smaller than one
        batch yields a single batch containing the whole dataset.
    rng:
        Generator used for shuffling.  Seeded generators make the shuffle
        order fully deterministic: epoch ``k`` of two iterators built with
        identically-seeded generators is identical, and successive epochs of
        one iterator differ (the generator state advances per epoch).
    seed:
        Convenience alternative to ``rng``: build a seeded default generator.
        Ignored when ``rng`` is given.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray, batch_size: int,
                 shuffle: bool = True, rng: np.random.Generator | None = None,
                 drop_last: bool = True, seed: int | None = None):
        images = np.asarray(images)
        labels = np.asarray(labels)
        if images.shape[0] != labels.shape[0]:
            raise ValueError("images and labels must have the same length")
        if images.shape[0] == 0:
            raise ValueError("dataset is empty")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if drop_last and images.shape[0] < batch_size:
            raise ValueError(
                "dataset smaller than one batch; pass drop_last=False to "
                "iterate a single partial batch")
        self.images = images
        self.labels = labels
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        if rng is None:
            rng = np.random.default_rng(seed)
        self.rng = rng

    @property
    def num_samples(self) -> int:
        return self.images.shape[0]

    @property
    def batches_per_epoch(self) -> int:
        if self.drop_last:
            return self.num_samples // self.batch_size
        return -(-self.num_samples // self.batch_size)  # ceil division

    def __len__(self) -> int:
        return self.batches_per_epoch

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        order = np.arange(self.num_samples)
        if self.shuffle:
            self.rng.shuffle(order)
        stop = (self.batches_per_epoch * self.batch_size if self.drop_last
                else self.num_samples)
        for start in range(0, stop, self.batch_size):
            index = order[start:start + self.batch_size]
            yield self.images[index], self.labels[index]


class BPTTBatcher:
    """Truncated back-propagation-through-time batching of a token stream.

    The stream is folded into ``batch_size`` parallel columns (the standard
    contiguous-batching layout), then cut into windows of ``seq_len`` steps.
    Each yielded item is ``(inputs, targets)`` with shapes
    ``(seq_len, batch_size)``; targets are the inputs shifted by one token.
    """

    def __init__(self, stream: np.ndarray, batch_size: int, seq_len: int):
        stream = np.asarray(stream)
        if stream.ndim != 1:
            raise ValueError("token stream must be 1-D")
        if batch_size <= 0 or seq_len <= 0:
            raise ValueError("batch_size and seq_len must be positive")
        usable = (stream.size - 1) // batch_size * batch_size
        if usable < batch_size:
            raise ValueError("token stream too short for the requested batch size")
        columns = stream[:usable].reshape(batch_size, -1).T  # (steps, batch)
        targets = stream[1:usable + 1].reshape(batch_size, -1).T
        self.inputs = columns
        self.targets = targets
        self.batch_size = batch_size
        self.seq_len = seq_len

    @property
    def steps_per_column(self) -> int:
        return self.inputs.shape[0]

    @property
    def batches_per_epoch(self) -> int:
        return max(self.steps_per_column // self.seq_len, 0)

    def __len__(self) -> int:
        return self.batches_per_epoch

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for start in range(0, self.batches_per_epoch * self.seq_len, self.seq_len):
            stop = start + self.seq_len
            yield self.inputs[start:stop], self.targets[start:stop]
