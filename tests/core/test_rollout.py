"""Unit tests for the replay buffer."""

import numpy as np
import pytest

from repro.core.rollout import ReplayBuffer


def _batch(n, state_size=6, num_heads=4, offset=0.0):
    states = np.full((n, state_size), offset)
    actions = np.zeros((n, num_heads), dtype=np.int64)
    ones = np.ones(n)
    return states, actions, ones * 0.1, ones * 0.2, ones * 0.3, ones * 0.4


class TestReplayBuffer:
    def test_add_and_len(self):
        buf = ReplayBuffer(capacity=16, state_size=6, num_heads=4)
        buf.add(*_batch(5))
        assert len(buf) == 5

    def test_capacity_wraps_fifo(self):
        buf = ReplayBuffer(capacity=8, state_size=6, num_heads=4)
        buf.add(*_batch(6, offset=1.0))
        buf.add(*_batch(6, offset=2.0))
        assert len(buf) == 8
        sample = buf.sample(8)
        # The oldest 4 entries (offset 1.0) must have been overwritten for 4 slots.
        assert np.sum(sample["states"][:, 0] == 2.0) == 6

    def test_sample_shapes(self):
        buf = ReplayBuffer(capacity=32, state_size=6, num_heads=4)
        buf.add(*_batch(10))
        sample = buf.sample(4)
        assert sample["states"].shape == (4, 6)
        assert sample["actions"].shape == (4, 4)
        assert sample["advantages"].shape == (4,)

    def test_sample_larger_than_size_is_clamped(self):
        buf = ReplayBuffer(capacity=32, state_size=6, num_heads=4)
        buf.add(*_batch(3))
        assert sample_size(buf.sample(10)) == 3

    def test_sample_empty_raises(self):
        buf = ReplayBuffer(capacity=4, state_size=2, num_heads=1)
        with pytest.raises(RuntimeError):
            buf.sample(1)

    def test_mismatched_batch_rejected(self):
        buf = ReplayBuffer(capacity=4, state_size=6, num_heads=4)
        states, actions, logp, rewards, td, adv = _batch(3)
        with pytest.raises(ValueError):
            buf.add(states, actions, logp[:-1], rewards, td, adv)

    def test_clear(self):
        buf = ReplayBuffer(capacity=4, state_size=6, num_heads=4)
        buf.add(*_batch(3))
        buf.clear()
        assert len(buf) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0, state_size=2, num_heads=1)


class _PerRowBuffer(ReplayBuffer):
    """The buffer with a transition-at-a-time ``add``.

    It reserves its rows through the buffer's own storage path, so both
    buffers hold arrays of the same shape and compare in full.
    """

    def add(self, states, actions, old_log_probs, rewards, td_targets, advantages):
        states = np.atleast_2d(np.asarray(states, dtype=np.float32))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.int64))
        self._reserve(min(self._next + states.shape[0], self.capacity))
        for i in range(states.shape[0]):
            idx = self._next
            self._states[idx] = states[i]
            self._actions[idx] = actions[i]
            self._old_log_probs[idx] = old_log_probs[i]
            self._rewards[idx] = rewards[i]
            self._td_targets[idx] = td_targets[i]
            self._advantages[idx] = advantages[i]
            self._next = (self._next + 1) % self.capacity
            self._size = min(self._size + 1, self.capacity)


def _random_batch(rng, n, state_size=6, num_heads=4):
    return (
        rng.normal(size=(n, state_size)),
        rng.integers(0, 9, size=(n, num_heads)),
        rng.normal(size=n),
        rng.normal(size=n),
        rng.normal(size=n),
        rng.normal(size=n),
    )


class TestAddEqualsPerRowLoop:
    FIELDS = ("_states", "_actions", "_old_log_probs", "_rewards", "_td_targets", "_advantages")

    # 3+4 fills 7 of 8 slots, 5 wraps around, 11 is longer than the buffer,
    # 8 is exactly one capacity, 1 is a single transition.
    @pytest.mark.parametrize("sizes", [(3, 4, 5), (11,), (2, 11, 3), (8, 1, 8)])
    def test_same_contents_and_cursor(self, sizes):
        rng = np.random.default_rng(0)
        buf = ReplayBuffer(capacity=8, state_size=6, num_heads=4, seed=3)
        ref = _PerRowBuffer(capacity=8, state_size=6, num_heads=4, seed=3)
        for n in sizes:
            batch = _random_batch(rng, n)
            buf.add(*batch)
            ref.add(*batch)
            assert len(buf) == len(ref)
            assert buf._next == ref._next
            for name in self.FIELDS:
                assert np.array_equal(getattr(buf, name), getattr(ref, name))
        sample, ref_sample = buf.sample(8), ref.sample(8)
        for key, value in sample.items():
            assert np.array_equal(value, ref_sample[key])

    def test_oversized_batch_keeps_its_last_rows_in_order(self):
        buf = ReplayBuffer(capacity=4, state_size=1, num_heads=1)
        buf.add(*_batch(1, state_size=1, num_heads=1, offset=-1.0))  # cursor at slot 1
        rows = np.arange(10.0)
        buf.add(rows[:, None], np.zeros((10, 1)), rows, rows, rows, rows)
        assert len(buf) == 4
        # Rows 6..9 survive, row i in slot (1 + i) % 4, so reading the ring
        # from the cursor (slot 3) gives them oldest first.
        assert buf._states[:, 0].tolist() == [7.0, 8.0, 9.0, 6.0]
        assert buf._advantages.tolist() == [7.0, 8.0, 9.0, 6.0]
        assert buf._next == 3


class _UpFrontBuffer(ReplayBuffer):
    """The buffer with all ``capacity`` rows allocated at construction."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._reserve(self.capacity)


class TestStorageGrowth:
    FIELDS = TestAddEqualsPerRowLoop.FIELDS

    @staticmethod
    def _rows(buf):
        rows = {getattr(buf, name).shape[0] for name in TestStorageGrowth.FIELDS}
        assert len(rows) == 1
        return rows.pop()

    def test_storage_starts_empty_and_is_float32(self):
        buf = ReplayBuffer(capacity=16, state_size=6, num_heads=4)
        assert self._rows(buf) == 0
        buf.add(*_random_batch(np.random.default_rng(0), 3))
        assert self._rows(buf) == 3
        for name in self.FIELDS:
            expected = np.int64 if name == "_actions" else np.float32
            assert getattr(buf, name).dtype == expected, name

    # 1, 1, 2, ... doubles the storage several times; 45 takes it to the
    # 100-row capacity before the buffer is full; 30 wraps.  The second case
    # overflows the capacity with its first batch.
    @pytest.mark.parametrize("sizes", [(1, 1, 2, 3, 5, 9, 17, 7, 45, 1, 30, 64), (150, 3)])
    def test_growth_bound_and_same_contents_as_up_front(self, sizes):
        rng = np.random.default_rng(1)
        buf = ReplayBuffer(capacity=100, state_size=6, num_heads=4, seed=5)
        full = _UpFrontBuffer(capacity=100, state_size=6, num_heads=4, seed=5)
        added = 0
        grown = set()
        for n in sizes:
            batch = _random_batch(rng, n)
            buf.add(*batch)
            full.add(*batch)
            added += n
            rows = self._rows(buf)
            grown.add(rows)
            if added < buf.capacity:  # not wrapped yet
                assert len(buf) <= rows <= min(buf.capacity, 2 * len(buf))
            else:
                assert rows == buf.capacity
            assert len(buf) == len(full) and buf._next == full._next
            for name in self.FIELDS:
                stored, reference = getattr(buf, name), getattr(full, name)
                assert np.array_equal(stored, reference[:rows])
                assert not reference[rows:].any()
            sample, ref_sample = buf.sample(32), full.sample(32)
            for key, value in sample.items():
                assert np.array_equal(value, ref_sample[key])
        if len(sizes) > 2:
            assert len(grown) >= 5  # several doublings before the capacity

    def test_clear_releases_the_storage(self):
        buf = ReplayBuffer(capacity=8, state_size=6, num_heads=4)
        buf.add(*_random_batch(np.random.default_rng(2), 11))
        assert self._rows(buf) == 8
        buf.clear()
        assert len(buf) == 0 and self._rows(buf) == 0
        buf.add(*_random_batch(np.random.default_rng(3), 2))
        assert len(buf) == 2 and self._rows(buf) == 2


def sample_size(sample):
    return sample["states"].shape[0]
