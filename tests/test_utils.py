"""Unit tests for repro.utils: hashing, RNG streams, sizing, array
idioms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.arrays import percentile, sorted_unique, stable_order
from repro.utils.hashing import hash_to_node, stable_hash, stable_hash_array
from repro.utils.rng import SeededRng, derive_seed
from repro.utils.sizing import (
    BYTES_PER_EDGE,
    BYTES_PER_VALUE,
    BYTES_PER_VID,
    sizeof_value,
)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(42) == stable_hash(42)
        assert stable_hash(42, salt=1) == stable_hash(42, salt=1)

    def test_salt_changes_output(self):
        assert stable_hash(42) != stable_hash(42, salt=1)

    def test_distinct_inputs_differ(self):
        values = {stable_hash(i) for i in range(1000)}
        assert len(values) == 1000

    def test_64_bit_range(self):
        for i in (0, 1, 2**40, 2**63):
            assert 0 <= stable_hash(i) < 2**64

    def test_avalanche_spread(self):
        # Consecutive inputs should land in different nodes often.
        nodes = [hash_to_node(i, 10) for i in range(1000)]
        counts = [nodes.count(k) for k in range(10)]
        assert min(counts) > 50  # roughly uniform

    def test_hash_to_node_range(self):
        for i in range(100):
            assert 0 <= hash_to_node(i, 7) < 7

    def test_hash_to_node_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            hash_to_node(1, 0)

    @pytest.mark.parametrize("salt", [0, 1, 7, 13, 84, -3, 2**40])
    def test_array_hash_equals_the_scalar_one(self, salt):
        """The vectorised splitmix every partitioner hashes with."""
        ids = [0, 1, 2, 2**31 - 2, 2**31 - 1, 2**31, 2**31 + 1,
               12_500 * 1_000_003 + 7]
        hashed = stable_hash_array(ids, salt)
        assert hashed.dtype == np.uint64
        assert hashed.tolist() == [stable_hash(v, salt) for v in ids]
        assert stable_hash_array(np.zeros(0, dtype=np.int64), salt).size == 0


class TestSeededRng:
    def test_same_labels_same_stream(self):
        a = SeededRng(1, "x", 2)
        b = SeededRng(1, "x", 2)
        assert [a.randint(0, 100) for _ in range(5)] == \
            [b.randint(0, 100) for _ in range(5)]

    def test_different_labels_diverge(self):
        a = SeededRng(1, "x")
        b = SeededRng(1, "y")
        assert [a.randint(0, 10**9) for _ in range(3)] != \
            [b.randint(0, 10**9) for _ in range(3)]

    def test_child_stream_independent(self):
        root = SeededRng(1, "root")
        child = root.child("sub")
        assert child.seed != root.seed

    def test_derive_seed_mixed_labels(self):
        assert derive_seed(5, "a", 1) == derive_seed(5, "a", 1)
        assert derive_seed(5, "a", 1) != derive_seed(5, "a", 2)
        assert derive_seed(5, "a") != derive_seed(6, "a")

    def test_sample_and_choice(self):
        rng = SeededRng(3, "s")
        sample = rng.sample(list(range(20)), 5)
        assert len(set(sample)) == 5
        assert rng.choice([7]) == 7


class TestSizing:
    def test_scalar_value(self):
        assert sizeof_value(1.0) == BYTES_PER_VALUE
        assert sizeof_value(7) == BYTES_PER_VALUE

    def test_vector_value(self):
        assert sizeof_value((1.0, 2.0, 3.0)) == 3 * BYTES_PER_VALUE
        assert sizeof_value([1.0] * 5) == 5 * BYTES_PER_VALUE

    def test_empty_vector_counts_one_slot(self):
        assert sizeof_value(()) == BYTES_PER_VALUE

    def test_edge_record_layout(self):
        assert BYTES_PER_EDGE == 2 * BYTES_PER_VID + 8


#: One 8-bit digit (its smallest and largest bound), one 16-bit digit at
#: its limit, one past it (two digits), and three digits.
BOUNDS = [1, 2**8, 2**16, 2**16 + 1, 2**32 + 1]


class TestArrayIdioms:
    """Each helper is the numpy call it stands in for, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.int64, st.integers(0, 60),
                      elements=st.integers(-20, 20)))
    def test_sorted_unique_is_np_unique(self, keys):
        have, want = sorted_unique(keys), np.unique(keys)
        assert have.dtype == want.dtype
        assert np.array_equal(have, want)

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 60),
                      elements=st.floats(0, 1e3, allow_nan=False)),
           st.sampled_from([0, 12.5, 50, 75, 99, 99.9, 100]))
    def test_percentile_is_np_percentile(self, values, q):
        want = float(np.percentile(values, q))
        assert np.float64(percentile(values, q)).tobytes() == \
            np.float64(want).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(st.data(), st.sampled_from(BOUNDS), st.sampled_from(
        [np.int32, np.int64]), st.integers(0, 80))
    def test_stable_order_is_a_stable_argsort(self, data, bound, dtype,
                                              size):
        top = min(bound, np.iinfo(dtype).max + 1) - 1
        # A few keys drawn again and again (ties are where stability
        # shows), both ends of the range, and anything in between.
        few = data.draw(st.lists(st.integers(0, top), min_size=1,
                                 max_size=3))
        keys = np.array(data.draw(st.lists(st.one_of(
            st.sampled_from([*few, 0, top]), st.integers(0, top)),
            min_size=size, max_size=size)), dtype=dtype)
        have, want = stable_order(keys, bound), np.argsort(keys, kind="stable")
        assert have.dtype == want.dtype
        assert np.array_equal(have, want)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_stable_order_of_nothing(self, bound, dtype):
        have = stable_order(np.zeros(0, dtype=dtype), bound)
        assert have.dtype == np.argsort(np.zeros(0, dtype=dtype)).dtype
        assert have.size == 0
