"""Deterministic seed derivation: pure in (root, index), well-spread."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.seeds import derive_seed, derive_seeds, spawn_key, spawn_keys
from repro.transfer.integrity import DestinationLedger, IntegrityConfig, TransferManifest


class TestDeriveSeed:
    def test_pure_function(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_distinct_across_indices(self):
        seeds = [derive_seed(0, i) for i in range(1000)]
        assert len(set(seeds)) == 1000

    def test_distinct_across_roots(self):
        assert derive_seed(0, 0) != derive_seed(1, 0)

    def test_independent_of_enumeration_order(self):
        """Seed for task i never depends on how many tasks exist."""
        few = [derive_seed(7, i) for i in range(4)]
        many = [derive_seed(7, i) for i in range(64)]
        assert many[:4] == few

    def test_64_bit_range(self):
        for i in range(100):
            s = derive_seed(123, i)
            assert 0 <= s < 2**64

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(0, -1)

    def test_derive_seeds_matches_scalar(self):
        assert derive_seeds(9, 5) == tuple(derive_seed(9, i) for i in range(5))


class TestSpawnKey:
    def test_single_level_matches_derive_seed(self):
        assert spawn_key(42, (3,)) == derive_seed(42, 3)

    def test_hierarchical_paths_distinct(self):
        keys = {spawn_key(0, (i, j)) for i in range(8) for j in range(8)}
        assert len(keys) == 64

    def test_path_prefix_not_colliding(self):
        assert spawn_key(0, (1,)) != spawn_key(0, (1, 0))


U64_MAX = 2**64 - 1
#: Edge values: the ends of the uint64 range and the int64 sign boundary.
EDGES = [0, 1, 2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1, U64_MAX - 1, U64_MAX]
u64s = st.one_of(st.sampled_from(EDGES), st.integers(0, U64_MAX))
#: Send counts up to well past the repair-round limit (a chunk re-sent on
#: every resume and repair round of a long chaos run).
sends = st.integers(0, 4 * IntegrityConfig().max_repair_rounds + 16)


class TestSpawnKeys:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(root=u64s, tag=st.integers(0, 8), ids=st.lists(u64s, min_size=1, max_size=12),
           data=st.data())
    def test_equals_scalar_element_for_element(self, root, tag, ids, data):
        counts = data.draw(st.lists(sends, min_size=len(ids), max_size=len(ids)))
        got = spawn_keys(root, (tag, np.array(ids, dtype=np.uint64), np.array(counts)))
        assert got.dtype == np.uint64
        assert got.tolist() == [spawn_key(root, (tag, i, s)) for i, s in zip(ids, counts)]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(roots=st.lists(u64s, min_size=1, max_size=8), index=u64s)
    def test_array_roots_broadcast_against_scalar_index(self, roots, index):
        got = spawn_keys(np.array(roots, dtype=np.uint64), (index,))
        assert got.tolist() == [spawn_key(r, (index,)) for r in roots]

    def test_edges_without_overflow_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for root in (0, U64_MAX):
                for index in EDGES:
                    assert int(spawn_keys(root, (index,))) == spawn_key(root, (index,))
                    assert int(spawn_keys(root, (1, index, 3))) == spawn_key(root, (1, index, 3))

    def test_empty_path_is_the_root(self):
        assert int(spawn_keys(U64_MAX, ())) == spawn_key(U64_MAX, ()) == U64_MAX

    def test_unit_conversion_is_exact(self):
        """``key / 2**64`` in float64 rounds exactly as python's int / float,
        the near-2**64 keys that round up to 1.0 included."""
        keys = EDGES + [2**53 - 1, 2**53 + 1, 2**64 - 2**10, 2**64 - 2**11 + 1, 3 * 2**62 + 1]
        got = (np.array(keys, dtype=np.uint64) / float(2**64)).tolist()
        assert got == [k / float(2**64) for k in keys]

    @pytest.mark.parametrize("seed", [0, 5, U64_MAX])
    def test_ledger_draws_match_scalar_form(self, seed):
        manifest = TransferManifest("ds", (("f", 1e6),), 1e4)
        ledger = DestinationLedger(manifest, seed=seed)
        ids = list(range(len(manifest)))
        counts = np.arange(len(ids)) % 9 + 1
        for tag in (1, 2):
            got = ledger._draws(tag, ids, counts).tolist()
            want = [spawn_key(seed, (tag, c, int(s))) / 2**64 for c, s in zip(ids, counts)]
            assert got == want
