"""Tests for warps and cooperative groups."""

import numpy as np
import pytest

from repro.gpusim.warp import CooperativeGroup, ffs


class TestIntrinsics:
    @pytest.mark.parametrize("mask, expected", [(0, 0), (1, 1), (0b1000, 4), (0b1010, 2)])
    def test_ffs_matches_cuda_semantics(self, mask, expected):
        assert ffs(mask) == expected


class TestCooperativeGroup:
    def test_thread_ranks(self, recorder):
        cg = CooperativeGroup(4, recorder)
        assert list(cg.thread_ranks()) == [0, 1, 2, 3]

    def test_invalid_size_rejected(self, recorder):
        with pytest.raises(ValueError):
            CooperativeGroup(3, recorder)

    def test_strided_indices_cover_range_exactly_once(self, recorder):
        cg = CooperativeGroup(4, recorder)
        seen = []
        for lane_indices in cg.strided_indices(0, 10):
            seen.extend(int(i) for i in lane_indices)
        assert seen == list(range(10))

    def test_strided_indices_divergence_counted_for_ragged_tail(self, recorder):
        cg = CooperativeGroup(8, recorder)
        list(cg.strided_indices(0, 10))  # second stride has only 2 active lanes
        assert recorder.total.divergent_branches == 1

    def test_ballot_mask(self, recorder):
        cg = CooperativeGroup(4, recorder)
        mask = cg.ballot(np.array([True, False, True, False]))
        assert mask == 0b0101
        assert recorder.total.warp_intrinsics == 1

    def test_ballot_accepts_short_vote_vectors(self, recorder):
        cg = CooperativeGroup(8, recorder)
        assert cg.ballot(np.array([False, True])) == 0b10

    def test_ballot_rejects_too_many_votes(self, recorder):
        cg = CooperativeGroup(2, recorder)
        with pytest.raises(ValueError):
            cg.ballot(np.array([True, True, True]))

    def test_elect_leader(self, recorder):
        cg = CooperativeGroup(4, recorder)
        assert cg.elect_leader(0b1100) == 2
        assert cg.elect_leader(0) == -1
