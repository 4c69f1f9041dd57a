import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from durasv.alignment import AlignedUtterance, PhonemeInventory
from durasv.errors import ConfigError, EmptyInputError
from durasv.features import (
    make_chunks,
    mean_duration_vector,
    sequence_from_utterances,
)


def inventory(n):
    return PhonemeInventory(tuple(f"P{i}" for i in range(n)))


def utterance(spk, uid, phones):
    return AlignedUtterance(uid, spk, phones)


def random_utterances(rng, n_classes, n_utts, max_phones=40, speaker="s0"):
    utts = []
    for i in range(n_utts):
        k = int(rng.integers(1, max_phones + 1))
        phones = [
            (int(rng.integers(0, n_classes)), int(rng.integers(1, 60)))
            for _ in range(k)
        ]
        utts.append(utterance(speaker, f"{speaker}-u{i}", phones))
    return utts


class TestRawDurationSequence:
    def test_rows_match_hand_example(self):
        seq = sequence_from_utterances([utterance("s", "u", [(2, 7), (0, 3)])], 4)
        assert seq.to_dense().tolist() == [[0, 0, 7, 0], [3, 0, 0, 0]]

    def test_single_phone_identity_case(self):
        seq = sequence_from_utterances([utterance("s", "u", [(0, 1)])], 1)
        assert seq.to_dense().tolist() == [[1]]

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            sequence_from_utterances([], 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_one_nonzero_per_row_and_sum_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        utts = random_utterances(rng, n, int(rng.integers(1, 5)))
        seq = sequence_from_utterances(utts, n)
        dense = seq.to_dense()
        assert np.all((dense != 0).sum(axis=1) == 1)
        total_frames = sum(int(u.phones[:, 1].sum()) for u in utts)
        assert dense.sum() == total_frames
        assert len(seq) == sum(len(u) for u in utts)


class TestMeanDurationArray:
    def test_hand_computation_with_fill(self):
        inv = inventory(3)
        utts = [utterance("s", "u", [(0, 4), (0, 6), (1, 10)])]
        vec = mean_duration_vector(utts, inv)
        assert vec.dtype == np.float64 and vec.shape == (3,)
        assert vec[0] == 5.0
        assert vec[1] == 10.0
        # class 2 is absent: the token mean of all three phones
        assert vec[2] == pytest.approx(20.0 / 3.0, abs=0)

    def test_constant_case(self):
        inv = inventory(4)
        utts = [utterance("s", "u", [(i, 9) for i in range(4)])]
        assert np.all(mean_duration_vector(utts, inv) == 9.0)

    def test_single_phone_fill_equals_only_observation(self):
        inv = inventory(2)
        vec = mean_duration_vector([utterance("s", "u", [(0, 8)])], inv)
        assert vec.tolist() == [8.0, 8.0]

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            mean_duration_vector([], inventory(2))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_brute_force_consistency(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        utts = random_utterances(rng, n, int(rng.integers(1, 4)))
        vec = mean_duration_vector(utts, inventory(n))
        phones = [(c, f) for u in utts for c, f in u.phones.tolist()]
        fill = sum(f for _, f in phones) / len(phones)
        for c in range(n):
            observed = [f for k, f in phones if k == c]
            if observed:
                # integer frame sums are exact in float64
                assert vec[c] == sum(observed) / len(observed)
            else:
                assert vec[c] == fill
        assert np.all(vec > 0)


class TestMakeChunks:
    def chunk_stream(self, rng, n_utts=40, lo=30, hi=90):
        utts = []
        for i in range(n_utts):
            k = int(rng.integers(lo, hi))
            phones = [(int(rng.integers(0, 6)), int(rng.integers(1, 30))) for _ in range(k)]
            utts.append(utterance("sp", f"u{i}", phones))
        return utts

    def test_lengths_stay_in_range(self):
        rng = np.random.default_rng(0)
        utts = self.chunk_stream(rng)
        chunks = make_chunks(utts, inventory(6), np.random.default_rng(1))
        assert chunks
        for c in chunks:
            assert 32 <= len(c) <= 256

    def test_degenerate_short_stream(self):
        utts = [utterance("sp", "u0", [(0, 2)] * 10)]
        chunks = make_chunks(utts, inventory(1), np.random.default_rng(0))
        assert len(chunks) == 1
        assert len(chunks[0]) == 10
        assert chunks[0].shift == 0

    def test_fixed_seed_reproduces_chunks(self):
        rng = np.random.default_rng(3)
        utts = self.chunk_stream(rng)
        first = make_chunks(utts, inventory(6), np.random.default_rng(42))
        second = make_chunks(utts, inventory(6), np.random.default_rng(42))
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert np.array_equal(a.rows.class_indices, b.rows.class_indices)
            assert np.array_equal(a.rows.lengths, b.rows.lengths)
            assert a.shift == b.shift
            assert a.source_utterances == b.source_utterances

    def test_shift_bound_holds(self):
        rng = np.random.default_rng(9)
        utts = self.chunk_stream(rng, n_utts=120)
        chunks = make_chunks(utts, inventory(6), np.random.default_rng(10))
        for c in chunks:
            assert 0 <= c.shift <= min(c.first_utt_len, len(c))

    def test_single_speaker_enforced(self):
        utts = [
            utterance("a", "u0", [(0, 1)] * 40),
            utterance("b", "u1", [(0, 1)] * 40),
        ]
        with pytest.raises(ValueError):
            make_chunks(utts, inventory(1), np.random.default_rng(0))

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            make_chunks([], inventory(1), np.random.default_rng(0))

    @pytest.mark.parametrize("n_phones", [30, 100])
    @pytest.mark.parametrize("min_len, max_len", [(50, 10), (0, 10), (-3, 10)])
    def test_chunk_bounds_rejected(self, n_phones, min_len, max_len):
        # 30 phones is less than min_len = 50 and 100 more: both paths check
        utts = [utterance("sp", "u0", [(0, 2)] * n_phones)]
        with pytest.raises(ConfigError, match="1 <= min_len <= max_len"):
            make_chunks(utts, inventory(1), np.random.default_rng(0), min_len, max_len)

    def test_chunks_never_mix_speakers_and_know_sources(self):
        rng = np.random.default_rng(4)
        utts = self.chunk_stream(rng)
        by_id = {u.utterance_id: u for u in utts}
        chunks = make_chunks(utts, inventory(6), np.random.default_rng(5))
        for c in chunks:
            assert c.speaker_id == "sp"
            assert c.source_utterances
            assert all(src in by_id for src in c.source_utterances)
