import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from durasv.alignment import PhonemeInventory
from durasv.errors import ConfigError, EmptyInputError, MixedSpeakerSetError, ShapeMismatchError
from durasv.features import (
    make_chunks,
    mean_duration_vector,
    sequence_from_utterances,
)
from durasv.training import TrainConfig
from test_alignment import make_corpus

# the paper's chunk lengths U{32..256}, whose one home is TrainConfig
PAPER_BOUNDS = (TrainConfig.chunk_min, TrainConfig.chunk_max)


def inventory(n):
    return PhonemeInventory(tuple(f"P{i}" for i in range(n)))


def views(n_classes, rows):
    """The utterances of ``rows``, (speaker, utterance, phones) triples, as
    views of their corpus over ``n_classes`` classes."""
    return list(make_corpus(inventory(n_classes), rows).utterances)


def random_utterances(rng, n_classes, n_utts, max_phones=40, speaker="s0"):
    rows = []
    for i in range(n_utts):
        k = int(rng.integers(1, max_phones + 1))
        phones = [
            (int(rng.integers(0, n_classes)), int(rng.integers(1, 60)))
            for _ in range(k)
        ]
        rows.append((speaker, f"{speaker}-u{i}", phones))
    return views(n_classes, rows)


class TestRawDurationSequence:
    def test_rows_match_hand_example(self):
        seq = sequence_from_utterances(views(4, [("s", "u", [(2, 7), (0, 3)])]), 4)
        assert seq.to_dense().tolist() == [[0, 0, 7, 0], [3, 0, 0, 0]]

    def test_single_phone_identity_case(self):
        seq = sequence_from_utterances(views(1, [("s", "u", [(0, 1)])]), 1)
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
        utts = views(3, [("s", "u", [(0, 4), (0, 6), (1, 10)])])
        vec = mean_duration_vector(utts, inv)
        assert vec.dtype == np.float64 and vec.shape == (3,)
        assert vec[0] == 5.0
        assert vec[1] == 10.0
        # class 2 is absent: the token mean of all three phones
        assert vec[2] == pytest.approx(20.0 / 3.0, abs=0)

    def test_constant_case(self):
        inv = inventory(4)
        utts = views(4, [("s", "u", [(i, 9) for i in range(4)])])
        assert np.all(mean_duration_vector(utts, inv) == 9.0)

    def test_single_phone_fill_equals_only_observation(self):
        inv = inventory(2)
        vec = mean_duration_vector(views(2, [("s", "u", [(0, 8)])]), inv)
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


def reference_chunks(utterances, rng, min_len=32, max_len=256):
    """``make_chunks`` as its docstring states it, one draw at a time.

    Returns the chunks, each a ``(k, 2)`` array of (class, frames) rows of
    the shuffled stream, and every draw as ``(c, r, len(u1))``, the draw
    whose tail was dropped included.
    """
    shuffled = [utterances[i] for i in rng.permutation(len(utterances))]
    stream = np.concatenate([u.phones for u in shuffled])
    sizes = [len(u) for u in shuffled]
    utterance_length = np.repeat(sizes, sizes)  # of the utterance each phone is in
    chunks, draws = [], []
    pos = 0
    while len(stream) - pos >= min_len:
        c = int(rng.integers(min_len, max_len + 1))
        first = int(utterance_length[pos])
        r = int(rng.integers(0, min(first, c) + 1))
        draws.append((c, r, first))
        pos += r
        if len(stream) - pos < min_len:
            break
        chunks.append(stream[pos : pos + c])
        pos += len(chunks[-1])
    if not chunks:
        chunks.append(stream[:max_len])
    return chunks, draws


def replay(utterances, n_classes, seed, min_len=PAPER_BOUNDS[0], max_len=PAPER_BOUNDS[1]):
    """Assert that ``make_chunks`` gives ``reference_chunks``'s rows bit for
    bit, from as many draws, and that every draw keeps its bounds; return
    the chunks and the draws."""
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    chunks = make_chunks(utterances, inventory(n_classes), rng, min_len, max_len)
    want, draws = reference_chunks(utterances, reference_rng, min_len, max_len)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert len(chunks) == len(want)
    for got, rows in zip(chunks, want):
        assert got.n_classes == n_classes
        assert got.class_indices.dtype == np.int64 and got.lengths.dtype == np.float64
        assert np.array_equal(got.class_indices, rows[:, 0])
        assert np.array_equal(got.lengths, rows[:, 1])
    for c, r, first in draws:
        assert min_len <= c <= max_len
        assert 0 <= r <= min(first, c)
    # only the last chunk may fall short of its target length
    assert all(len(got) == c for got, (c, _, _) in zip(chunks[:-1], draws))
    return chunks, draws


class TestMakeChunks:
    def chunk_stream(self, rng, n_utts=40, lo=30, hi=90):
        rows = []
        for i in range(n_utts):
            k = int(rng.integers(lo, hi))
            phones = [(int(rng.integers(0, 6)), int(rng.integers(1, 30))) for _ in range(k)]
            rows.append(("sp", f"u{i}", phones))
        return views(6, rows)

    def test_lengths_stay_in_range(self):
        rng = np.random.default_rng(0)
        utts = self.chunk_stream(rng)
        chunks = make_chunks(utts, inventory(6), np.random.default_rng(1), *PAPER_BOUNDS)
        assert chunks
        for c in chunks:
            assert 32 <= len(c) <= 256

    def test_degenerate_short_stream(self):
        utts = views(1, [("sp", "u0", [(0, 2)] * 10)])
        chunks, draws = replay(utts, 1, 0)
        assert draws == []
        assert len(chunks) == 1
        assert chunks[0].lengths.tolist() == [2.0] * 10

    def test_fixed_seed_reproduces_chunks(self):
        rng = np.random.default_rng(3)
        utts = self.chunk_stream(rng)
        first, _ = replay(utts, 6, 42)
        second = make_chunks(utts, inventory(6), np.random.default_rng(42), *PAPER_BOUNDS)
        assert len(first) == len(second) > 1
        for a, b in zip(first, second):
            assert np.array_equal(a.class_indices, b.class_indices)
            assert np.array_equal(a.lengths, b.lengths)

    def test_shift_bound_holds(self):
        # replay checks r <= min(len(u1), c) for every draw
        rng = np.random.default_rng(9)
        _, draws = replay(self.chunk_stream(rng, n_utts=120), 6, 10)
        assert len(draws) > 30

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(32, 256), (1, 1), (3, 17), (40, 60), (300, 400)]),
    )
    def test_replay_on_short_and_long_streams(self, seed, bounds):
        # 1-5 utterances of 1-299 phones: one-utterance streams, streams
        # shorter than min_len and streams whose shift starves the tail
        rng = np.random.default_rng(seed)
        utts = random_utterances(rng, 4, int(rng.integers(1, 6)), max_phones=299, speaker="sp")
        replay(utts, 4, seed, *bounds)

    def test_last_chunk_can_be_shorter_than_its_shift(self):
        # r is drawn against the target length c, and the last chunk takes
        # only what is left of the stream
        for seed in range(200):
            rng = np.random.default_rng(seed)
            utts = random_utterances(rng, 4, 3, max_phones=299, speaker="sp")
            chunks, draws = replay(utts, 4, seed)
            if len(draws) == len(chunks) and len(chunks[-1]) < draws[-1][1]:
                return
        pytest.fail("no stream of 200 ends in a chunk shorter than its shift")

    def test_single_speaker_enforced(self):
        utts = views(1, [(spk, f"u{i}", [(0, 1)] * 40) for i, spk in enumerate("aba")])
        # the ids come in the order the draw shuffled them to
        order = ",".join(f"u{i}" for i in np.random.default_rng(0).permutation(3))
        want = rf"^utterance set {order} mixes speakers \['a', 'b'\]$"
        with pytest.raises(MixedSpeakerSetError, match=want) as caught:
            make_chunks(utts, inventory(1), np.random.default_rng(0), *PAPER_BOUNDS)
        assert isinstance(caught.value, ValueError)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            make_chunks([], inventory(1), np.random.default_rng(0), *PAPER_BOUNDS)

    @pytest.mark.parametrize("n_phones", [30, 100])
    @pytest.mark.parametrize("min_len, max_len", [(50, 10), (0, 10), (-3, 10)])
    def test_chunk_bounds_rejected(self, n_phones, min_len, max_len):
        # 30 phones is less than min_len = 50 and 100 more: both paths check
        utts = views(1, [("sp", "u0", [(0, 2)] * n_phones)])
        want = f"^max_len must be >= {min_len}$" if min_len >= 1 else "^min_len must be >= 1$"
        with pytest.raises(ConfigError, match=want):
            make_chunks(utts, inventory(1), np.random.default_rng(0), min_len, max_len)

    @pytest.mark.parametrize(
        "min_len, max_len, name",
        [
            (32.5, 40.5, "min_len"),
            (32, 40.0, "max_len"),
            (True, 40, "min_len"),
            ("32", 40, "min_len"),
        ],
    )
    def test_non_integer_chunk_bounds_rejected(self, min_len, max_len, name):
        # 32.5 was a bare TypeError from a slice deep in the sampler
        utts = views(1, [("sp", "u0", [(0, 2)] * 100)])
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            make_chunks(utts, inventory(1), np.random.default_rng(0), min_len, max_len)

    def test_numpy_integer_chunk_bounds_taken(self):
        utts = views(1, [("sp", "u0", [(0, 2)] * 100)])
        got = make_chunks(utts, inventory(1), np.random.default_rng(0), np.int64(32), np.int32(40))
        want = make_chunks(utts, inventory(1), np.random.default_rng(0), 32, 40)
        assert [len(c) for c in got] == [len(c) for c in want]


# each per-set helper, given utterances over a 2-class inventory
PER_SET_HELPERS = {
    "mean_duration_vector": lambda utts: mean_duration_vector(utts, inventory(2)),
    "make_chunks": lambda utts: make_chunks(utts, inventory(2), np.random.default_rng(0), 1, 4),
}


@pytest.mark.parametrize("helper", PER_SET_HELPERS)
@pytest.mark.parametrize(
    "phones",
    [[(0, 0), (1, 3)], [(0, 3), (1, -4)], [(0, 3), (7, 2)]],
    ids=["frames-0", "frames-minus-4", "class-past-the-inventory"],
)
def test_per_set_helpers_refuse_rows_the_inventory_cannot_hold(helper, phones):
    # the corpus refuses a frame count below 1, so no view holds one; the
    # helper refuses a class its inventory lacks, here one of an 8-class corpus
    with pytest.raises((ValueError, ShapeMismatchError), match="utterance 'u1'"):
        PER_SET_HELPERS[helper](views(8, [("s", "u0", [(1, 5)]), ("s", "u1", phones)]))
