import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from durasv.alignment import (
    AlignedUtterance,
    Corpus,
    PhonemeInventory,
    arpabet_positional_inventory,
    load_inventory,
    parse_alignment,
    write_alignment,
)
from durasv.errors import (
    DuplicateLabelError,
    EmptyInventoryError,
    MalformedLineError,
    NonPositiveLengthError,
    UnknownPhonemeError,
    UnknownUtteranceError,
)


def make_corpus(inventory, rows):
    """rows: list of (speaker, utt, [(class_index, frames), ...])"""
    utts = tuple(AlignedUtterance(utt, spk, phones) for spk, utt, phones in rows)
    return Corpus(inventory, utts)


class TestInventory:
    def test_direct_construction(self):
        inv = load_inventory(["AA1_B", "AA1_I", "SIL"])
        assert inv.size == 3
        assert inv.index_of["SIL"] == 2
        assert inv.symbols == ("AA1_B", "AA1_I", "SIL")

    def test_full_positional_stress_table_has_336_classes(self):
        assert arpabet_positional_inventory().size == 336

    def test_duplicate_label_reports_line(self):
        with pytest.raises(DuplicateLabelError) as err:
            load_inventory(["AH", "AH"])
        assert err.value.label == "AH"
        assert err.value.line == 2

    def test_comments_and_blanks_skipped(self):
        inv = load_inventory(["# header", "", "AA  # vowel", "B"])
        assert inv.symbols == ("AA", "B")

    def test_empty_inventory(self):
        with pytest.raises(EmptyInventoryError):
            load_inventory(["# nothing"])

    def test_index_matches_order(self):
        inv = arpabet_positional_inventory()
        for i, label in enumerate(inv.symbols):
            assert inv.index_of[label] == i


class TestParseAlignment:
    INV = PhonemeInventory(("SIL", "AA1_B", "T_E"))

    def test_two_line_utterance(self):
        corpus = parse_alignment(["spkA u1 SIL 12", "spkA u1 AA1_B 7"], self.INV)
        assert len(corpus) == 1
        utt = corpus.utterances[0]
        assert utt.speaker_id == "spkA"
        assert utt.phones.dtype == np.int32
        assert utt.phones.tolist() == [[0, 12], [1, 7]]

    def test_unknown_phoneme(self):
        with pytest.raises(UnknownPhonemeError) as err:
            parse_alignment(["spkA u1 ZZZ 5"], self.INV)
        assert err.value.label == "ZZZ"
        assert err.value.line == 1

    def test_non_positive_length(self):
        with pytest.raises(NonPositiveLengthError) as err:
            parse_alignment(["spkA u1 SIL 0"], self.INV)
        assert err.value.line == 1

    def test_malformed_line(self):
        with pytest.raises(MalformedLineError) as err:
            parse_alignment(["spkA u1 SIL"], self.INV)
        assert err.value.line == 1

    def test_non_integer_frames(self):
        with pytest.raises(MalformedLineError):
            parse_alignment(["spkA u1 SIL twelve"], self.INV)

    def test_non_contiguous_utterance_rejected(self):
        lines = ["a u1 SIL 3", "a u2 SIL 4", "a u1 SIL 5"]
        with pytest.raises(MalformedLineError) as err:
            parse_alignment(lines, self.INV)
        assert err.value.line == 3

    def test_comma_in_utterance_id_rejected(self):
        with pytest.raises(MalformedLineError) as err:
            parse_alignment(["a u1 SIL 3", "a u2,u3 SIL 4"], self.INV)
        assert err.value.line == 2

    def test_speaker_change_mid_utterance_rejected(self):
        with pytest.raises(MalformedLineError):
            parse_alignment(["a u1 SIL 3", "b u1 SIL 4"], self.INV)

    def test_exclusion_list_drops_labels(self):
        lines = ["a u1 SIL 9", "a u1 AA1_B 4", "a u1 SIL 2"]
        corpus = parse_alignment(lines, self.INV, exclude=["SIL"])
        assert corpus.utterances[0].phones[:, 0].tolist() == [1]

    def test_exclusion_can_remove_whole_utterance(self):
        lines = ["a u1 SIL 9", "a u2 AA1_B 4"]
        corpus = parse_alignment(lines, self.INV, exclude=["SIL"])
        assert [u.utterance_id for u in corpus.utterances] == ["u2"]

    def test_by_speaker_partitions_utterances(self):
        lines = ["a u1 SIL 1", "b u2 SIL 2", "a u3 SIL 3"]
        corpus = parse_alignment(lines, self.INV)
        assert corpus.by_speaker == {"a": (0, 2), "b": (1,)}
        indices = sorted(i for ix in corpus.by_speaker.values() for i in ix)
        assert indices == list(range(len(corpus)))

    def test_unknown_utterance_lookup(self):
        corpus = parse_alignment(["a u1 SIL 1"], self.INV)
        with pytest.raises(UnknownUtteranceError):
            corpus.utterance("nope")

    def test_frame_count_above_int32_rejected(self):
        corpus = parse_alignment(["a u1 SIL 2147483647"], self.INV)
        assert corpus.utterances[0].phones.tolist() == [[0, 2**31 - 1]]
        with pytest.raises(MalformedLineError, match="2147483648") as err:
            parse_alignment(["a u1 SIL 2147483648"], self.INV)
        assert err.value.line == 1


class TestCorpusValidation:
    INV = PhonemeInventory(("SIL", "AA1_B", "T_E"))

    @pytest.mark.parametrize(
        "rows, utt_id",
        [
            ([("a", "u1", [(0, 3)]), ("a", "u2", [(1, 4), (3, 2)])], "u2"),
            ([("a", "u1", [(0, 3)]), ("b", "u2", [(-1, 2)])], "u2"),
            ([("a", "u1", [(0, 3), (1, 0)]), ("a", "u2", [(0, 1)])], "u1"),
            ([("a", "u1", [(0, 3)]), ("a", "u2", [(2, 1)]), ("b", "u3", [(1, -4)])], "u3"),
            ([("a", "u1", [(0, 3)]), ("b", "u1", [(1, 2)])], "u1"),
        ],
        ids=["class-index-too-large", "class-index-negative", "zero-frames",
             "negative-frames", "duplicate-id"],
    )
    def test_invalid_corpus_names_the_utterance(self, rows, utt_id):
        with pytest.raises(ValueError, match=f"utterance (id )?'{utt_id}'"):
            make_corpus(self.INV, rows)

    @pytest.mark.parametrize("phones", [[], (), np.zeros((0, 2), dtype=np.int32)])
    def test_empty_utterance_rejected(self, phones):
        with pytest.raises(ValueError, match="utterance 'u7'"):
            AlignedUtterance("u7", "a", phones)

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("value", [2**31, 2**32 + 5, -(2**31) - 1, 2**63, 2**64])
    def test_value_outside_int32_rejected_not_wrapped(self, value, column):
        phones = [[1, 3], [1, 3]]
        phones[1][column] = value
        with pytest.raises(ValueError, match="utterance 'u1'"):
            AlignedUtterance("u1", "a", np.array(phones))

    @pytest.mark.parametrize(
        "phones", [[(1, 2, 3)], [1, 2], np.array([[0, 1.5]]), np.ones((1, 2, 1), dtype=int)]
    )
    def test_phones_must_be_k_by_2_integers(self, phones):
        with pytest.raises(ValueError, match="utterance 'u1'"):
            AlignedUtterance("u1", "a", phones)

    def test_phones_stored_as_int32(self):
        utt = AlignedUtterance("u1", "a", [(2, 7), (0, 2**31 - 1)])
        assert utt.phones.dtype == np.int32 and utt.phones.shape == (2, 2)
        assert utt.phones.tolist() == [[2, 7], [0, 2**31 - 1]]
        assert len(utt) == 2
        with pytest.raises(ValueError, match="read-only"):
            utt.phones[0, 1] = 0

    def test_equality_compares_ids_and_phone_values(self):
        utt = AlignedUtterance("u1", "a", [(2, 7), (0, 3)])
        assert utt == AlignedUtterance("u1", "a", np.array([[2, 7], [0, 3]], np.int64))
        assert utt != AlignedUtterance("u1", "a", [(2, 7), (0, 4)])
        assert utt != AlignedUtterance("u1", "a", [(2, 7)])
        assert utt != AlignedUtterance("u1", "b", [(2, 7), (0, 3)])
        assert utt != AlignedUtterance("u2", "a", [(2, 7), (0, 3)])
        assert utt != ("u1", "a", [(2, 7), (0, 3)])

    def test_empty_corpus_constructs(self):
        corpus = Corpus(self.INV, ())
        assert len(corpus) == 0 and corpus.by_speaker == {} and corpus.speakers == ()


class TestRoundTrip:
    INV = PhonemeInventory(("SIL", "AA1_B", "T_E"))

    def test_empty_corpus_writes_nothing(self):
        sink = io.StringIO()
        write_alignment(Corpus(self.INV, ()), sink)
        assert sink.getvalue() == ""

    def test_single_utterance_round_trip(self):
        corpus = make_corpus(self.INV, [("a", "u1", [(0, 12), (1, 7)])])
        sink = io.StringIO()
        write_alignment(corpus, sink)
        again = parse_alignment(io.StringIO(sink.getvalue()), self.INV)
        assert again == corpus

    def test_synthetic_corpus_byte_identical_after_two_round_trips(self):
        rng = np.random.default_rng(1234)
        rows = []
        for s in range(20):
            for u in range(5):
                phones = [
                    (int(rng.integers(0, 3)), int(rng.integers(1, 40)))
                    for _ in range(int(rng.integers(1, 30)))
                ]
                rows.append((f"spk{s}", f"spk{s}-u{u}", phones))
        corpus = make_corpus(self.INV, rows)
        first = io.StringIO()
        write_alignment(corpus, first)
        reparsed = parse_alignment(io.StringIO(first.getvalue()), self.INV)
        second = io.StringIO()
        write_alignment(reparsed, second)
        assert first.getvalue() == second.getvalue()
        assert reparsed == corpus

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.lists(st.tuples(st.integers(0, 2), st.integers(1, 500)), min_size=1, max_size=20),
            ),
            min_size=0,
            max_size=10,
        )
    )
    def test_round_trip_property(self, utt_specs):
        rows = [
            (f"s{spk}", f"u{i}", phones) for i, (spk, phones) in enumerate(utt_specs)
        ]
        corpus = make_corpus(self.INV, rows)
        sink = io.StringIO()
        write_alignment(corpus, sink)
        assert parse_alignment(io.StringIO(sink.getvalue()), self.INV) == corpus
