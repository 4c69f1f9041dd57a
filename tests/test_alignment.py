import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from durasv import alignment, errors
from durasv.alignment import (
    Corpus,
    PhonemeInventory,
    arpabet_positional_inventory,
    load_inventory,
    parse_alignment,
    write_alignment,
)
from durasv.embeddings import score_trials_embedding
from durasv.errors import (
    AlignmentParseError,
    ConfigError,
    DuplicateLabelError,
    EmptyInventoryError,
    MalformedLineError,
    NonPositiveLengthError,
    NotUtf8Error,
    UnknownPhonemeError,
    UnknownUtteranceError,
    open_text,
)
from durasv.evaluation import build_trials, read_scores, read_trials
from durasv.metric import score_trials_metric
from durasv.model import tiny_gradcheck_config
from durasv.synth import SynthConfig, generate_corpus, sample_speakers, synthetic_inventory
from durasv.training import TrainConfig, train


def reference_parse(source, inventory, exclude=()):
    """The line-by-line parser ``parse_alignment`` must agree with."""
    excluded = frozenset(exclude)
    rows = []
    finished = set()
    cur_utt = cur_spk = None
    cur_phones = []

    def flush():
        if cur_phones:
            rows.append((cur_spk, cur_utt, cur_phones))

    for lineno, raw in enumerate(source, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) != 4:
            raise MalformedLineError(
                f"expected 4 whitespace-separated fields, got {len(fields)}", lineno
            )
        speaker_id, utterance_id, label, frames_text = fields
        try:
            frames = int(frames_text)
        except ValueError:
            raise MalformedLineError(
                f"frame count {frames_text!r} is not an integer", lineno
            ) from None
        if frames < 1:
            raise NonPositiveLengthError(lineno)
        if frames > 2**31 - 1:
            raise MalformedLineError(f"frame count {frames} exceeds 2^31 - 1", lineno)
        if utterance_id != cur_utt:
            if "," in utterance_id:
                raise MalformedLineError(f"',' in utterance id {utterance_id!r}", lineno)
            if utterance_id in finished:
                raise MalformedLineError(
                    f"utterance {utterance_id!r} reappears non-contiguously", lineno
                )
            flush()
            finished.add(cur_utt)
            cur_utt, cur_spk, cur_phones = utterance_id, speaker_id, []
        elif speaker_id != cur_spk:
            raise MalformedLineError(
                f"utterance {utterance_id!r} changes speaker mid-stream", lineno
            )
        if label in excluded:
            continue
        if label not in inventory:
            raise UnknownPhonemeError(label, lineno)
        cur_phones.append((inventory.index_of[label], frames))

    flush()
    return make_corpus(inventory, rows)


def outcome(parse):
    """A parse's corpus, or its error's type, message and line."""
    try:
        return parse()
    except AlignmentParseError as exc:
        return type(exc), str(exc), exc.line


def make_corpus(inventory, rows):
    """The corpus of ``rows``, each a (speaker, utterance, phones) triple in
    corpus order, ``phones`` a sequence of (class index, frames) pairs.

    The tests' one way to build a corpus from per-utterance rows: the
    rows are stacked into one table and passed to ``Corpus``, which checks
    them; utterance objects are then views taken from the corpus.
    """
    tables = [np.asarray(phones, dtype=np.int64).reshape(-1, 2) for _, _, phones in rows]
    return Corpus(
        inventory,
        np.concatenate([np.empty((0, 2), np.int64), *tables]),
        np.cumsum([0, *map(len, tables)]),
        [utt for _, utt, _ in rows],
        [spk for spk, _, _ in rows],
    )


def reference_write(corpus, sink):
    """The per-phone writer ``write_alignment`` must agree with byte for byte."""
    symbols = corpus.inventory.symbols
    for utt in corpus.utterances:
        for class_index, frames in utt.phones.tolist():
            sink.write(f"{utt.speaker_id} {utt.utterance_id} {symbols[class_index]} {frames}\n")


# tokens with non-ASCII code points and no whitespace (categories Z and C
# hold every code point ``str.split`` splits on), ``#`` or ``,``
TOKEN = st.text(
    st.characters(blacklist_categories=("Z", "C"), blacklist_characters="#,"),
    min_size=1,
    max_size=6,
)


# any text, with whitespace, ``#`` and ``,`` drawn often
ANY_TEXT = st.text(st.characters() | st.sampled_from(" \t\r\x85#,"), max_size=4)


@st.composite
def table_corpora(draw):
    """Row-built corpora over drawn labels, ids and frame counts."""
    symbols = draw(st.lists(TOKEN, min_size=1, max_size=4, unique=True))
    speakers = draw(st.lists(TOKEN, min_size=1, max_size=3, unique=True))
    frames = st.one_of(st.integers(1, 12), st.integers(1, 2**31 - 1))
    phones = st.lists(st.tuples(st.integers(0, len(symbols) - 1), frames), min_size=1, max_size=5)
    rows = [
        (draw(st.sampled_from(speakers)), utt_id, draw(phones))
        for utt_id in draw(st.lists(TOKEN, max_size=8, unique=True))
    ]
    return make_corpus(PhonemeInventory(tuple(symbols)), rows)


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

    @pytest.mark.parametrize("label", ["B 1", "B\t1", "B\u20031", "B\x1c1"])
    def test_label_with_whitespace_rejected(self, label):
        with pytest.raises(MalformedLineError, match="whitespace") as err:
            load_inventory(["AA", label])
        assert err.value.line == 2
        with pytest.raises(ValueError, match="whitespace"):
            PhonemeInventory(("AA", label))

    def test_index_matches_order(self):
        inv = arpabet_positional_inventory()
        for i, label in enumerate(inv.symbols):
            assert inv.index_of[label] == i


class TestByteOrderMark:
    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "marked"])
    def test_files_read_alike_with_and_without_a_mark(self, tmp_path, mark):
        # a marked alignment once gave the speakers ('\ufeffS001', 'S001'),
        # and a marked inventory left its first label unmatched
        (tmp_path / "inventory.txt").write_bytes(mark + b"AA\nB\n")
        (tmp_path / "alignment.txt").write_bytes(mark + b"S001 u1 AA 3\nS001 u2 B 4\n")
        with open_text(tmp_path / "inventory.txt") as handle:
            inventory = load_inventory(handle)
        with open_text(tmp_path / "alignment.txt") as handle:
            corpus = parse_alignment(handle, inventory)
        assert inventory.symbols == ("AA", "B")
        assert corpus.speakers == ("S001",) and corpus.utterance_ids == ("u1", "u2")
        assert corpus.phones.tolist() == [[0, 3], [1, 4]]

    def test_bad_byte_counted_from_the_first_byte_of_a_marked_file(self, tmp_path):
        path = tmp_path / "inventory.txt"
        path.write_bytes(b"\xef\xbb\xbfAA\n\xe9B\n")
        with pytest.raises(NotUtf8Error) as err:
            with open_text(path) as handle:
                load_inventory(handle)
        assert (err.value.line, err.value.offset) == (2, 6)


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

    @pytest.mark.parametrize("label", ["SIL ", "", "S#IL", "\u2003SIL"])
    def test_exclusion_label_no_line_can_carry_is_refused(self, label):
        with pytest.raises(ConfigError, match="excluded label"):
            parse_alignment(["a u1 SIL 9", "a u1 AA1_B 4"], self.INV, exclude=["SIL", label])

    def test_one_string_in_place_of_the_exclusion_list_is_refused(self):
        # a string is a sequence of its characters, so "SIL" would exclude S, I and L
        with pytest.raises(ConfigError, match="'SIL' is one string; exclude takes a sequence"):
            parse_alignment(["a u1 SIL 9", "a u1 AA1_B 4"], self.INV, exclude="SIL")

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


# label tokens drawn from few code points, so that near misses are common and
# labels run past one 8-byte key word at either width
LABEL = st.text(st.sampled_from("AB_01\xdf\u014b"), min_size=1, max_size=20)


class TestLabelLookup:
    """Label tokens are found exactly, at both code-point widths, for any inventory."""

    def test_colliding_labels_terminate(self):
        # a linear hash over the code points gave these labels one value for
        # every multiplier tried, so building the lookup never ended; the
        # parse runs in a child process, so that a hang fails the test
        script = (
            "from durasv.alignment import *\n"
            "lines = ['s u B_E 3', 's u K_B 4', 's u B_E 5']\n"
            "corpus = parse_alignment(lines, PhonemeInventory(('B_E', 'K_B')))\n"
            "assert corpus.phones.tolist() == [[0, 3], [1, 4], [0, 5]]\n"
            "parse_alignment(['s u AA_B 3'], arpabet_positional_inventory())\n"
        )
        src = os.path.dirname(os.path.dirname(alignment.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)

    @pytest.mark.parametrize("speaker", ["s", "\u0161"])
    def test_every_arpabet_label_maps_to_its_index(self, speaker):
        inv = arpabet_positional_inventory()
        lines = [f"{speaker} u{i // 8} {label} {i + 1}" for i, label in enumerate(inv.symbols)]
        corpus = parse_alignment(lines, inv)
        assert corpus.phones[:, 0].tolist() == list(range(inv.size))
        assert corpus == reference_parse(lines, inv)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(LABEL, min_size=1, max_size=12, unique=True), st.data())
    def test_labels_found_and_near_misses_unknown(self, labels, data):
        inv = PhonemeInventory(tuple(labels))
        label = data.draw(st.sampled_from(labels))
        at = data.draw(st.integers(0, len(label)))
        point = data.draw(st.sampled_from("AB_01\xdf\u014bZ"))
        near = data.draw(
            st.sampled_from((label[:at] + point + label[at:], label[:at] + point + label[at + 1 :]))
            if at < len(label)
            else st.just(label + point)
        )
        if len(label) > 1:
            near = data.draw(st.sampled_from((near, label[:at] + label[at + 1 :])))
        for speaker in ("s", "\u0161"):  # an ASCII block, then a wide one
            lines = [f"{speaker} u {symbol} 1" for symbol in labels]
            assert parse_alignment(lines, inv).phones[:, 0].tolist() == list(range(len(labels)))
            lines.append(f"{speaker} u {near} 1")
            got = outcome(lambda: parse_alignment(lines, inv))
            assert got == outcome(lambda: reference_parse(lines, inv))
            assert isinstance(got, Corpus) == (near in inv)


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
            ([("a", "u1", [(0, 3)]), ("a", "", [(1, 2)])], ""),
            ([("a", "u 1", [(0, 3)])], "u 1"),
            ([("a", "u1", [(0, 3)]), ("a", "u#2", [(1, 2)])], "u#2"),
            ([("a", "u1,u2", [(0, 3)])], "u1,u2"),
        ],
        ids=["class-index-too-large", "class-index-negative", "zero-frames",
             "negative-frames", "duplicate-id", "empty-id", "space-in-id", "hash-in-id",
             "comma-in-id"],
    )
    def test_invalid_corpus_names_the_utterance(self, rows, utt_id):
        with pytest.raises(ValueError, match=f"utterance (id )?'{utt_id}'"):
            make_corpus(self.INV, rows)

    def test_empty_corpus_constructs(self):
        corpus = make_corpus(self.INV, [])
        assert len(corpus) == 0 and corpus.by_speaker == {} and corpus.speakers == ()
        assert Corpus(self.INV, np.empty((0, 2), np.int64), [0], (), ()) == corpus

    @pytest.mark.parametrize("speaker", ["", "a b", "a\tb", "a#"])
    def test_speaker_id_a_file_cannot_carry_rejected(self, speaker):
        with pytest.raises(ValueError, match=re.escape(f"speaker id {speaker!r}")):
            make_corpus(self.INV, [("a", "u1", [(0, 3)]), (speaker, "u2", [(1, 2)])])

    def test_duplicate_label_is_a_value_error(self):
        with pytest.raises(ValueError) as err:
            PhonemeInventory(("A", "B", "A"))
        assert isinstance(err.value, DuplicateLabelError) and err.value.line is None
        assert str(err.value) == "duplicate phoneme label 'A'"

    def test_label_and_id_sequences_kept_as_tuples(self):
        assert PhonemeInventory(["a", "b"]) == PhonemeInventory(("a", "b"))
        assert PhonemeInventory(["a", "b"]).symbols == ("a", "b")
        corpus = Corpus(self.INV, np.array([[0, 3], [1, 2]]), [0, 1, 2], ["u1", "u2"], ["a", "a"])
        assert corpus.utterance_ids == ("u1", "u2") and corpus.speakers == ("a",)

    @pytest.mark.parametrize(
        "build, args, name",
        [
            (PhonemeInventory, ("ABC",), "symbols"),
            (Corpus, (INV, np.array([[0, 3], [1, 2]]), [0, 1, 2], "ab", "ss"), "utterance_ids"),
            (Corpus, (INV, np.array([[0, 3], [1, 2]]), [0, 1, 2], ("a", "b"), "ss"), "speaker_ids"),
            (load_inventory, ("phones",), "source"),
            (parse_alignment, ("alignment", INV), "source"),
            (read_trials, ("trials",), "source"),
            (read_scores, ("scores",), "source"),
        ],
        ids=[
            "inventory-labels", "utterance-ids", "speaker-ids",
            "inventory-source", "alignment-source", "trial-source", "score-source",
        ],
    )
    def test_one_string_in_place_of_a_sequence_refused(self, build, args, name):
        # a string is a sequence of its characters: "ABC" built the labels A, B
        # and C, and load_inventory("phones") the labels p, h, o, n, e and s,
        # where the other readers failed on a line's field count
        with pytest.raises(ValueError, match=f"^{name} '[a-zA-Z]+' is one string; {name} takes"):
            build(*args)

    class BinaryFile:
        """A parameter the test replaces with its ``open(path)``, a file opened "rb"."""

        def __init__(self, **options):
            self.options = options

        def open(self, path):
            return path.open("rb", **self.options)

    class SpooledFile(BinaryFile):
        """A binary file whose class is none of ``io``'s binary classes."""

        def open(self, path):
            spooled = tempfile.SpooledTemporaryFile()
            spooled.write(path.read_bytes())
            spooled.seek(0)
            return spooled

    BINARY = "source .+ is binary; source takes a file opened in text mode or an iterable of lines"

    @pytest.mark.parametrize(
        "build, args, error, want",
        [
            (load_inventory, (BinaryFile(),), ValueError, BINARY),
            (parse_alignment, (BinaryFile(), INV), ValueError, BINARY),
            (parse_alignment, (BinaryFile(buffering=0), INV), ValueError, BINARY),
            (read_trials, (io.BytesIO(b"# trials\n"),), ValueError, BINARY),
            (read_scores, (b"# scores\n",), ValueError, BINARY),
            (load_inventory, (bytearray(b"A\n"),), ValueError, BINARY),
            (read_scores, (SpooledFile(),), ValueError, BINARY),
            (PhonemeInventory, (5,), ValueError,
             "symbols 5 is not a sequence; symbols takes a sequence of phoneme labels"),
            (Corpus, (INV, np.array([[0, 3]]), [0, 1], 5, ["a"]), ValueError,
             "utterance_ids 5 is not a sequence; utterance_ids takes a sequence of utterance ids"),
            (parse_alignment, ([], INV, 5), ConfigError,
             "exclude 5 is not a sequence; exclude takes a sequence of excluded labels"),
        ],
        ids=[
            "inventory-file", "alignment-file", "alignment-raw-file", "trial-bytesio",
            "score-bytes", "inventory-bytearray", "score-spooled-file", "inventory-labels",
            "utterance-ids", "excluded-labels",
        ],
    )
    def test_binary_source_or_non_iterable_sequence_refused(
        self, tmp_path, build, args, error, want
    ):
        # each was a bare TypeError from the first text operation or from tuple()
        path = tmp_path / "source.txt"
        path.write_bytes(b"A\n")
        with contextlib.ExitStack() as files, pytest.raises(error, match=f"^{want}$"):
            build(*(
                files.enter_context(a.open(path)) if isinstance(a, self.BinaryFile) else a
                for a in args
            ))

    @pytest.mark.parametrize(
        "tokens, bad",
        [
            (("a", "", "b"), ""),
            (("\u014b", "", "b"), ""),
            (("",), ""),
            (("a", "b\u3000c"), "b\u3000c"),
            (("\U0001f600", "x\u2003", "y\n"), "x\u2003"),
            (("a\x1c",), "a\x1c"),
        ],
    )
    def test_token_check_names_the_first_bad_token(self, tokens, bad):
        with pytest.raises(ValueError, match=re.escape(f"phoneme label {bad!r} is empty")):
            alignment._check_tokens("phoneme label", tokens, "#")

    @pytest.mark.parametrize(
        "build, args, error, want",
        [
            (PhonemeInventory, ((1, 2),), ValueError, "phoneme label 1"),
            (Corpus, (INV, np.array([[0, 3]]), [0, 1], [5], ["a"]), ValueError, "utterance id 5"),
            (Corpus, (INV, np.array([[0, 3]]), [0, 1], ["u1"], [b"a"]), ValueError, "speaker id b'a'"),
            (parse_alignment, ([], INV, [None]), ConfigError, "excluded label None"),
        ],
        ids=["inventory-label", "utterance-id", "speaker-id", "excluded-label"],
    )
    def test_token_that_is_not_a_string_raises_the_callers_error(self, build, args, error, want):
        # each was a bare TypeError from joining the tokens
        with pytest.raises(error, match=f"^{re.escape(want)} is not a string$"):
            build(*args)

    def test_code_points_past_the_whitespace_table_are_token_code_points(self):
        # the table ends at U+3001; str.split() splits on no code point above U+3000
        tokens = ("\u3001", "\u3002", "\uffff", "\U0010ffff", "\ud800", "a\U0001f600b")
        alignment._check_tokens("phoneme label", tokens, "#")
        assert all(t.split() == [t] for t in tokens)

    def test_label_holding_a_comment_mark_rejected(self):
        with pytest.raises(ValueError, match="phoneme label 'AA#1'"):
            PhonemeInventory(("SIL", "AA#1"))

    @pytest.mark.parametrize(
        "phones, offsets, speakers, message",
        [
            ([[0, 3], [1, 2]], [1, 2], "ab", "offsets must run from 0 to 2"),
            ([[0, 3], [1, 2]], [0, 1], "ab", "offsets must run from 0 to 2"),
            ([[0, 3], [1, 2]], [0, 1, 2, 2], "ab", "offsets must run from 0 to 2"),
            ([[0, 3], [1, 2]], [0.0, 1.0, 2.0], "ab", "offsets must run from 0 to 2"),
            ([[0, 3], [1, 2]], [0, 2, 2], "ab", "utterance 'u2' holds no phones"),
            ([[0, 3], [1, 2]], [0, 3, 2], "ab", "utterance 'u2' holds no phones"),
            ([[0, 3], [1, 2]], np.array([0, 3, 2], np.uint64), "ab", "'u2' holds no phones"),
            ([[0, 3], [1.0, 2]], [0, 1, 2], "ab", r"corpus needs \(K, 2\) integer phones"),
            ([[0, 3, 1], [1, 2, 1]], [0, 1, 2], "ab", r"corpus needs \(K, 2\) integer phones"),
            ([[0, 3], [1, 2]], [0, 1, 2], "a", "1 speaker ids for 2 utterances"),
            ([[0, 3], [3, 2]], [0, 1, 2], "ab", r"'u2': phone \[3, 2\] needs a class index in \[0, 3"),
            ([[0, 3], [1, 0]], [0, 1, 2], "ab", r"'u2': phone \[1, 0\] needs a class index"),
            ([[0, 3], [1, 2**31]], [0, 1, 2], "ab", "'u2': phones exceed int32"),
            ([[0, 2**32 + 3], [1, 2]], [0, 1, 2], "ab", "'u1': phones exceed int32"),
            (np.zeros((0, 2), np.int32), [0, 0, 0], "ab", "utterance 'u1' holds no phones"),
            ([1, 2], [0, 1, 2], "ab", r"corpus needs \(K, 2\) integer phones"),
            (np.ones((2, 2, 1), int), [0, 1, 2], "ab", r"corpus needs \(K, 2\) integer phones"),
            # a value outside int32, in either column, is refused, never wrapped
            *(
                ([[0, 3], row], [0, 1, 2], "ab", "'u2': phones exceed int32")
                for value in (2**31, 2**32 + 5, -(2**31) - 1)
                for row in ([value, 2], [1, value])
            ),
            *(
                (np.array([[0, 3], row], np.uint64), [0, 1, 2], "ab", "'u2': phones exceed int32")
                for row in ([2**63, 2], [1, 2**64 - 1])
            ),
            # numpy holds these rows as floats or objects
            *(
                ([[0, 3], row], [0, 1, 2], "ab", r"corpus needs \(K, 2\) integer phones")
                for value in (2**63, 2**64)
                for row in ([value, 2], [1, value])
            ),
        ],
    )
    def test_table_constructor_checks_the_table(self, phones, offsets, speakers, message):
        with pytest.raises(ValueError, match=message):
            Corpus(self.INV, np.array(phones), offsets, ("u1", "u2"), tuple(speakers))

    def test_table_constructor_stores_int32_rows_read_only(self):
        rows = np.array([[0, 3], [1, 2], [2, 2**31 - 1]], dtype=np.int64)
        corpus = Corpus(self.INV, rows, np.array([0, 2, 3]), ["u1", "u2"], ["a", "b"])
        assert corpus.phones.dtype == np.int32 and not corpus.phones.flags.writeable
        assert corpus.phones.tolist() == rows.tolist() and rows.flags.writeable
        assert corpus == make_corpus(
            self.INV, [("a", "u1", [(0, 3), (1, 2)]), ("b", "u2", [(2, 2**31 - 1)])]
        )
        utt = corpus.utterance("u1")
        assert utt.phones.dtype == np.int32 and utt.phones.shape == (2, 2) and len(utt) == 2
        with pytest.raises(ValueError, match="read-only"):
            utt.phones[0, 1] = 0


def _read_scores(source):
    scores = read_scores(source)
    return [scores.scores.tolist(), scores.labels.tolist(), scores.enroll_ids, scores.trial_ids]


class TestOneLineRule:
    """Every reader cuts a source into the lines ``errors.text_blocks`` gives."""

    INV = PhonemeInventory(("A", "B", "C"))
    # each reader with three lines of its format, which it reads without error
    READERS = [
        (load_inventory, ["A", "B", "C"]),
        (
            lambda source: parse_alignment(source, TestOneLineRule.INV),
            ["s u1 A 3", "s u1 B 4", "s u2 C 5"],
        ),
        (read_trials, ["# trials n_enroll=1 n_trial=1 seed=0", "s e t1 target", "s e t2 target"]),
        (_read_scores, ["# scores polarity=larger-is-similar", "e t1 1 target", "e t2 2 target"]),
    ]

    @pytest.mark.parametrize(
        "read, lines", READERS, ids=["inventory", "alignment", "trials", "scores"]
    )
    @pytest.mark.parametrize(
        "source, same_as, line",
        [
            # a handle opened with newline="" keeps its lone "\r"s, and no line ends there
            (
                lambda L: io.StringIO(f"{L[0]}\n{L[1]}\r{L[2]}\r", newline=""),
                lambda L: [L[0], f"{L[1]}\r{L[2]}\r"],
                2,
            ),
            # a "\n" inside an element reads as a space
            (
                lambda L: [L[0] + "\n", f"{L[1]}\n{L[2]}"],
                lambda L: [L[0] + " ", f"{L[1]} {L[2]}"],
                2,
            ),
            (lambda L: io.StringIO("\n".join(L)), lambda L: L, None),
            (lambda L: [L[0].encode(), *L[1:]], None, 1),
            (lambda L: [L[0], L[1].encode(), L[2]], None, 2),
            # the lines before an element that is not a string are read first
            (lambda L: ["x y", b"z"], lambda L: ["x y"], 1),
        ],
        ids=[
            "lone-cr", "newline-in-element", "no-final-newline", "bytes-line-1", "bytes-line-2",
            "bytes-after-a-bad-line",
        ],
    )
    def test_every_reader_sees_the_same_lines(self, read, lines, source, same_as, line):
        def outcome_of(source):
            try:
                return read(source)
            except AlignmentParseError as exc:
                return type(exc), str(exc), exc.line
            except ValueError as exc:  # a plain ValueError, for a line that is no string
                return type(exc), str(exc)

        got = outcome_of(source(lines))
        if same_as is not None:
            assert got == outcome_of(same_as(lines))
        if line is None:
            assert not isinstance(got, tuple)  # read without error
        elif same_as is None:
            assert got[0] is ValueError
            assert re.match(f"line {line}: b'.*' is not a string; source takes", got[1])
        else:
            assert got[2] == line


class TestRoundTrip:
    INV = PhonemeInventory(("SIL", "AA1_B", "T_E"))

    def test_empty_corpus_writes_nothing(self):
        sink = io.StringIO()
        write_alignment(make_corpus(self.INV, []), sink)
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

    @settings(max_examples=100, deadline=None)
    @given(table_corpora(), st.integers(1, 3))
    def test_writer_matches_per_phone_reference_byte_for_byte(self, corpus, block):
        want = io.StringIO()
        reference_write(corpus, want)
        got = io.StringIO()
        with patch.object(alignment, "_WRITE_UTTERANCES", block):
            write_alignment(corpus, got)
        assert got.getvalue().encode("utf-8") == want.getvalue().encode("utf-8")
        assert parse_alignment(io.StringIO(got.getvalue()), corpus.inventory) == corpus

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(TOKEN, min_size=3, max_size=3, unique=True),
        st.sampled_from(("label", "speaker", "utterance")),
        ANY_TEXT,
    )
    def test_ids_and_labels_are_refused_or_round_trip(self, tokens, kind, text):
        # one of the label, the speaker id and the utterance id is any text
        drawn = dict(zip(("label", "speaker", "utterance"), tokens))
        drawn[kind] = text
        try:
            corpus = make_corpus(
                PhonemeInventory((drawn["label"],)),
                [(drawn["speaker"], drawn["utterance"], [(0, 3)])],
            )
        except ValueError:
            return
        sink = io.StringIO()
        write_alignment(corpus, sink)
        assert parse_alignment(io.StringIO(sink.getvalue()), corpus.inventory) == corpus

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


class TestCorpusTable:
    INV = PhonemeInventory(("SIL", "AA1_B", "T_E"))

    def test_layout(self):
        corpus = make_corpus(
            self.INV,
            [("a", "u1", [(0, 3), (1, 4)]), ("b", "u2", [(2, 5)]), ("a", "u3", [(1, 1), (2, 9)])],
        )
        assert corpus.phones.dtype == np.int32
        assert corpus.phones.tolist() == [[0, 3], [1, 4], [2, 5], [1, 1], [2, 9]]
        assert corpus.offsets.dtype == np.int64 and corpus.offsets.tolist() == [0, 2, 3, 5]
        assert corpus.utterance_ids == ("u1", "u2", "u3")
        assert corpus.speakers == ("a", "b") and corpus.speaker_index.tolist() == [0, 1, 0]
        assert corpus.by_speaker == {"a": (0, 2), "b": (1,)}
        for indices, want in [([2, 0], [[1, 1], [2, 9], [0, 3], [1, 4]]), ([], [])]:
            rows = corpus.rows(indices)
            assert rows.dtype == np.int32 and rows.shape == (len(want), 2)
            assert rows.tolist() == want
        with pytest.raises(IndexError):  # never truncated to utterance 1
            corpus.rows([1.5])
        for indices in ([[0, 1]], np.zeros((2, 0), int), 1):
            shape = re.escape(str(np.shape(indices)))
            want = rf"^utterance indices must be 1-D, got shape {shape}$"
            with pytest.raises(IndexError, match=want):
                corpus.rows(indices)
        # never counted from the end, read as a mask or read past the table
        for indices, bad in [([-3], -3), ([0, -1], -1), ([True, False, True], True), ([0, 3], 3)]:
            want = rf"^utterance index {bad} is not an integer in \[0, 3\)$"
            with pytest.raises(IndexError, match=want):
                corpus.rows(indices)
        with pytest.raises(AttributeError, match="immutable"):
            corpus.phones = corpus.phones.copy()
        for column in (corpus.offsets, corpus.speaker_index):
            with pytest.raises(ValueError, match="read-only"):
                column[1] = 0

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8])
    def test_rows_at_the_top_of_a_narrow_index_type(self, dtype):
        # the last index a type holds; one past it wraps in that type, and
        # an int8 127 + 1 read as -128 lands inside a 256-utterance table
        top = int(np.iinfo(dtype).max)
        corpus = make_corpus(
            self.INV, [("a", f"u{i}", [(i % 3, 1 + i)] * (1 + i % 2)) for i in range(2 * top + 2)]
        )
        want = corpus.utterance(f"u{top}").phones.tolist()
        assert corpus.rows(np.array([top], dtype)).tolist() == want

    @settings(max_examples=50, deadline=None)
    @given(table_corpora())
    def test_views_are_read_only_slices_of_the_table(self, corpus):
        assert not corpus.phones.flags.writeable
        views = [view for speaker in corpus.speakers for view in corpus.utterances_of(speaker)]
        assert sorted(v.utterance_id for v in views) == sorted(corpus.utterance_ids)
        for view in views:
            i = corpus.by_utterance[view.utterance_id]
            again = corpus.utterance(view.utterance_id)
            assert (again.utterance_id, again.speaker_id) == (view.utterance_id, view.speaker_id)
            assert np.array_equal(again.phones, view.phones)
            assert view.speaker_id == corpus.speakers[corpus.speaker_index[i]]
            assert np.shares_memory(view.phones, corpus.phones)
            assert not view.phones.flags.writeable
            assert np.array_equal(view.phones, corpus.phones[corpus.offsets[i] : corpus.offsets[i + 1]])
        rows = [(v.speaker_id, v.utterance_id, v.phones) for v in corpus.utterances]
        assert make_corpus(corpus.inventory, rows) == corpus

    @pytest.mark.parametrize("block_lines", [1, 2, 3])
    def test_utterance_across_block_boundaries(self, monkeypatch, block_lines):
        monkeypatch.setattr(errors, "_BLOCK_LINES", block_lines)
        lines = [
            "a u1 SIL 1", "a u1 AA1_B 2", "a u1 T_E 3", "a u1 SIL 4",
            "b u2 T_E 5", "b u3 AA1_B 6", "b u3 SIL 7",
        ]
        corpus = parse_alignment(lines, self.INV)
        assert corpus.offsets.tolist() == [0, 4, 5, 7]
        assert corpus.phones.tolist() == [[0, 1], [1, 2], [2, 3], [0, 4], [2, 5], [1, 6], [0, 7]]
        assert corpus == reference_parse(lines, self.INV)

    @pytest.mark.parametrize("block_lines", [1, 2, 4096])
    def test_utterances_emptied_by_exclude_are_omitted(self, monkeypatch, block_lines):
        monkeypatch.setattr(errors, "_BLOCK_LINES", block_lines)
        lines = [
            "a u0 SIL 1", "a u1 SIL 2", "a u1 AA1_B 3", "b u2 SIL 4",
            "b u2 SIL 5", "a u3 T_E 6", "c u4 SIL 7",
        ]
        corpus = parse_alignment(lines, self.INV, exclude=["SIL"])
        assert corpus.utterance_ids == ("u1", "u3")
        assert corpus.offsets.tolist() == [0, 1, 2]
        assert corpus.phones.tolist() == [[1, 3], [2, 6]]
        assert corpus.speakers == ("a",) and corpus.by_speaker == {"a": (0, 1)}

    def test_bad_phone_in_row_built_corpus_keeps_its_message(self):
        rows = [("a", "u1", [(0, 3)]), ("a", "u2", [(1, 2), (3, 1)])]
        with pytest.raises(ValueError) as err:
            make_corpus(self.INV, rows)
        assert str(err.value) == (
            "utterance 'u2': phone [3, 1] needs a class index in [0, 3) and a frame count >= 1"
        )
        with pytest.raises(ValueError) as err:
            make_corpus(self.INV, [*rows, ("b", "u1", [(0, 1)])])
        assert str(err.value) == "duplicate utterance id 'u1'"

    def test_no_program_path_builds_the_utterance_tuple(self, monkeypatch):
        def tuple_read(self):
            raise AssertionError("Corpus.utterances was built")

        monkeypatch.setattr(Corpus, "utterances", property(tuple_read))
        synth = SynthConfig(
            n_speakers=3,
            utts_per_speaker=4,
            phones_per_utt=(10, 20),
            population_log_mean=np.full(5, np.log(10.0)),
            sigma_speaker=0.3,
            sigma_token=0.3,
            seed=1,
        )
        profiles = sample_speakers(synth, np.random.default_rng([1, 0]))
        sink = io.StringIO()
        write_alignment(generate_corpus(profiles, synth, np.random.default_rng([1, 1])), sink)
        corpus = parse_alignment(io.StringIO(sink.getvalue()), synthetic_inventory(5))
        trials = build_trials(corpus, 1, 1, 0)
        assert np.all(np.isfinite(score_trials_metric(corpus, trials).scores))
        hyper = TrainConfig(epochs=1, batch_size=4, chunk_min=4, chunk_max=12)
        result = train(corpus, tiny_gradcheck_config(n_speakers=3), hyper)
        scores = score_trials_embedding(result.params, corpus, trials)
        assert np.all(np.isfinite(scores.scores))

    def test_file_like_sources_are_read_in_chunks_not_lines(self):
        class ReadOnly(io.StringIO):
            def __iter__(self):
                raise AssertionError("the source was iterated")

            def __next__(self):
                raise AssertionError("the source was iterated")

            def readline(self, size=-1):
                raise AssertionError("a line was read")

        lines = ["a u1 SIL 1", "a u1 AA1_B 2", "# note", "b u2 T_E 3  # end", "b u2 SIL 4"]
        got = parse_alignment(ReadOnly("\n".join(lines)), self.INV)
        assert got == parse_alignment(lines, self.INV)
        assert got.offsets.tolist() == [0, 2, 4]


# ids built on it agree on more code points than the parser compares as
# array columns, so only the string comparison tells them apart; its first
# ``_ID_WIDTH`` code points fill the columns, and only the ids' lengths
# tell that id from them
LONG_ID = "L" * (alignment._ID_WIDTH + 6)
SEPARATORS = (" ", "\t", "  ", "\xa0", "\u2003", "\u0085", "\x1c")
# fault codes, drawn uniformly; most runs get a code with no case, and a
# faulty line gets two codes so that faults meet on one line
RUN_FAULT = st.sampled_from(range(12))
FAULTY_LINE = st.sampled_from((False,) * 3 + (True,))
LINE_FAULT = st.sampled_from(range(1, 11))
ODD_FRAMES = ("+5", "٥", "1_0", "0", "2147483648", "2147483647", "x", "-3", "007", "00000000012")


@st.composite
def alignment_lines(draw):
    """Alignment lines, mostly well formed, with every kind of fault mixed in.

    Utterance runs get fresh ids unless one is drawn to reappear or to hold
    a ``,``; a run may hold only ``SIL``, which excluding it empties.
    Single lines may lose or gain a field, change speaker, take an odd
    frame count or an unknown label, hold a comment, a blank line after
    them or unusual whitespace, or end with a ``'\\n'``, as lines read from
    a file do, or hold one.
    """
    lines = []
    utt_ids = []
    for run in range(draw(st.integers(0, 8))):
        fault = draw(RUN_FAULT)
        if utt_ids and fault == 1:
            utt_id = draw(st.sampled_from(utt_ids))
        else:
            utt_id = draw(
                st.sampled_from(
                    (f"u{run}", f"{LONG_ID}{run}", LONG_ID[: alignment._ID_WIDTH], f"ß{run}")
                )
            )
            utt_id = f"u,{run}" if fault == 2 else utt_id
        utt_ids.append(utt_id)
        speaker, other = draw(st.permutations(("s1", "s2", "š")))[:2]
        for _ in range(draw(st.integers(1, 6))):
            faults = {draw(LINE_FAULT), draw(LINE_FAULT)} if draw(FAULTY_LINE) else set()
            fields = [
                other if 1 in faults else speaker,
                utt_id,
                draw(st.sampled_from(("ZZ", "A1", "SIL", "ŋ")))
                if 2 in faults
                else "SIL"
                if fault == 3
                else draw(st.sampled_from(("A", "B1", "ŋ", "SIL"))),
                draw(st.sampled_from(ODD_FRAMES)) if 3 in faults
                else str(draw(st.integers(1, 999))),
            ]
            if 4 in faults:
                del fields[draw(st.integers(0, 3))]
            elif 5 in faults:
                fields.append("extra")
            seps = [draw(st.sampled_from(SEPARATORS)) for _ in range(len(fields) + 1)]
            line = seps[0] * (6 in faults) + "".join(f + s for f, s in zip(fields, seps[1:]))
            if 7 in faults:
                line += draw(st.sampled_from(("# note", "#", "#x y z w")))
            elif 8 in faults:
                cut = draw(st.integers(0, len(line)))
                line = line[:cut] + "#" + line[cut:]
            if 10 in faults:
                cut = draw(st.sampled_from((len(line), draw(st.integers(0, len(line))))))
                line = line[:cut] + "\n" + line[cut:]
            lines.append(line)
            if 9 in faults:
                lines.append(draw(st.sampled_from(("", "   ", "# only a comment", "\u2003"))))
    return lines


class TestParserMatchesLineByLineReference:
    INV = PhonemeInventory(("A", "B1", "ŋ", "SIL"))

    def test_whitespace_table_matches_str_split(self):
        chars = [chr(c) for c in range(sys.maxunicode + 1)]
        expected = [c.isspace() for c in chars]
        in_token = alignment._IN_TOKEN
        assert (~in_token).tolist() == expected[: in_token.size]
        assert in_token[-1] and not any(expected[in_token.size :])
        assert all(f"a{c}b".split() == ["a", "b"] for c, space in zip(chars, expected) if space)

    @settings(max_examples=500, deadline=None)
    @given(
        alignment_lines(),
        st.sampled_from(((), ("SIL",), ("SIL", "ZZ"))),
        st.integers(1, 5),
        st.integers(1, 64),
        st.booleans(),
    )
    def test_same_corpus_or_same_error(self, lines, exclude, block_lines, chunk_chars, as_stream):
        # a stream is read in chunks of ``chunk_chars`` code points, so chunk
        # edges fall inside lines, tokens and non-ASCII runs, and blocks of
        # one and four bytes per code point mix
        def source():
            return io.StringIO("\n".join(lines)) if as_stream else list(lines)

        want = outcome(lambda: reference_parse(source(), self.INV, exclude))
        with patch.object(errors, "_BLOCK_LINES", block_lines), patch.object(
            errors, "_CHUNK_CHARS", chunk_chars
        ):
            got = outcome(lambda: parse_alignment(source(), self.INV, exclude))
        assert got == want

    @pytest.mark.parametrize("chunk_chars", [1, 2, 5, errors._CHUNK_CHARS])
    @pytest.mark.parametrize(
        "content",
        [
            "a u1 SIL 3\na u1 A 4",  # no final newline
            "",
            "# only comments\n  # and blanks\n\n\u2003\n",
            "a u1 SIL 3\r\na u1 A 4\r\nb u2 \u014b 5\r\n",
            "a u1 SIL 3\ra u1 A 4\rb u2 \u014b 5\r",
            "a u1 SIL 3\r\nb u1 A 4\r\n",  # an error, on line 2
            "a u1 SIL 3\rb u2 A 0\r",  # an error, on line 2
            "a u1 SIL 3\nb u2 A x",  # an error, on the last line
        ],
    )
    def test_file_handles_match_the_reference(self, tmp_path, monkeypatch, content, chunk_chars):
        path = tmp_path / "alignment.txt"
        path.write_bytes(content.encode("utf-8"))
        monkeypatch.setattr(errors, "_CHUNK_CHARS", chunk_chars)
        with open(path, encoding="utf-8") as handle:
            want = outcome(lambda: reference_parse(handle, self.INV))
        with open(path, encoding="utf-8") as handle:
            assert outcome(lambda: parse_alignment(handle, self.INV)) == want

    @pytest.mark.parametrize("chunk_chars", [7, errors._CHUNK_CHARS])
    def test_line_longer_than_a_chunk(self, tmp_path, monkeypatch, chunk_chars):
        long_id = "u" * (errors._CHUNK_CHARS + 100)
        path = tmp_path / "alignment.txt"
        for lines in (
            ["a u1 SIL 3", f"a {long_id} A 4", f"a {long_id} \u014b 5", "a u2 SIL 6"],
            ["a u1 SIL 3", f"a {long_id} A 4", f"a {long_id}x B1 x"],  # an error on line 3
        ):
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            monkeypatch.setattr(errors, "_CHUNK_CHARS", chunk_chars)
            with open(path, encoding="utf-8") as handle:
                got = outcome(lambda: parse_alignment(handle, self.INV))
            assert got == outcome(lambda: reference_parse(lines, self.INV))
