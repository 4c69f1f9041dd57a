import io
import re
import sys
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from durasv.alignment import PhonemeInventory
from durasv.errors import (
    ConfigError,
    DegenerateScoreSetError,
    DurasvError,
    MalformedLineError,
    NoEligibleSpeakersError,
)
from durasv.evaluation import (
    Polarity,
    ScoreSet,
    Trial,
    TrialList,
    build_trials,
    compute_eer,
    eer_confidence_interval,
    evaluate,
    read_scores,
    read_trials,
    write_scores,
    write_trials,
)
from test_alignment import make_corpus


def brute_force_eer(scores, labels):
    """Independent oracle: sweep every threshold, take the operating point
    with the smallest |FAR - FRR| and report the midpoint rate there."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    tar = scores[labels]
    non = scores[~labels]
    candidates = np.concatenate([scores, [scores.max() + 1.0]])
    best = None
    for t in candidates:
        far = np.mean(non >= t)
        frr = np.mean(tar < t)
        gap = abs(far - frr)
        if best is None or gap < best[0]:
            best = (gap, (far + frr) / 2.0)
    return best[1]


# an id token as the alignment parser yields it: no whitespace, no "#"
TOKEN = st.text(
    st.characters(blacklist_categories=("Z", "Cc", "Cs"), blacklist_characters="#"),
    min_size=1,
    max_size=8,
)
# utterance ids also hold no ",", which joins them in trial files
UTT_ID = TOKEN.filter(lambda s: "," not in s)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trials(draw, n_enroll, n_trial):
    n = n_enroll + n_trial
    utts = draw(st.lists(UTT_ID, min_size=n, max_size=n, unique=True))
    return Trial(draw(TOKEN), tuple(utts[:n_enroll]), tuple(utts[n_enroll:]), draw(st.booleans()))


def score_set(tar, non, polarity="larger-is-similar"):
    scores = np.concatenate([np.asarray(tar, float), np.asarray(non, float)])
    labels = np.concatenate([np.ones(len(tar), bool), np.zeros(len(non), bool)])
    return ScoreSet(scores, labels, polarity)


class TestComputeEer:
    def test_perfect_separation(self):
        eer, _ = compute_eer(score_set([0.9, 0.8], [0.2, 0.1]))
        assert eer == 0.0

    def test_inverted_labels_give_one(self):
        eer, _ = compute_eer(score_set([0.2, 0.1], [0.9, 0.8]))
        assert eer == 1.0

    def test_one_third_crossing(self):
        eer, _ = compute_eer(score_set([0.9, 0.8, 0.4], [0.5, 0.2, 0.1]))
        assert eer == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_scores_past_two_to_the_53(self):
        # 2e16 + 1.0 == 2e16: the threshold past the top score must still be above it
        assert compute_eer(score_set([2e16], [2e16]))[0] == 0.5
        assert compute_eer(score_set([-2e16], [-2e16]))[0] == 0.5

    def test_threshold_past_the_largest_float_refused(self):
        # no finite float lies above the top score, nor between the two
        # scores' interpolation when their difference overflows
        top = sys.float_info.max
        for tar, non in (([top], [top]), ([-1e308], [-1e308, 1e308])):
            with pytest.raises(DegenerateScoreSetError, match="past the largest finite float"):
                compute_eer(score_set(tar, non))
        # the top candidate may be inf while the crossing lies below it
        assert compute_eer(score_set([top], [0.0])) == (0.0, top)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateScoreSetError):
            compute_eer(score_set([0.5], []))

    def test_unknown_polarity_refused(self):
        # any other string was read as larger-is-similar: this typo turned
        # an EER of 0.0 into 1.0 in compute_eer and evaluate
        scores, labels = np.array([0.1, 0.2, 0.8, 0.9]), np.array([True, True, False, False])
        assert compute_eer(ScoreSet(scores, labels, "smaller-is-similar"))[0] == 0.0
        for polarity in ("smaller_is_similar", "", None):
            with pytest.raises(DegenerateScoreSetError, match="unknown score polarity"):
                ScoreSet(scores, labels, polarity)

    def test_polarity_flip_is_exact(self):
        rng = np.random.default_rng(0)
        s = score_set(rng.normal(1, 1, 50), rng.normal(0, 1, 70))
        flipped = ScoreSet(-s.scores, s.labels, "smaller-is-similar")
        assert compute_eer(s)[0] == compute_eer(flipped)[0]

    def test_monotone_transform_is_exact(self):
        rng = np.random.default_rng(1)
        s = score_set(rng.normal(1, 1, 40), rng.normal(0, 1, 60))
        base = compute_eer(s)[0]
        for f in (np.tanh, np.exp, lambda x: x**3 + 5 * x):
            transformed = ScoreSet(f(s.scores), s.labels, s.polarity)
            assert compute_eer(transformed)[0] == base

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_brute_force_within_one_step(self, seed):
        rng = np.random.default_rng(seed)
        n_tar = int(rng.integers(1, 60))
        n_non = int(rng.integers(1, 60))
        sep = rng.uniform(0, 2)
        s = score_set(rng.normal(sep, 1, n_tar), rng.normal(0, 1, n_non))
        eer, _ = compute_eer(s)
        oracle = brute_force_eer(s.scores, s.labels)
        assert abs(eer - oracle) <= 1.0 / min(n_tar, n_non) + 1e-12
        assert 0.0 <= eer <= 1.0

    def test_threshold_splits_errors_evenly(self):
        rng = np.random.default_rng(3)
        s = score_set(rng.normal(1.2, 1, 200), rng.normal(0, 1, 300))
        eer, threshold = compute_eer(s)
        tar = s.scores[s.labels]
        non = s.scores[~s.labels]
        far = np.mean(non >= threshold)
        frr = np.mean(tar < threshold)
        assert abs(far - eer) <= 1.0 / non.size + 1e-12
        assert abs(frr - eer) <= 1.0 / tar.size + 1e-12


class TestConfidenceInterval:
    def test_zero_eer_gives_zero_halfwidth(self):
        assert eer_confidence_interval(0.0, 500) == 0.0

    def test_documented_values(self):
        assert eer_confidence_interval(0.1, 1000) == pytest.approx(0.01860, abs=1e-5)
        assert eer_confidence_interval(0.5, 100) == pytest.approx(0.098, abs=1e-5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            eer_confidence_interval(1.5, 10)
        with pytest.raises(ValueError):
            eer_confidence_interval(0.5, 0)
        for n_trials in (True, 10.0, "10"):
            with pytest.raises(ConfigError, match="n_trials must be an integer"):
                eer_confidence_interval(0.5, n_trials)


def toy_corpus(n_speakers=2, n_utts=2, phones_per_utt=3):
    inv = PhonemeInventory(("P0",))
    rows = []
    for s in range(n_speakers):
        for u in range(n_utts):
            rows.append((f"s{s}", f"s{s}-u{u}", [(0, 5 + s)] * phones_per_utt))
    return make_corpus(inv, rows)


class TestBuildTrials:
    def test_two_by_two_exhaustive(self):
        trials = build_trials(toy_corpus(), 1, 1, seed=0, max_nontarget_per_speaker=5)
        targets = [t for t in trials.trials if t.is_target]
        nontargets = [t for t in trials.trials if not t.is_target]
        assert len(targets) == 2
        assert 1 <= len(nontargets) <= 2
        for t in trials.trials:
            assert not set(t.enroll_utts) & set(t.trial_utts)
            assert len(t.enroll_utts) == 1 and len(t.trial_utts) == 1

    def test_under_resourced_speaker_skipped(self):
        inv = PhonemeInventory(("P0",))
        rows = [
            (speaker, f"{speaker}-u{i}", [(0, 5)])
            for speaker, n in (("rich", 10), ("poor", 3), ("mid", 10))
            for i in range(n)
        ]
        corpus = make_corpus(inv, rows)
        trials = build_trials(corpus, 8, 1, seed=0)
        assert trials.skipped_speakers == ("poor",)
        assert all(t.enroll_speaker != "poor" for t in trials.trials)

    def test_seed_determinism(self):
        corpus = toy_corpus(4, 6)
        a = build_trials(corpus, 2, 2, seed=9)
        b = build_trials(corpus, 2, 2, seed=9)
        assert a == b

    @pytest.mark.parametrize(
        "args",
        [(True, True, 0), (1, 1, True), (1.0, 1, 0), (1, 1, 0.5), (1, 1, 0, 2.0), (1, "1", 0)],
    )
    def test_integer_arguments_only(self, args):
        # (True, True, 0) once gave a trial file headed n_enroll=True
        # n_trial=True, which read_trials refuses
        with pytest.raises(ConfigError, match="must be an integer"):
            build_trials(toy_corpus(), *args)

    def test_numpy_integer_arguments_taken(self):
        corpus = toy_corpus(4, 6)
        got = build_trials(corpus, np.int64(2), np.int32(2), np.uint8(9), np.int16(20))
        assert got == build_trials(corpus, 2, 2, 9, 20)
        assert type(got.n_enroll) is type(got.seed) is int

    def test_no_eligible_speakers(self):
        with pytest.raises(NoEligibleSpeakersError):
            build_trials(toy_corpus(), 8, 1, seed=0)

    def test_target_flag_matches_speakers(self):
        corpus = toy_corpus(5, 6)
        trials = build_trials(corpus, 2, 1, seed=3)
        for t in trials.trials:
            owners = {u.rsplit("-", 1)[0] for u in t.trial_utts}
            assert len(owners) == 1
            assert t.is_target == (owners.pop() == t.enroll_speaker)


def reference_build_trials(corpus, n_enroll, n_trial, seed, max_nontarget_per_speaker=20):
    """The pool-list construction ``build_trials`` must agree with."""
    for name, value, least in [
        ("n_enroll", n_enroll, 1),
        ("n_trial", n_trial, 1),
        ("seed", seed, 0),
        ("max_nontarget_per_speaker", max_nontarget_per_speaker, 0),
    ]:
        if value < least:
            raise ConfigError(f"{name} must be >= {least}")
    rng = np.random.default_rng([seed, n_enroll, n_trial])
    eligible = [s for s in corpus.speakers if len(corpus.by_speaker[s]) >= n_enroll + n_trial]
    skipped = [s for s in corpus.speakers if s not in eligible]
    if not eligible:
        raise NoEligibleSpeakersError(
            f"no speaker has the {n_enroll}+{n_trial} utterances this setup needs"
        )
    enroll_sets = {}
    trial_sets = {}
    for speaker in eligible:
        utt_ids = [corpus.utterances[i].utterance_id for i in corpus.by_speaker[speaker]]
        order = rng.permutation(len(utt_ids))
        shuffled = [utt_ids[i] for i in order]
        enroll_sets[speaker] = tuple(shuffled[:n_enroll])
        rest = shuffled[n_enroll:]
        trial_sets[speaker] = [
            tuple(rest[i : i + n_trial]) for i in range(0, len(rest) - n_trial + 1, n_trial)
        ]
    trials = []
    for speaker in eligible:
        for utts in trial_sets[speaker]:
            trials.append(Trial(speaker, enroll_sets[speaker], utts, True))
    for speaker in eligible:
        pool = [
            (other, utts) for other in eligible if other != speaker for utts in trial_sets[other]
        ]
        n_take = min(max_nontarget_per_speaker, len(pool))
        if n_take == 0:
            continue
        picks = rng.choice(len(pool), size=n_take, replace=False)
        for p in sorted(int(i) for i in picks):
            trials.append(Trial(speaker, enroll_sets[speaker], pool[p][1], False))
    flags = [t.is_target for t in trials]
    if not any(flags) or all(flags):
        raise DegenerateScoreSetError("trial list needs both target and nontarget trials")
    return TrialList(tuple(trials), n_enroll, n_trial, seed, tuple(skipped))


@st.composite
def speaker_corpora(draw):
    """Up to six speakers of 1-12 one-phone utterances, in drawn order."""
    counts = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    rows = [(f"s{s}", f"s{s}-u{u}", [(0, 5)]) for s, n in enumerate(counts) for u in range(n)]
    return make_corpus(PhonemeInventory(("P0",)), draw(st.permutations(rows)))


class TestBuildTrialsMatchesPoolListReference:
    @settings(max_examples=200, deadline=None)
    @given(
        speaker_corpora(),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2**32),
        st.sampled_from((0, 1, 3, 20, 10**6)),
    )
    def test_same_trial_list_or_same_error(self, corpus, n_enroll, n_trial, seed, max_nontarget):
        def run(build):
            try:
                return build(corpus, n_enroll, n_trial, seed, max_nontarget)
            except DurasvError as exc:
                return type(exc), str(exc)

        assert run(build_trials) == run(reference_build_trials)


class TestEvaluateAndIo:
    def test_single_cell_table(self):
        s = score_set([0.9, 0.8], [0.1, 0.2])
        table = evaluate([("cond", "metric", s)])
        assert len(table.cells) == 1
        cell = table.cells[0]
        assert cell.eer == 0.0
        assert cell.n_trials == 4
        assert "ci_convention" in table.to_json()

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**63))
    def test_trial_file_round_trip(self, data, n_enroll, n_trial, seed):
        trial_items = data.draw(st.lists(trials(n_enroll, n_trial), min_size=1, max_size=6))
        original = TrialList(tuple(trial_items), n_enroll, n_trial, seed)
        sink = io.StringIO()
        write_trials(original, sink)
        assert read_trials(io.StringIO(sink.getvalue())) == original

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(TOKEN, TOKEN, FINITE, st.booleans()), min_size=1, max_size=8),
        st.sampled_from(get_args(Polarity)),
        st.none() | st.integers(1, 99),
        st.none() | st.integers(1, 99),
        st.none() | TOKEN,
    )
    def test_score_file_round_trip(self, rows, polarity, n_enroll, n_trial, model):
        enroll_ids, trial_ids, values, labels = zip(*rows)
        s = ScoreSet(
            np.array(values),
            np.array(labels, dtype=bool),
            polarity,
            enroll_ids,
            trial_ids,
            n_enroll,
            n_trial,
            model,
        )
        sink = io.StringIO()
        write_scores(s, sink)
        again = read_scores(io.StringIO(sink.getvalue()))
        assert again.scores.tobytes() == s.scores.tobytes()
        assert np.array_equal(again.labels, s.labels)
        fields = ("polarity", "enroll_ids", "trial_ids", "n_enroll", "n_trial", "model")
        assert [getattr(again, f) for f in fields] == [getattr(s, f) for f in fields]

    @pytest.mark.parametrize(
        "trial, want",
        [
            (Trial("#t", ("c",), ("d",), False), "speaker id '#t'"),
            (Trial("s t", ("c",), ("d",), False), "speaker id 's t'"),
            (Trial("s", ("a,b",), ("c",), True), "utterance id 'a,b'"),
            (Trial("s", ("a",), ("c\td",), True), "utterance id 'c\\td'"),
            (Trial("s", ("a",), ("#c",), True), "utterance id '#c'"),
        ],
        ids=["hash-speaker", "space-speaker", "comma-id", "tab-id", "hash-id"],
    )
    def test_trial_writer_refuses_ids_its_reader_cannot_read_back(self, trial, want):
        # "#t c d nontarget" was read back as a comment, dropping its trial,
        # and the id "a,b" as the two ids a and b
        good = Trial("s", ("u1",), ("u2",), True)
        sink = io.StringIO()
        with pytest.raises(ValueError, match=f"^{re.escape(want)} is empty or holds whitespace"):
            write_trials(TrialList((good, trial, good), 1, 1, 0), sink)
        assert sink.getvalue() == ""

    @pytest.mark.parametrize(
        "enroll_id, trial_id, model, want",
        [
            ("#e", "t", None, "enrollment id '#e'"),
            ("e", "t u", None, "trial id 't u'"),
            ("e", "t", "my model", "model name 'my model'"),
            ("e", "t", "", "model name ''"),
        ],
        ids=["hash-enroll-id", "space-trial-id", "space-model", "empty-model"],
    )
    def test_score_writer_refuses_fields_its_reader_cannot_read_back(
        self, enroll_id, trial_id, model, want
    ):
        # a "#e" record was read back as a comment, and model="my model" as "my"
        scores = ScoreSet(
            np.array([0.5, 0.1]),
            np.array([True, False]),
            "larger-is-similar",
            ("a,b", enroll_id),
            ("c,d", trial_id),
            model=model,
        )
        sink = io.StringIO()
        with pytest.raises(ValueError, match=f"^{re.escape(want)} is empty or holds whitespace"):
            write_scores(scores, sink)
        assert sink.getvalue() == ""

    @pytest.mark.parametrize(
        "write, header, want",
        [
            (write_trials, {"n_enroll": 0}, "n_enroll must be >= 1"),
            (write_trials, {"n_trial": -2}, "n_trial must be >= 1"),
            (write_trials, {"seed": -5}, "seed must be >= 0"),
            (write_trials, {"n_trial": 1.0}, "n_trial must be an integer"),
            (write_scores, {"n_enroll": 0}, "n_enroll must be >= 1"),
            (write_scores, {"n_trial": -1}, "n_trial must be >= 1"),
        ],
    )
    def test_writers_refuse_header_values_their_readers_refuse(self, write, header, want):
        # each was once written, though read_trials and read_scores refuse it
        if write is write_trials:
            good = Trial("s", ("u1",), ("u2",), True)
            value = TrialList((good,), **({"n_enroll": 1, "n_trial": 1, "seed": 0} | header))
        else:
            value = ScoreSet(
                np.array([0.5]), np.array([True]), "larger-is-similar", ("e",), ("t",), **header
            )
        sink = io.StringIO()
        with pytest.raises(ValueError, match=f"^{want}"):
            write(value, sink)
        assert sink.getvalue() == ""

    def test_enroll_trial_overlap_rejected(self):
        with pytest.raises(ValueError):
            Trial("s", ("u1",), ("u1",), True)

    @pytest.mark.parametrize("enroll, trial", [("ab", ("cd",)), (("ab",), "cd"), ("ab", "cd")])
    def test_one_string_for_an_utterance_set_rejected(self, enroll, trial):
        # a string is a sequence of one-letter ids: write_trials once wrote
        # "s a,b c,d target" for Trial("s", "ab", "cd", True)
        with pytest.raises(ValueError, match="is one string"):
            Trial("s", enroll, trial, True)

    def test_utterance_sets_kept_as_tuples(self):
        # a list once built, and then failed scoring with "unhashable type: 'list'"
        trial, same = Trial("s", ["a"], ["b"], True), Trial("s", ("a",), ("b",), True)
        assert trial.enroll_utts == ("a",) and trial.trial_utts == ("b",)
        assert trial == same and hash(trial) == hash(same)

    @pytest.mark.parametrize("is_target", ["no", 1, 0, None, np.True_])
    def test_non_bool_is_target_rejected(self, is_target):
        # "no" is truthy: it was written as "s a b target" and scored as one
        with pytest.raises(ValueError, match="is_target must be a bool"):
            Trial("s", ("a",), ("b",), is_target)

    @pytest.mark.parametrize("enroll, trial", [((), ("u1",)), (("u1",), ())])
    def test_empty_utterance_set_rejected(self, enroll, trial):
        with pytest.raises(ValueError, match="empty utterance set"):
            Trial("s", enroll, trial, False)

    @pytest.mark.parametrize(
        "record, words",
        [
            ("s u1,u1 u2 target", "repeats"),
            ("s u1 u2,u3,u2 nontarget", "repeats"),
            ("s u1,,u2 u3 target", "empty"),
            ("s u1 ,u3 target", "empty"),
        ],
    )
    def test_repeated_or_empty_utterance_id_names_its_line(self, record, words):
        with pytest.raises(MalformedLineError, match=words) as info:
            read_trials(
                io.StringIO(f"# trials n_enroll=2 n_trial=1 seed=0\ns u7,u9 u8 target\n{record}\n")
            )
        assert info.value.line == 3

    def test_overlapping_trial_record_names_its_line(self):
        text = "# trials n_enroll=2 n_trial=1 seed=0\n\ns u1,u2 u3 target\ns u1,u2 u2 target\n"
        with pytest.raises(MalformedLineError, match="overlap") as info:
            read_trials(io.StringIO(text))
        assert info.value.line == 4

    def test_comment_after_the_records_sets_no_header_value(self):
        text = (
            "# scores polarity=smaller-is-similar\n"
            "e1 t1 0.1 target\n"
            "e2 t2 0.9 nontarget\n"
            "# reviewed: the polarity=larger-is-similar convention does not apply here\n"
        )
        scores = read_scores(io.StringIO(text))
        assert scores.polarity == "smaller-is-similar"
        assert compute_eer(scores)[0] == 0.0
        trials = read_trials(
            io.StringIO("# trials n_enroll=2 n_trial=1 seed=0\ns u1,u2 u3 target\n# seed=7 next\n")
        )
        assert trials.seed == 0

    @pytest.mark.parametrize(
        "head, line",
        [
            ("# scores polarity=smaller-is-similar polarity=larger-is-similar\n", 1),
            ("# scores polarity=smaller-is-similar\n\n# polarity=smaller-is-similar\n", 3),
        ],
        ids=["one-line", "two-lines"],
    )
    def test_header_value_given_twice_is_refused(self, head, line):
        with pytest.raises(MalformedLineError, match="polarity= given twice") as info:
            read_scores(io.StringIO(f"{head}e1 t1 0.1 target\ne2 t2 0.9 nontarget\n"))
        assert info.value.line == line

    @pytest.mark.parametrize(
        "read, head, bad",
        [
            (read_scores, "# scores polarity=larger-is-similar n_enroll=-3 n_trial=0",
             "n_enroll='-3': value must be >= 1"),
            (read_scores, "# scores polarity=larger-is-similar n_trial=0", "n_trial='0': value"),
            (read_scores, "# scores polarity=larger-is-similar n_enroll=1.5", "n_enroll='1.5'$"),
            (read_trials, "# trials n_enroll=1 n_trial=1 seed=-5", "seed='-5': value must be >= 0"),
            (read_trials, "# trials n_enroll=0 n_trial=1 seed=0", "n_enroll='0': value"),
            (read_trials, "#\n# trials n_enroll=1 n_trial=-1 seed=0", "n_trial='-1': value"),
        ],
    )
    def test_header_count_below_its_floor_names_its_line(self, read, head, bad):
        # a score file's counts went into the eval report as they were, and
        # a trial file with seed=-5, which build_trials refuses, read back
        text = f"{head}\ns u1 u2 target\ns u3 u4 nontarget\n"
        with pytest.raises(MalformedLineError, match=f"bad header value {bad}") as info:
            read(io.StringIO(text))
        assert info.value.line == head.count("\n") + 1

    @pytest.mark.parametrize(
        "header, missing",
        [
            ("", "n_enroll= n_trial= seed="),
            ("# trials n_trial=1 seed=0", "n_enroll="),
            ("# trials n_enroll=2 seed=0", "n_trial="),
            ("# trials n_enroll=2 n_trial=1", "seed="),
            ("# trials n_enroll=2 n_trial=1 skipped=0", "seed="),
        ],
    )
    def test_missing_header_value_rejected(self, header, missing):
        with pytest.raises(DegenerateScoreSetError, match=f"no {missing} header"):
            read_trials(io.StringIO(f"{header}\ns u1,u2 u3 target\n"))

    @pytest.mark.parametrize(
        "record", ["s u1 u3 target", "s u1,u2 u3,u4 nontarget", "s u1,u2,u5 u3 target"]
    )
    def test_set_size_disagreeing_with_header_names_its_line(self, record):
        text = f"# trials n_enroll=2 n_trial=1 seed=0\ns u1,u2 u3 target\n\n{record}\n"
        with pytest.raises(MalformedLineError, match="header says 2\\+1") as info:
            read_trials(io.StringIO(text))
        assert info.value.line == 4
