import io
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from durasv.alignment import AlignedUtterance, Corpus, PhonemeInventory
from durasv.errors import (
    DegenerateScoreSetError,
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
def trials(draw):
    utts = draw(st.lists(UTT_ID, min_size=2, max_size=6, unique=True))
    cut = draw(st.integers(1, len(utts) - 1))
    return Trial(draw(TOKEN), tuple(utts[:cut]), tuple(utts[cut:]), draw(st.booleans()))


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

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateScoreSetError):
            compute_eer(score_set([0.5], []))

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


def toy_corpus(n_speakers=2, n_utts=2, phones_per_utt=3):
    inv = PhonemeInventory(("P0",))
    utts = []
    for s in range(n_speakers):
        for u in range(n_utts):
            phones = [(0, 5 + s)] * phones_per_utt
            utts.append(AlignedUtterance(f"s{s}-u{u}", f"s{s}", phones))
    return Corpus(inv, tuple(utts))


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
        utts = [
            AlignedUtterance(f"rich-u{i}", "rich", [(0, 5)])
            for i in range(10)
        ] + [
            AlignedUtterance(f"poor-u{i}", "poor", [(0, 5)])
            for i in range(3)
        ] + [
            AlignedUtterance(f"mid-u{i}", "mid", [(0, 5)])
            for i in range(10)
        ]
        corpus = Corpus(inv, tuple(utts))
        trials = build_trials(corpus, 8, 1, seed=0)
        assert trials.skipped_speakers == ("poor",)
        assert all(t.enroll_speaker != "poor" for t in trials.trials)

    def test_seed_determinism(self):
        corpus = toy_corpus(4, 6)
        a = build_trials(corpus, 2, 2, seed=9)
        b = build_trials(corpus, 2, 2, seed=9)
        assert a == b

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
    @given(
        st.lists(trials(), min_size=1, max_size=6),
        st.integers(0, 99),
        st.integers(0, 99),
        st.integers(-(2**63), 2**63),
    )
    def test_trial_file_round_trip(self, trial_items, n_enroll, n_trial, seed):
        original = TrialList(tuple(trial_items), n_enroll, n_trial, seed)
        sink = io.StringIO()
        write_trials(original, sink)
        assert read_trials(io.StringIO(sink.getvalue())) == original

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(TOKEN, TOKEN, FINITE, st.booleans()), min_size=1, max_size=8),
        st.sampled_from(get_args(Polarity)),
        st.none() | st.integers(0, 99),
        st.none() | st.integers(0, 99),
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

    def test_enroll_trial_overlap_rejected(self):
        with pytest.raises(ValueError):
            Trial("s", ("u1",), ("u1",), True)

    def test_overlapping_trial_record_names_its_line(self):
        text = "# trials n_enroll=2 n_trial=1\n\ns u1,u2 u3 target\ns u1,u2 u2 target\n"
        with pytest.raises(MalformedLineError, match="overlap") as info:
            read_trials(io.StringIO(text))
        assert info.value.line == 4
