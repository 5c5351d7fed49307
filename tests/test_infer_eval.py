"""Dual-direction label combination, corpus prediction, and macro-F1 scoring."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference_table
import sdprel.infer_eval as infer_eval
from sdprel.cli import main
from sdprel.corpus import Direction, DirectedLabel, LabelSet, OTHER_LABEL
from sdprel.deppath import (
    PathError,
    PathMode,
    instance_path,
    subject_first_path,
)
from sdprel.embeddings import UNK_INDEX, build_vocab, init_embeddings
from sdprel.infer_eval import (
    Prediction,
    combine,
    macro_f1,
    predict_corpus,
    read_predictions,
    write_predictions,
)
from sdprel.model import Regime, TrainedModel, class_labels, load_model, save_model
from sdprel.network import Hyperparams, forward, init_network_params
from synth import SYNTH_LABELS, aligned_corpus, write_corpus
from writers import with_swapped_spans

L3 = LabelSet(("Cause-Effect", "Component-Whole", "Content-Container"))


def lab(text):
    return L3.parse(text)


CE12, CE21 = lab("Cause-Effect(e1,e2)"), lab("Cause-Effect(e2,e1)")
CW12, CW21 = lab("Component-Whole(e1,e2)"), lab("Component-Whole(e2,e1)")
CC12, CC21 = lab("Content-Container(e1,e2)"), lab("Content-Container(e2,e1)")


class TestCombine:
    def test_other_only_when_both_argmax_other(self):
        fwd = np.array([0.05, 0.03, 0.02, 0.9])
        rev = np.array([0.1, 0.05, 0.05, 0.8])
        label = combine(fwd, rev, L3)
        assert label == OTHER_LABEL

    def test_single_non_other_direction_wins(self):
        fwd = np.array([0.7, 0.1, 0.1, 0.1])
        rev = np.array([0.04, 0.03, 0.03, 0.9])
        label = combine(fwd, rev, L3)
        assert label == CE12

    def test_higher_confidence_direction_wins(self):
        fwd = np.array([0.6, 0.2, 0.1, 0.1])
        rev = np.array([0.1, 0.8, 0.05, 0.05])
        label = combine(fwd, rev, L3)
        assert label == CW21

    def test_exact_tie_breaks_toward_forward(self):
        fwd = np.array([0.5, 0.2, 0.2, 0.1])
        rev = np.array([0.5, 0.2, 0.2, 0.1])
        label = combine(fwd, rev, L3)
        assert label == CE12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combine(np.ones(4) / 4, np.ones(5) / 5, L3)

    def test_never_directionless_relation(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            fwd = rng.dirichlet(np.ones(4))
            rev = rng.dirichlet(np.ones(4))
            label = combine(fwd, rev, L3)
            assert label.is_other == (label.direction is Direction.NONE)


class TestMacroF1:
    def test_direction_error_halves_both_counts(self):
        report = macro_f1([CE12, CE12, CW12], [CE12, CE21, CW12], L3)
        ce = report.per_relation["Cause-Effect"]
        assert (ce.precision, ce.recall, ce.f1) == (0.5, 0.5, 0.5)
        assert report.per_relation["Component-Whole"].f1 == 1.0
        assert report.macro_f1 == 0.75
        assert report.scored_relations == ("Cause-Effect", "Component-Whole")
        assert abs(report.accuracy - 2 / 3) < 1e-15

    def test_perfect_predictions(self):
        gold = [CE12, CW21, CC12, OTHER_LABEL]
        report = macro_f1(gold, list(gold), L3)
        assert report.macro_f1 == 1.0
        assert report.accuracy == 1.0

    def test_all_other_predictions_score_zero(self):
        report = macro_f1([CE12, CW12], [OTHER_LABEL, OTHER_LABEL], L3)
        assert report.macro_f1 == 0.0
        assert report.accuracy == 0.0

    def test_systematic_direction_flip_scores_zero(self):
        gold = [CE12, CE21, CE12, CE21]
        pred = [CE21, CE12, CE21, CE12]
        report = macro_f1(gold, pred, L3)
        assert report.macro_f1 == 0.0

    def test_mixed_confusions(self):
        gold = [CE12, CE12, CW21, CC12, OTHER_LABEL, OTHER_LABEL]
        pred = [CE12, CW21, CW21, OTHER_LABEL, CC21, OTHER_LABEL]
        report = macro_f1(gold, pred, L3)
        assert abs(report.per_relation["Cause-Effect"].f1 - 2 / 3) < 1e-15
        assert abs(report.per_relation["Component-Whole"].f1 - 2 / 3) < 1e-15
        assert report.per_relation["Content-Container"].f1 == 0.0
        assert abs(report.macro_f1 - 4 / 9) < 1e-15
        assert report.accuracy == 0.5

    def test_absent_relations_excluded_from_mean(self):
        report = macro_f1([CE12, OTHER_LABEL], [CE12, CE12], L3)
        assert report.scored_relations == ("Cause-Effect",)
        assert abs(report.macro_f1 - 2 / 3) < 1e-15

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        space = L3.all_directed()
        gold = [space[i] for i in rng.integers(len(space), size=60)]
        pred = [space[i] for i in rng.integers(len(space), size=60)]
        base = macro_f1(gold, pred, L3)
        order = rng.permutation(60)
        shuffled = macro_f1([gold[i] for i in order], [pred[i] for i in order], L3)
        assert shuffled.macro_f1 == base.macro_f1
        assert shuffled.accuracy == base.accuracy

    def test_identity_scores_one(self):
        rng = np.random.default_rng(2)
        space = L3.all_directed()
        for _ in range(25):
            labels = [space[i] for i in rng.integers(len(space), size=30)]
            if all(l.is_other for l in labels):
                labels[0] = CE12
            assert macro_f1(labels, list(labels), L3).macro_f1 == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            macro_f1([CE12], [], L3)

    def test_render_contains_machine_block(self):
        text = macro_f1([CE12], [CE12], L3).render()
        assert "macro_f1\t" in text
        assert "f1_Cause-Effect\t" in text


def tiny_model(regime, seed=0, instances=None):
    instances = instances or aligned_corpus(12, seed=5)
    seqs = [instance_path(i.raw, i.parse, PathMode.LABELED) for i in instances]
    vocab = build_vocab(seqs)
    K = (
        2 * len(SYNTH_LABELS.bases) + 1
        if regime is Regime.BLIND
        else len(SYNTH_LABELS.bases) + 1
    )
    hp = Hyperparams(d=4, w=3, n1=5, n2=4, K=K)
    We, _ = init_embeddings(vocab, None, 4, seed)
    params = init_network_params(hp, We, seed + 1)
    return TrainedModel(hp, vocab, SYNTH_LABELS, PathMode.LABELED, regime, params)


class TestPredictCorpus:
    def test_dual_direction_regime_applies_combine(self):
        instances = aligned_corpus(10, seed=6)
        model = tiny_model(Regime.SIGHTED_NS, instances=instances)
        preds, failed = predict_corpus(model, instances)
        assert failed == 0
        for p in preds:
            assert p.rev_probs is not None
            assert p.final == combine(p.fwd_probs, p.rev_probs, SYNTH_LABELS)

    def test_blind_regime_takes_directed_argmax(self):
        instances = aligned_corpus(10, seed=7)
        model = tiny_model(Regime.BLIND, instances=instances)
        preds, _ = predict_corpus(model, instances)
        directed = SYNTH_LABELS.all_directed()
        for p in preds:
            assert p.rev_probs is None
            assert p.final == directed[int(np.argmax(p.fwd_probs))]

    def test_sighted_regime_uses_gold_direction(self):
        instances = aligned_corpus(20, seed=8)
        model = tiny_model(Regime.SIGHTED, instances=instances)
        preds, _ = predict_corpus(model, instances)
        for inst, p in zip(instances, preds):
            seq, _ = subject_first_path(inst.raw, inst.parse, model.mode)
            probs, _ = forward(model.params, model.hp, model.vocab.indexify(seq))
            assert np.allclose(p.fwd_probs, probs, rtol=0, atol=1e-12)
            assert p.final.base == [*model.labels.bases, "Other"][int(np.argmax(probs))]
            if not p.final.is_other and not inst.raw.label.is_other:
                assert p.final.direction is inst.raw.label.direction

    def test_regime_class_count_mismatch(self, tmp_path, capsys):
        instances = aligned_corpus(4, seed=9)
        path = tmp_path / "model.json"
        save_model(tiny_model(Regime.SIGHTED_NS, instances=instances), path)
        doc = json.loads(path.read_text())
        doc["regime"] = Regime.BLIND.value  # K stays R+1; blind needs 2R+1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"model file {path}: .*classes"):
            load_model(path)

        sem, conll = write_corpus(
            tmp_path, "test", [i.raw for i in instances], [i.parse for i in instances]
        )
        argv = ["predict", "--model", str(path), "--sem", str(sem), "--conll", str(conll),
                "--out", str(tmp_path / "pred.txt")]
        assert main(argv) == 1
        assert f"model file {path}: model has" in capsys.readouterr().err

    def test_extraction_failure_falls_back_to_other(self, monkeypatch):
        instances = aligned_corpus(3, seed=10)
        model = tiny_model(Regime.SIGHTED_NS, instances=instances)

        def boom(raw, parse, mode):
            raise PathError("forced")

        monkeypatch.setattr(infer_eval, "instance_path", boom)
        preds, failed = predict_corpus(model, instances)
        assert failed == 3
        for p in preds:
            assert p.failed
            assert p.final == OTHER_LABEL

    def test_swapping_nominals_flips_direction_only(self):
        instances = aligned_corpus(30, seed=11)
        model = tiny_model(Regime.SIGHTED_NS, instances=instances)
        swapped = [
            type(inst)(with_swapped_spans(inst.raw), inst.parse) for inst in instances
        ]
        original, _ = predict_corpus(model, instances)
        mirrored, _ = predict_corpus(model, swapped)
        for a, b in zip(original, mirrored):
            assert a.final.base == b.final.base
            if not a.final.is_other:
                assert b.final.direction is not a.final.direction


def test_sighted_swapped_nominals_give_the_same_probabilities_and_the_reversed_label():
    # Swapping e1 and e2 and reversing the gold label keeps the subject-first
    # path; only whether it starts at e2 flips.
    instances = [i for i in aligned_corpus(40, seed=14) if not i.raw.label.is_other]
    swapped = [type(i)(with_swapped_spans(i.raw), i.parse) for i in instances]
    model = tiny_model(Regime.SIGHTED, instances=instances)
    original, _ = predict_corpus(model, instances)
    mirrored, _ = predict_corpus(model, swapped)
    assert {Direction.E1_TO_E2, Direction.E2_TO_E1} <= {p.final.direction for p in original}
    for a, b in zip(original, mirrored):
        assert np.array_equal(a.fwd_probs, b.fwd_probs)
        assert b.final == a.final.reversed()


def matmul_reference(model, instances, fail_ids):
    """Per-instance predictions through the matmul forward, one instance at a time."""
    preds = []
    for inst in instances:
        if inst.raw.id in fail_ids:
            preds.append(Prediction(inst.raw.id, None, None, OTHER_LABEL))
            continue
        paths = reference_table.indexed_paths(model, inst)
        fwd, _ = forward(model.params, model.hp, paths[0])
        k = int(np.argmax(fwd))
        if model.regime is Regime.BLIND:
            final = SYNTH_LABELS.all_directed()[k]
            preds.append(Prediction(inst.raw.id, fwd, None, final))
        elif model.regime is Regime.SIGHTED:
            base = [*SYNTH_LABELS.bases, OTHER_LABEL.base][k]
            gold = inst.raw.label
            direction = Direction.E1_TO_E2 if gold.is_other else gold.direction
            final = OTHER_LABEL if base == OTHER_LABEL.base else DirectedLabel(base, direction)
            preds.append(Prediction(inst.raw.id, fwd, None, final))
        else:
            rev, _ = forward(model.params, model.hp, paths[1])
            preds.append(Prediction(inst.raw.id, fwd, rev, combine(fwd, rev, SYNTH_LABELS)))
    return preds


def close_or_both_none(a, b):
    return (a is None and b is None) or np.max(np.abs(a - b)) <= 1e-12


CHUNK = infer_eval.PREDICT_CHUNK
FAIL_PATTERNS = {
    "none": lambda n: set(),
    "chunk boundaries": lambda n: {0, CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK, n - 1},
    "a whole chunk": lambda n: set(range(CHUNK, 2 * CHUNK)),
    "every instance": lambda n: set(range(n)),
}


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("pattern", FAIL_PATTERNS)
def test_chunked_predictions_match_the_matmul_reference(monkeypatch, regime, pattern):
    instances = aligned_corpus(2 * CHUNK + 17, seed=12)
    model = tiny_model(regime, instances=instances)
    fail_ids = {instances[i].raw.id for i in FAIL_PATTERNS[pattern](len(instances))}
    want = matmul_reference(model, instances, fail_ids)

    def failing(path_of):
        def extract(raw, parse, mode):
            if raw.id in fail_ids:
                raise PathError("forced")
            return path_of(raw, parse, mode)
        return extract

    monkeypatch.setattr(infer_eval, "instance_path", failing(instance_path))
    monkeypatch.setattr(infer_eval, "subject_first_path", failing(subject_first_path))
    got, failed = predict_corpus(model, instances)

    assert failed == len(fail_ids)
    assert_matches_reference(got, want, instances)


@pytest.mark.parametrize("w", [1, 3])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("seed", range(4))
def test_probabilities_equal_the_argmax_gather_reference_bit_for_bit(regime, w, seed):
    rng = np.random.default_rng(seed)
    instances = aligned_corpus(CHUNK + int(rng.integers(1, 20)), seed=30 + seed)
    # A vocabulary from three sentences sends most nodes to <unk>, so ids
    # repeat within a path; at w=1 a repeated id repeats a whole ZT row.
    seqs = [instance_path(i.raw, i.parse, PathMode.LABELED) for i in instances[:3]]
    vocab = build_vocab(seqs)
    f = int(rng.choice([0, 2]))
    hp = Hyperparams(
        d=int(rng.integers(1, 5)), w=w, n1=int(rng.integers(1, 7)),
        n2=int(rng.integers(1, 5)), K=len(class_labels(regime, SYNTH_LABELS)), f=f,
    )
    We, _ = init_embeddings(vocab, None, hp.d, seed)
    params = init_network_params(hp, We, seed + 1)
    # <unk> points along filter 0's middle slot and outreaches every other
    # embedding, so at w=1 filter 0 pools it, and a path holding it twice
    # ties there exactly.
    mid = params.W1[0, (w // 2) * hp.d : (w // 2 + 1) * hp.d]
    params.We[:, UNK_INDEX] = mid * (hp.d / (mid @ mid))
    model = TrainedModel(hp, vocab, SYNTH_LABELS, PathMode.LABELED, regime, params)
    lexfeats = {i.raw.id: rng.normal(size=f) for i in instances[::2]} if f else None
    want = reference_table.predict_probs(model, instances, lexfeats)
    assert any(p.count(UNK_INDEX) > 1 for inst in instances
               for p in reference_table.indexed_paths(model, inst))

    got, failed = predict_corpus(model, instances, lexfeats)

    assert failed == 0
    for g, probs in zip(got, want, strict=True):
        assert np.array_equal(g.fwd_probs, probs[0])
        assert (g.rev_probs is None) == (len(probs) == 1)
        assert g.rev_probs is None or np.array_equal(g.rev_probs, probs[1])


def test_ids_only_the_reverse_path_holds_are_in_the_table():
    # With e2 on the verb, every forward arrow points to the head, so each
    # reversed path holds the other arrow, which the vocabulary maps to <unk>.
    instances = [
        type(inst)(dataclasses.replace(inst.raw, e2_span=(2, 2)), inst.parse)
        for inst in aligned_corpus(10, seed=13)
    ]
    model = tiny_model(Regime.SIGHTED_NS, instances=instances)
    got, failed = predict_corpus(model, instances)
    assert failed == 0
    assert_matches_reference(got, matmul_reference(model, instances, set()), instances)


def assert_matches_reference(got, want, instances):
    assert [p.id for p in got] == [p.id for p in want] == [i.raw.id for i in instances]
    assert [p.final for p in got] == [p.final for p in want]
    assert [p.failed for p in got] == [p.failed for p in want]
    for g, w in zip(got, want):
        assert close_or_both_none(g.fwd_probs, w.fwd_probs)
        assert close_or_both_none(g.rev_probs, w.rev_probs)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("predictions")


def prediction(inst_id, label):
    return Prediction(inst_id, None, None, label)


#: Blanks that may stand around a label; a tab would split the line again.
LABEL_BLANKS = st.text(st.sampled_from(" \x0b\x0c\u00a0\u3000"), max_size=2)


@st.composite
def accepted_prediction_files(draw):
    """The text of a prediction file that read_predictions accepts, and its rows:
    distinct ids, some spelled with leading zeros, blanks around labels, blank
    lines, and each line ended by ``\\n`` or ``\\r\\n``, the last one perhaps
    by nothing."""
    lines, rows = [], []
    for inst_id in draw(st.lists(st.integers(0, 10**6), unique=True, max_size=8)):
        zeros = "0" * draw(st.integers(0, 2))
        label = draw(st.sampled_from(L3.all_directed()))
        lines.append(f"{zeros}{inst_id}\t{draw(LABEL_BLANKS)}{label}{draw(LABEL_BLANKS)}")
        rows.append((inst_id, label))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(("", " ", "\t", " \t\x0c"))))
    ends = [draw(st.sampled_from(("\n", "\r\n"))) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)), rows


class TestPredictionFiles:
    @given(accepted_prediction_files())
    @example(("007\t Other \r\n\r\n1\tCause-Effect(e1,e2)", [(7, OTHER_LABEL), (1, CE12)]))
    def test_an_accepted_file_reads_back_equal_after_writing(self, workdir, case):
        text, want = case
        accepted = workdir / "accepted.tsv"
        accepted.write_bytes(text.encode("utf-8"))
        rows = read_predictions(accepted, L3)
        assert rows == want
        rewritten = workdir / "rewritten.tsv"
        write_predictions([prediction(i, label) for i, label in rows], rewritten)
        assert read_predictions(rewritten, L3) == sorted(rows)

    def test_other_line_format_and_ordering(self, tmp_path):
        path = tmp_path / "pred.tsv"
        write_predictions([prediction(43, CE21), prediction(42, OTHER_LABEL)], path)
        assert path.read_text() == "42\tOther\n43\tCause-Effect(e2,e1)\n"

    @given(st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(L3.all_directed())),
                    unique_by=lambda row: row[0]))
    @example([(10**40, CE12), (0, OTHER_LABEL), (7, CW21)])
    def test_round_trip(self, workdir, rows):
        path = workdir / "pred.tsv"
        write_predictions([prediction(i, label) for i, label in rows], path)
        assert read_predictions(path, L3) == sorted(rows)
