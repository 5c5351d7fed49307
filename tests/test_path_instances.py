"""``build_path_instances``: the path orientation of each regime, reversed and
pool negatives, lexical features, and skipped instances, compared as node
strings against the breadth-first reference extraction; the class
indices that ``to_labeled`` gives their labels; and that ``run_training``
holds no path once they are indexed."""

import gc
import re
from dataclasses import replace

import numpy as np
import pytest

import sdprel.training as training
from sdprel.corpus import OTHER_LABEL, Direction, LabelSet
from sdprel.deppath import NodeSequence, PathError, PathMode, format_path_line, select_anchor
from sdprel.embeddings import build_vocab
from sdprel.model import Regime
from sdprel.training import (
    ConfigError, NegativeScheme, PathInstance, Provenance, TrainConfig, build_path_instances,
    to_labeled,
)
from reference_path import build_graph, encode_path, shortest_path
from synth import SYNTH_LABELS, aligned_corpus
from writers import with_swapped_spans

CONFIGS = {
    Regime.BLIND: TrainConfig(regime=Regime.BLIND, negatives=NegativeScheme.NONE),
    Regime.SIGHTED: TrainConfig(regime=Regime.SIGHTED, negatives=NegativeScheme.NONE),
    Regime.SIGHTED_NS: TrainConfig(regime=Regime.SIGHTED_NS, negatives=NegativeScheme.REVERSED),
}


def reference_texts(inst, mode, *, subject_first, backwards=False):
    """The reference path from the e1 anchor to the e2 anchor, or from the
    gold subject to the gold object; ``backwards`` swaps its two ends."""
    raw, parse = inst.raw, inst.parse
    a, b = select_anchor(raw.e1_span, parse), select_anchor(raw.e2_span, parse)
    if subject_first and raw.label.direction is Direction.E2_TO_E1:
        a, b = b, a
    if backwards:
        a, b = b, a
    g = build_graph(parse)
    return encode_path(shortest_path(g, a, b), g, parse, mode).texts


def summary(path_instances):
    return [(p.id, p.provenance, p.label, p.seq.texts) for p in path_instances]


@pytest.mark.parametrize("mode", list(PathMode))
@pytest.mark.parametrize("regime", [Regime.BLIND, Regime.SIGHTED])
def test_gold_paths_run_e1_to_e2_when_blind_and_subject_first_when_sighted(regime, mode):
    instances = aligned_corpus(40, seed=3)
    directions = {inst.raw.label.direction for inst in instances}
    assert {Direction.E1_TO_E2, Direction.E2_TO_E1, Direction.NONE} <= directions

    out, skipped = build_path_instances(instances, replace(CONFIGS[regime], mode=mode))
    assert skipped == []
    assert summary(out) == [
        (inst.raw.id, Provenance.GOLD, inst.raw.label,
         reference_texts(inst, mode, subject_first=regime is Regime.SIGHTED))
        for inst in instances
    ]
    assert all(p.lexfeat is None for p in out)


@pytest.mark.parametrize("mode", list(PathMode))
def test_each_non_other_gold_path_is_followed_by_its_reverse_as_other(mode):
    instances = aligned_corpus(40, seed=4)
    out, _ = build_path_instances(instances, replace(CONFIGS[Regime.SIGHTED_NS], mode=mode))
    expected = []
    for inst in instances:
        gold = reference_texts(inst, mode, subject_first=True)
        expected.append((inst.raw.id, Provenance.GOLD, inst.raw.label, gold))
        if not inst.raw.label.is_other:
            reversed_texts = reference_texts(inst, mode, subject_first=True, backwards=True)
            expected.append((inst.raw.id, Provenance.NEG_REVERSED, OTHER_LABEL, reversed_texts))
    assert summary(out) == expected
    n_other = sum(inst.raw.label.is_other for inst in instances)
    assert 0 < n_other < len(instances)
    assert len(out) == 2 * len(instances) - n_other


def test_pool_paths_come_last_as_other_with_zero_lexical_features(tmp_path):
    instances = aligned_corpus(6, seed=5)
    ids = [inst.raw.id for inst in instances]
    lexfeats = {i: np.array([float(i), -1.0]) for i in ids[:3]}
    # The first pool id is also a gold id with listed features: the pool line
    # still gets zeros.
    pool = [
        (ids[0], NodeSequence(("x", "→", "nsubj", "y"), PathMode.LABELED)),
        (9002, NodeSequence(("y", "←", "dobj", "z", "→", "prep", "x"), PathMode.LABELED)),
    ]
    pool_path = tmp_path / "pool.paths"
    pool_path.write_text("".join(format_path_line(i, s) + "\n" for i, s in pool), encoding="utf-8")
    config = TrainConfig(negatives=NegativeScheme.POOL, pool_path=str(pool_path))

    out, skipped = build_path_instances(instances, config, lexfeats)
    assert skipped == []
    gold, pooled = out[: len(instances)], out[len(instances) :]
    assert summary(gold) == [
        (inst.raw.id, Provenance.GOLD, inst.raw.label,
         reference_texts(inst, PathMode.LABELED, subject_first=True))
        for inst in instances
    ]
    for inst_id, p in zip(ids, gold):
        assert np.array_equal(p.lexfeat, lexfeats.get(inst_id, np.zeros(2)))
    assert summary(pooled) == [
        (i, Provenance.NEG_POOL, OTHER_LABEL, s.texts) for i, s in pool
    ]
    for p in pooled:
        assert np.array_equal(p.lexfeat, np.zeros(2))


def test_an_absent_pool_file_is_a_config_error_naming_it(tmp_path):
    pool_path = tmp_path / "absent.paths"
    config = TrainConfig(negatives=NegativeScheme.POOL, pool_path=str(pool_path))
    message = f"cannot read negative pool file {pool_path}: "
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        build_path_instances(aligned_corpus(2, seed=5), config)


@pytest.mark.parametrize("regime", list(Regime))
def test_instances_without_a_path_are_skipped_and_their_ids_returned(monkeypatch, regime):
    instances = aligned_corpus(10, seed=6)
    ids = [inst.raw.id for inst in instances]
    fail_ids = [ids[0], ids[4], ids[9]]

    def failing(extract):
        def wrapped(raw, parse, mode):
            if raw.id in fail_ids:
                raise PathError("forced")
            return extract(raw, parse, mode)
        return wrapped

    monkeypatch.setattr(training, "instance_path", failing(training.instance_path))
    monkeypatch.setattr(training, "subject_first_path", failing(training.subject_first_path))
    out, skipped = build_path_instances(instances, CONFIGS[regime])
    assert skipped == fail_ids
    assert [p.id for p in out if p.provenance is Provenance.GOLD] == [
        i for i in ids if i not in fail_ids
    ]
    assert not {p.id for p in out} & set(fail_ids)


@pytest.mark.parametrize("regime, expected", [
    # RelB is base 1: (e1,e2) at 2·1, (e2,e1) at 2·1 + 1, Other at 2R.
    (Regime.BLIND, [2, 3, 6, 6]),
    # The sighted paths start at the subject: both directions are base 1.
    (Regime.SIGHTED, [1, 1, 3, 3]),
    (Regime.SIGHTED_NS, [1, 1, 3, 3]),
])
def test_to_labeled_gives_the_class_index_of_each_label(regime, expected):
    labels = LabelSet(("RelA", "RelB", "RelC"))
    seq = NodeSequence(("a", "→", "nsubj", "b"), PathMode.LABELED)
    path_instances = [
        PathInstance(1, seq, labels.parse("RelB(e1,e2)")),
        # a sighted gold (e2,e1) path starts at e2; a blind path never does
        PathInstance(2, seq, labels.parse("RelB(e2,e1)"), from_e2=regime is not Regime.BLIND),
        PathInstance(2, seq, OTHER_LABEL, Provenance.NEG_REVERSED),
        PathInstance(3, seq, OTHER_LABEL),
    ]
    vocab = build_vocab([seq])
    out = to_labeled(path_instances, vocab, labels, regime)
    assert [inst.id for inst in out] == [1, 2, 2, 3]
    assert all(inst.indices == vocab.indexify(seq) for inst in out)
    assert [inst.gold for inst in out] == expected


@pytest.mark.parametrize("regime", [Regime.SIGHTED, Regime.SIGHTED_NS])
def test_swapped_nominals_give_the_same_paths_and_classes(regime):
    # Swapping e1 and e2 and reversing the gold label keeps every path and
    # class; only whether each path starts at e2 flips.
    instances = [i for i in aligned_corpus(30, seed=15) if not i.raw.label.is_other]
    swapped = [replace(i, raw=with_swapped_spans(i.raw)) for i in instances]
    original, _ = build_path_instances(instances, CONFIGS[regime])
    mirrored, _ = build_path_instances(swapped, CONFIGS[regime])
    assert [p.seq for p in original] == [p.seq for p in mirrored]
    assert [p.from_e2 for p in original] == [not p.from_e2 for p in mirrored]
    assert {p.from_e2 for p in original} == {False, True}
    if regime is Regime.SIGHTED_NS:  # each gold path is followed by its reversed negative
        assert [p.from_e2 for p in original[1::2]] == [not p.from_e2 for p in original[::2]]
    vocab = build_vocab(p.seq for p in original)
    for a, b in zip(*(to_labeled(p, vocab, SYNTH_LABELS, regime) for p in (original, mirrored))):
        assert a.indices == b.indices
        assert a.gold == b.gold


def test_no_path_instance_is_alive_while_train_runs(monkeypatch):
    """``run_training`` drops the encoded paths once ``to_labeled`` has
    indexed them, so SGD holds the indexed set and not the node strings."""
    alive = []

    def scanned(*args, **kwargs):
        gc.collect()
        alive.append(sum(isinstance(o, PathInstance) for o in gc.get_objects()))
        return train(*args, **kwargs)

    train = training.train
    monkeypatch.setattr(training, "train", scanned)
    corpus = aligned_corpus(30, seed=2)
    config = replace(CONFIGS[Regime.SIGHTED_NS], d=4, n1=6, n2=5, max_epochs=1)
    _, _, info = training.run_training(
        config, corpus, aligned_corpus(10, seed=3, start_id=100), SYNTH_LABELS
    )
    assert alive == [0]
    assert info["n_negatives"] == sum(not inst.raw.label.is_other for inst in corpus)
