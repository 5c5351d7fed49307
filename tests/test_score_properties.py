"""Every field of ``macro_f1``'s report against a per-relation rescan of the
two label lists, over arbitrary gold and predicted labels."""

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from sdprel.corpus import DirectedLabel, LabelSet
from sdprel.infer_eval import RelationScore, macro_f1

LABELS = LabelSet(("RelA", "RelB", "RelC", "RelD"))
SPACE = LABELS.all_directed()

# Equal labels that are not the same object, as decoded network outputs are.
labels = st.sampled_from(SPACE) | st.sampled_from(SPACE).map(
    lambda label: DirectedLabel(label.base, label.direction)
)


@given(st.lists(st.tuples(labels, labels), max_size=40))
def test_every_report_field_equals_a_per_relation_rescan(pairs):
    gold = [g for g, _ in pairs]
    pred = [p for _, p in pairs]
    report = macro_f1(gold, pred, LABELS)

    assert list(report.per_relation) == list(LABELS.bases)
    scored, f1_sum = [], 0.0
    for base in LABELS.bases:
        tp = sum(1 for g, p in pairs if g == p and g.base == base)
        n_gold = sum(1 for g in gold if g.base == base)
        n_pred = sum(1 for p in pred if p.base == base)
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_gold if n_gold else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert report.per_relation[base] == RelationScore(
            precision, recall, f1, tp, n_gold, n_pred
        )
        if n_gold or n_pred:
            scored.append(base)
            f1_sum += f1

    assert report.scored_relations == tuple(scored)
    assert report.macro_f1 == (f1_sum / len(scored) if scored else 0.0)
    correct = sum(1 for g, p in pairs if g == p)
    assert report.accuracy == (correct / len(pairs) if pairs else 0.0)
    assert report.n == len(pairs)
    assert report.confusion == Counter((str(g), str(p)) for g, p in pairs)
    assert sum(report.confusion.values()) == len(pairs)
