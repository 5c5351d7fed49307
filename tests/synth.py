"""Synthetic directional corpus: relation labels depend on subject/object order.

Each sentence is "the NOUN VERB the NOUN".  The verb decides the relation;
whether the syntactic subject (nsubj) or object (dobj) token is the semantic
subject depends on the verb's convention (half the verbs invert it), so a
model must conjoin verb identity with the arc-label pattern to recover the
relation direction.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from sdprel.corpus import (
    AlignedInstance,
    DirectedLabel,
    Direction,
    LabelSet,
    OTHER_LABEL,
    RawInstance,
    align_corpus,
)
from helpers import make_parse
from writers import write_conll, write_semeval_file

SYNTH_LABELS = LabelSet(("RelA", "RelB", "RelC", "RelD", "RelE"))


def directional_corpus(
    n: int,
    seed: int,
    *,
    labels: LabelSet = SYNTH_LABELS,
    verbs_per_convention: int = 8,
    n_nouns: int = 30,
    n_other_verbs: int = 12,
    p_other: float = 0.2,
    start_id: int = 1,
):
    """Generate n aligned instances; returns (raws, parses)."""
    rng = np.random.default_rng(seed)
    raws: list[RawInstance] = []
    parses = []
    for i in range(n):
        inst_id = start_id + i
        noun_a, noun_b = (f"n{j:02d}" for j in rng.choice(n_nouns, 2, replace=False))
        if rng.random() < p_other:
            verb = f"vo{rng.integers(n_other_verbs)}"
            label = OTHER_LABEL
            role_a, role_b = ("nsubj", "dobj") if rng.random() < 0.5 else ("dobj", "nsubj")
        else:
            k = int(rng.integers(len(labels.bases)))
            inverted = rng.random() < 0.5
            conv = "p" if inverted else "a"
            verb = f"v{k}{conv}{rng.integers(verbs_per_convention)}"
            subject_first = rng.random() < 0.5
            label = DirectedLabel(
                labels.bases[k],
                Direction.E1_TO_E2 if subject_first else Direction.E2_TO_E1,
            )
            subj_role = "dobj" if inverted else "nsubj"
            obj_role = "nsubj" if inverted else "dobj"
            role_a, role_b = (
                (subj_role, obj_role) if subject_first else (obj_role, subj_role)
            )
        tokens = ("the", noun_a, verb, "the", noun_b)
        raws.append(RawInstance(inst_id, tokens, (1, 1), (4, 4), label))
        parses.append(make_parse([
            ("the", 1, "det"),
            (noun_a, 2, role_a),
            (verb, None, "root"),
            ("the", 4, "det"),
            (noun_b, 2, role_b),
        ]))
    return raws, parses


def aligned_corpus(n: int, seed: int, **kwargs) -> list[AlignedInstance]:
    raws, parses = directional_corpus(n, seed, **kwargs)
    return align_corpus(raws, parses)


def write_corpus(directory: Path, stem: str, raws, parses) -> tuple[Path, Path]:
    """Write matching annotated + CoNLL files, returning their paths."""
    sem = directory / f"{stem}.sem.txt"
    conll = directory / f"{stem}.conll"
    write_semeval_file(raws, sem)
    write_conll(parses, conll)
    return sem, conll
