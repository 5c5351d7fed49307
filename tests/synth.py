"""Synthetic directional corpus: relation labels depend on subject/object order.

Each sentence is "the NOUN VERB the NOUN".  The verb decides the relation;
whether the syntactic subject (nsubj) or object (dobj) token is the semantic
subject depends on the verb's convention (half the verbs invert it), so a
model must conjoin verb identity with the arc-label pattern to recover the
relation direction.

``long_corpus`` draws longer sentences over a large vocabulary, with random
trees and labels, for measuring what a corpus costs in memory.
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
from helpers import DEPRELS, make_parse, random_heads
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


def long_corpus(n: int, seed: int, *, labels: LabelSet = SYNTH_LABELS, start_id: int = 1):
    """Generate n random sentences of 20-30 tokens drawn from 10,000 forms,
    each with a random tree, two one-token nominals and a random label
    (Other one time in five); returns (raws, parses)."""
    rng = np.random.default_rng(seed)
    directed = [x for x in labels.all_directed() if not x.is_other]
    raws: list[RawInstance] = []
    parses = []
    for i in range(n):
        t = int(rng.integers(20, 31))
        heads = random_heads(rng, t)
        forms = tuple(f"w{k}" for k in rng.integers(10_000, size=t))
        deprels = [DEPRELS[k] for k in rng.integers(len(DEPRELS), size=t)]
        e1, e2 = (int(k) for k in rng.choice(t, 2, replace=False))
        label = OTHER_LABEL if rng.random() < 0.2 else directed[rng.integers(len(directed))]
        raws.append(RawInstance(start_id + i, forms, (e1, e1), (e2, e2), label))
        parses.append(make_parse(zip(forms, heads, deprels)))
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
