"""Seeded synthetic relation corpora for the benchmark, written as SemEval + CoNLL.

Every sentence has a root verb whose identity decides the relation; half of
each relation's verbs invert which syntactic argument (nsubj or dobj) is the
semantic subject, so a model has to combine the verb with the arc labels on
the path to get the direction right.  One label in ten is redrawn at random,
so that dev and test macro-F1 stay below 1.0 however well a model learns.

Two shapes share that logic:

* short: ``the N V the N`` (5 tokens, labeled path of 7 nodes);
* long:  each nominal sits at the end of a chain of prepositional phrases
  under its argument head, nouns carry adjectives, and the verb has an adverb,
  an off-path prepositional phrase and a full stop (about 20-30 tokens,
  labeled paths of 13-31 nodes, about two thousand distinct path words in
  500 sentences).

This module does not import ``sdprel``: the files it writes are the program's
input, and the benchmark reads them back through ``sdprel.corpus``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: The relation inventory of ``sdprel``'s default label set, Other implicit.
RELATIONS = (
    "Cause-Effect",
    "Component-Whole",
    "Content-Container",
    "Entity-Destination",
    "Entity-Origin",
    "Instrument-Agency",
    "Member-Collection",
    "Message-Topic",
    "Product-Producer",
)
OTHER = "Other"
PREPOSITIONS = ("of", "in", "on", "at", "from", "with", "by", "for", "near", "under")

#: Independent random streams per split, so no two splits share draws even
#: when the workload seed equals the fixed seed of the predict fixture.
STREAMS = {"train": 1, "dev": 2, "test": 3}

#: Every block of BLOCK consecutive sentences has the same make-up, in a
#: random order: two Other, one relation sentence whose label is redrawn at
#: random, seven relations, and (long shape) each chain-depth pair below
#: once.  A timed step that takes whole blocks then does the same work
#: whatever the seed.
BLOCK = 10
LABEL_SLOTS = ("other", "other", "noise") + ("relation",) * 7
#: Prepositional phrases between (e1, e2) and their argument heads; a path
#: has 6 * (depth_e1 + depth_e2) + 7 nodes, 13 to 31.
CHAIN_DEPTHS = ((0, 1), (1, 0), (0, 2), (2, 0), (1, 1), (1, 1), (1, 2), (2, 1), (2, 2), (0, 1))


@dataclass(frozen=True)
class Shape:
    """How sentences of one workload are built."""

    n_nominals: int
    verbs_per_convention: int
    n_other_verbs: int
    chains: bool = False     # nominals at the end of prepositional-phrase chains
    n_fillers: int = 0       # chain and off-path nouns
    n_adjectives: int = 0
    max_adjectives: int = 0  # per noun
    n_adverbs: int = 0


SHORT = Shape(n_nominals=200, verbs_per_convention=2, n_other_verbs=6)
LONG = Shape(n_nominals=3000, verbs_per_convention=2, n_other_verbs=6, chains=True,
             n_fillers=6000, n_adjectives=400, max_adjectives=3, n_adverbs=50)


@dataclass(frozen=True)
class Sentence:
    """One instance: tokens with 0-based heads (None = root) and arc labels."""

    id: int
    forms: tuple[str, ...]
    heads: tuple[int | None, ...]
    deprels: tuple[str, ...]
    e1: int
    e2: int
    label: str


class _Draft:
    """A sentence under construction: parallel token lists, heads filled in late."""

    def __init__(self) -> None:
        self.forms: list[str] = []
        self.heads: list[int | None] = []
        self.deprels: list[str] = []

    def add(self, form: str, deprel: str, head: int | None = None) -> int:
        self.forms.append(form)
        self.heads.append(head)
        self.deprels.append(deprel)
        return len(self.forms) - 1


def _noun(b: _Draft, rng: np.random.Generator, shape: Shape, form: str) -> int:
    """Append ``the ADJ* NOUN``; returns the noun's position."""
    det = b.add("the", "det")
    adjs = [
        b.add(f"a{rng.integers(shape.n_adjectives)}", "amod")
        for _ in range(rng.integers(shape.max_adjectives + 1))
    ]
    noun = b.add(form, "")
    for i in (det, *adjs):
        b.heads[i] = noun
    return noun


def _argument(
    b: _Draft, rng: np.random.Generator, shape: Shape, nominal: str, depth: int
) -> tuple[int, int]:
    """Append the argument noun phrase; returns (head position, nominal position).

    With depth > 0 the head is a filler noun and the nominal ends a chain of
    ``depth`` prepositional phrases hanging from it.
    """
    if depth == 0:
        pos = _noun(b, rng, shape, nominal)
        return pos, pos
    head = prev = _noun(b, rng, shape, f"f{rng.integers(shape.n_fillers)}")
    for level in range(depth):
        prep = b.add(PREPOSITIONS[rng.integers(len(PREPOSITIONS))], "prep", prev)
        form = nominal if level == depth - 1 else f"f{rng.integers(shape.n_fillers)}"
        prev = _noun(b, rng, shape, form)
        b.heads[prev] = prep
        b.deprels[prev] = "pobj"
    return head, prev


def _directed(k: int, subject_first: bool) -> str:
    return RELATIONS[k] + ("(e1,e2)" if subject_first else "(e2,e1)")


def _label_and_verb(
    rng: np.random.Generator, shape: Shape, slot: str
) -> tuple[str, str, tuple[str, str]]:
    """Draw (label, verb, (role of the first argument, role of the second))."""
    if slot == "other":
        verb = f"vo{rng.integers(shape.n_other_verbs)}"
        roles = ("nsubj", "dobj") if rng.random() < 0.5 else ("dobj", "nsubj")
        label = OTHER
    else:
        k = int(rng.integers(len(RELATIONS)))
        inverted = rng.random() < 0.5
        verb = f"v{k}{'p' if inverted else 'a'}{rng.integers(shape.verbs_per_convention)}"
        subject_first = rng.random() < 0.5
        subj, obj = ("dobj", "nsubj") if inverted else ("nsubj", "dobj")
        roles = (subj, obj) if subject_first else (obj, subj)
        label = _directed(k, subject_first)
        if slot == "noise":
            label = _directed(int(rng.integers(len(RELATIONS))), rng.random() < 0.5)
    return label, verb, roles


def sentence(
    inst_id: int, rng: np.random.Generator, shape: Shape, slot: str,
    depths: tuple[int, int] = (0, 0),
) -> Sentence:
    label, verb, (role_a, role_b) = _label_and_verb(rng, shape, slot)
    nom_a, nom_b = (f"n{j}" for j in rng.choice(shape.n_nominals, 2, replace=False))
    depth_a, depth_b = depths

    b = _Draft()
    head_a, e1 = _argument(b, rng, shape, nom_a, depth_a)
    adverb = b.add(f"r{rng.integers(shape.n_adverbs)}", "advmod") if shape.n_adverbs else None
    v = b.add(verb, "root")
    head_b, e2 = _argument(b, rng, shape, nom_b, depth_b)
    b.heads[head_a], b.deprels[head_a] = v, role_a
    b.heads[head_b], b.deprels[head_b] = v, role_b
    if adverb is not None:
        b.heads[adverb] = v
    if shape.n_fillers:
        prep = b.add(PREPOSITIONS[rng.integers(len(PREPOSITIONS))], "prep", v)
        filler = _noun(b, rng, shape, f"f{rng.integers(shape.n_fillers)}")
        b.heads[filler], b.deprels[filler] = prep, "pobj"
        b.add(".", "punct", v)
    return Sentence(inst_id, tuple(b.forms), tuple(b.heads), tuple(b.deprels), e1, e2, label)


def generate(shape: Shape, n: int, seed: int, split: str, start_id: int = 1) -> list[Sentence]:
    """n sentences drawn from the (seed, split) stream; same inputs, same output."""
    rng = np.random.default_rng([STREAMS[split], seed])
    out: list[Sentence] = []
    while len(out) < n:
        slots = [LABEL_SLOTS[j] for j in rng.permutation(BLOCK)]
        depths = [CHAIN_DEPTHS[j] if shape.chains else (0, 0) for j in rng.permutation(BLOCK)]
        for slot, pair in zip(slots, depths):
            if len(out) < n:
                out.append(sentence(start_id + len(out), rng, shape, slot, pair))
    return out


def write_semeval(sentences: list[Sentence], path: Path) -> None:
    out = []
    for s in sentences:
        toks = list(s.forms)
        toks[s.e1] = f"<e1>{toks[s.e1]}</e1>"
        toks[s.e2] = f"<e2>{toks[s.e2]}</e2>"
        out.append(f'{s.id}\t"{" ".join(toks)}"\n{s.label}\nComment:\n\n')
    path.write_text("".join(out), encoding="utf-8")


def write_conll(sentences: list[Sentence], path: Path) -> None:
    out = []
    for s in sentences:
        for i, (form, head, deprel) in enumerate(zip(s.forms, s.heads, s.deprels)):
            h = 0 if head is None else head + 1
            out.append(f"{i + 1}\t{form}\t_\t_\t_\t_\t{h}\t{deprel}\n")
        out.append("\n")
    path.write_text("".join(out), encoding="utf-8")


def write_split(
    directory: Path, stem: str, shape: Shape, n: int, seed: int, split: str,
    start_id: int = 1,
) -> list[Sentence]:
    """Generate one split into ``<stem>.sem.txt`` and ``<stem>.conll``."""
    sentences = generate(shape, n, seed, split, start_id)
    write_semeval(sentences, directory / f"{stem}.sem.txt")
    write_conll(sentences, directory / f"{stem}.conll")
    return sentences
