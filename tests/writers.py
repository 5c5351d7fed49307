"""Test-side writers for the two input formats, and the e1/e2 span swap.

The program only reads annotated-sentence and CoNLL files; the tests write
them to build corpora on disk and to check that reading inverts writing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from sdprel.corpus import ParsedSentence, RawInstance


def write_semeval_file(instances: Iterable[RawInstance], path: str | Path) -> None:
    """Serialize instances back to the annotated text format."""
    out = []
    for inst in instances:
        toks = list(inst.tokens)
        toks[inst.e1_span[0]] = "<e1>" + toks[inst.e1_span[0]]
        toks[inst.e1_span[1]] = toks[inst.e1_span[1]] + "</e1>"
        toks[inst.e2_span[0]] = "<e2>" + toks[inst.e2_span[0]]
        toks[inst.e2_span[1]] = toks[inst.e2_span[1]] + "</e2>"
        out.append(f'{inst.id}\t"{" ".join(toks)}"')
        out.append(str(inst.label))
        out.append("")
    Path(path).write_text("\n".join(out), encoding="utf-8")


def write_conll(sentences: Iterable[ParsedSentence], path: str | Path) -> None:
    """Serialize parses in the 8-column CoNLL layout read by read_conll."""
    out = []
    for sent in sentences:
        for i, (form, head, deprel) in enumerate(zip(sent.forms, sent.heads, sent.deprels)):
            head = 0 if head is None else head + 1
            out.append("\t".join([str(i + 1), form, "_", "_", "_", "_", str(head), deprel]))
        out.append("")
    Path(path).write_text("\n".join(out), encoding="utf-8")


def with_swapped_spans(raw: RawInstance) -> RawInstance:
    """Relabel which nominal is e1/e2 (gold direction flips accordingly)."""
    return RawInstance(raw.id, raw.tokens, raw.e2_span, raw.e1_span, raw.label.reversed())
