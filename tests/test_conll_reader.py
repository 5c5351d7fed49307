"""The columnar CoNLL reader and tokenizer against their references."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_corpus
from sdprel.corpus import CorpusError, ParsedSentence, read_conll, tokenize
from helpers import random_parse
from synth import directional_corpus, write_corpus
from writers import write_conll

@st.composite
def head_tuples(draw, max_size=10):
    """A rooted tree with up to three heads redrawn, each as the root, a
    token or an out-of-range index: every tree fault shows up, alone or
    with others."""
    n = draw(st.integers(1, max_size))
    order = draw(st.permutations(range(n)))
    heads: list[int | None] = [None] * n
    for k in range(1, n):
        heads[order[k]] = order[draw(st.integers(0, k - 1))]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        heads[i] = draw(st.none() | st.integers(-2, n + 1))
    return tuple(heads)


@settings(max_examples=500, deadline=None)
@given(head_tuples())
def test_tree_check_accepts_and_rejects_as_the_reference_does(heads):
    n = len(heads)
    forms = tuple(f"w{i}" for i in range(n))
    deprels = ("dep",) * n
    try:
        reference_corpus.ParsedSentence(
            tuple(map(reference_corpus.Token, forms, heads, deprels))
        )
    except CorpusError as e:
        with pytest.raises(CorpusError) as info:
            ParsedSentence(forms, heads, deprels)
        assert str(info.value) == str(e)
    else:
        assert ParsedSentence(forms, heads, deprels).heads == heads


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from("aZ09_é中٣²ǅ .,-'\t\n\r\x0b\x1c 　") | st.characters()))
def test_tokenize_equals_the_reference_regex(text):
    assert tokenize(text) == re.findall(r"\w+|[^\w\s]", text)


def test_reader_gives_the_reference_readers_columns(tmp_path):
    raws, parses = directional_corpus(40, seed=3)
    rng = np.random.default_rng(5)
    parses += [random_parse(rng, int(rng.integers(1, 30))) for _ in range(40)]
    _, conll = write_corpus(tmp_path, "c", raws, parses)
    got = read_conll(conll)
    want = reference_corpus.read_conll(conll)
    assert got == parses
    assert [s.forms for s in got] == [tuple(t.form for t in s.tokens) for s in want]
    assert [s.heads for s in got] == [tuple(t.head for t in s.tokens) for s in want]
    assert [s.deprels for s in got] == [tuple(t.deprel for t in s.tokens) for s in want]


def _conll(path, *sentences):
    """Write sentences given as (form, HEAD as written) pairs."""
    lines = []
    for sent in sentences:
        lines += [f"{i}\t{f}\t_\t_\t_\t_\t{h}\tdep" for i, (f, h) in enumerate(sent, start=1)]
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def test_out_of_range_head_names_the_head_as_written_and_its_line(tmp_path):
    path = _conll(tmp_path / "t.conll", [("a", 9), ("b", 0)])
    message = f"{path}: sentence 1, line 1: HEAD 9 out of range for 2 tokens"
    with pytest.raises(CorpusError, match="^" + re.escape(message) + "$"):
        read_conll(path)
    path = _conll(tmp_path / "t.conll", [("a", 0)], [("a", 2), ("b", -1), ("c", 0)])
    message = f"{path}: sentence 2, line 4: HEAD -1 out of range for 3 tokens"
    with pytest.raises(CorpusError, match="^" + re.escape(message) + "$"):
        read_conll(path)


@pytest.mark.parametrize("sentence, fault", [
    ([("a", 0), ("b", 0)], "expected exactly one root token, found 2"),
    ([("a", 2), ("b", 1)], "no root token; head links form a cycle"),
    ([("a", 0), ("b", 3), ("c", 2)], "head links contain a cycle"),
])
def test_root_and_cycle_errors_name_the_sentences_first_line(tmp_path, sentence, fault):
    path = _conll(tmp_path / "t.conll", [("x", 0)], [("y", 2), ("z", 0)], sentence)
    message = f"{path}: sentence 3, line 6: {fault}"
    with pytest.raises(CorpusError, match="^" + re.escape(message) + "$"):
        read_conll(path)


def test_crlf_lines_read_as_lf_lines(tmp_path):
    path = _conll(tmp_path / "t.conll", [("a", 2), ("b", 0)], [("c", 0)])
    want = read_conll(path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_conll(path) == want
    assert want[0].deprels == ("dep", "dep")
    path.write_bytes(path.read_bytes().replace(b"\t0\tdep\r\n\r\n", b"\tx\tdep\r\n\r\n"))
    message = f"{path}: sentence 1, line 2: non-integer HEAD 'x'"
    with pytest.raises(CorpusError, match="^" + re.escape(message) + "$"):
        read_conll(path)
