"""The piece-by-piece readers against their whole-file references.

``corpus.read_lines`` reads a text file ``PIECE_BYTES`` at a time.
``model.load_model`` reads ``save_model``'s layout ``PIECE_CHARS`` at a time
and one parameter row at a time, and any other layout or text whole with
``json.loads``.  The tests lower the piece sizes, so that lines, characters,
rows and separators straddle piece boundaries, and hold the readers to
``reference_corpus.read_lines`` and ``reference_model.load_model``, which
read the whole file at once: the same lines, parameter bytes and fields, or
the same error text.
"""

import json
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_corpus
import reference_model
import sdprel.corpus
import sdprel.model
from sdprel.corpus import CorpusError, LabelSet, parse_semeval_file, read_conll, read_lines
from sdprel.deppath import PathMode
from sdprel.embeddings import Vocab
from sdprel.model import Regime, TrainedModel, load_model, save_model
from sdprel.network import BLOCKS, Hyperparams, init_network_params
from synth import SYNTH_LABELS, directional_corpus, write_corpus


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("pieces")


# ---------------------------------------------------------------------------
# Lines
# ---------------------------------------------------------------------------

def _lines_outcome(read, path):
    try:
        return list(read(path))
    except CorpusError as e:
        return str(e)


LINE_BYTES = [
    b"a", b"bc ", b"\n", b"\n", b"\r", b"\r\n", b"\t", b"\x0c", " ".encode(),
    "é".encode(), "中".encode(), "😀".encode(),
    b"\xff", b"\x80", "é".encode()[:1], "中".encode()[:2],  # bytes that do not decode
]


@settings(max_examples=400, deadline=None)
@given(data=st.lists(st.sampled_from(LINE_BYTES), max_size=30).map(b"".join),
       piece=st.integers(1, 9))
@example(data=b"ab\r\ncd\n", piece=3)  # the \r\n is cut between two pieces
@example(data="x中y\n".encode(), piece=2)  # a three-byte character straddles two cuts
@example(data=b"ok\nok\nok\n\xff\nok\n", piece=4)  # a bad byte in the third piece
@example(data=b"", piece=1)
@example(data=b"a\nb", piece=1)  # no final newline
def test_lines_equal_the_whole_file_readers(workdir, data, piece):
    path = workdir / "lines.txt"
    path.write_bytes(data)
    want = _lines_outcome(reference_corpus.read_lines, path)
    with mock.patch.object(sdprel.corpus, "PIECE_BYTES", piece):
        assert _lines_outcome(read_lines, path) == want
    assert _lines_outcome(read_lines, path) == want


def test_lines_arrive_before_the_rest_of_the_file_is_read(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"first\n" + b"x" * 100 + b"\n" + b"y" * 20 + b"\n\xff\n")
    with mock.patch.object(sdprel.corpus, "PIECE_BYTES", 8):
        lines = read_lines(path)
        assert [next(lines) for _ in range(3)] == ["first", "x" * 100, "y" * 20]
        with pytest.raises(CorpusError, match=r"line 4: not valid UTF-8$"):
            next(lines)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_corpus_readers_read_the_same_records_from_small_pieces(tmp_path, newline):
    raws, parses = directional_corpus(30, seed=4)
    sem, conll = write_corpus(tmp_path, "c", raws, parses)
    for path in (sem, conll):
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    with mock.patch.object(sdprel.corpus, "PIECE_BYTES", 5):
        assert parse_semeval_file(sem, SYNTH_LABELS) == raws
        assert read_conll(conll) == parses


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def model_for(seed, hp, vocab_size=6):
    items = ("<pad>", "<unk>", *(f"w{i}" for i in range(vocab_size - 2)))
    We = np.random.default_rng(seed).uniform(-0.25, 0.25, size=(hp.d, vocab_size))
    params = init_network_params(hp, We, seed)
    params.W1[0, 0] = -0.0
    params.b1[0] = 5e-324
    return TrainedModel(hp, Vocab(items, frozenset(items[2::2])), LabelSet(("RelA", "RelB")),
                        PathMode.LABELED, Regime.SIGHTED_NS, params)


@st.composite
def models(draw):
    hp = Hyperparams(d=draw(st.integers(1, 3)), w=draw(st.sampled_from([1, 3])),
                     n1=draw(st.integers(1, 4)), n2=draw(st.integers(1, 3)), K=3,
                     f=draw(st.integers(0, 2)))
    return model_for(draw(st.integers(0, 2**16)), hp, draw(st.integers(2, 9)))


def _shuffled(value, rng):
    """``value`` with the keys of every object in a random order."""
    if not isinstance(value, dict):
        return value
    keys = list(value)
    rng.shuffle(keys)
    return {key: _shuffled(value[key], rng) for key in keys}


def write_layout(model, path, indent, reorder, crlf):
    """Save ``model``, then rewrite the file with another layout of the
    same document: indented, its keys reordered or its newlines ``\\r\\n``."""
    save_model(model, path)
    if indent is None and not reorder and not crlf:
        return
    doc = json.loads(path.read_text(encoding="utf-8"))
    if reorder:
        doc = _shuffled(doc, random.Random(reorder))
    text = json.dumps(doc, indent=indent)
    path.write_bytes(text.replace("\n", "\r\n" if crlf else "\n").encode("utf-8"))


def _model_outcome(load, path):
    try:
        model = load(path)
    except ValueError as e:
        return type(e), str(e)
    return (model.hp, model.vocab.items, model.vocab.word_strings, model.labels, model.mode,
            model.regime, [getattr(model.params, name).shape for name in BLOCKS],
            [getattr(model.params, name).tobytes() for name in BLOCKS])


def assert_loads_as_the_reference(path, piece):
    want = _model_outcome(reference_model.load_model, path)
    with mock.patch.object(sdprel.model, "PIECE_CHARS", piece):
        assert _model_outcome(load_model, path) == want
    return want


@settings(max_examples=150, deadline=None)
@given(model=models(), indent=st.sampled_from([None, 0, 2]), reorder=st.integers(0, 3),
       crlf=st.booleans(), piece=st.integers(1, 80))
@example(model=model_for(0, Hyperparams(d=2, w=3, n1=3, n2=2, K=3)), indent=None, reorder=0,
         crlf=False, piece=1)  # save_model's own layout, one character at a time
def test_a_model_loads_as_the_json_reference_in_any_layout(
    workdir, model, indent, reorder, crlf, piece
):
    path = workdir / "model.json"
    write_layout(model, path, indent, reorder, crlf)
    outcome = assert_loads_as_the_reference(path, piece)
    assert outcome[-1] == [getattr(model.params, name).tobytes() for name in BLOCKS]
    if indent is None and not reorder and not crlf:
        with mock.patch.object(Path, "read_text", side_effect=AssertionError("whole")):
            load_model(path)  # save_model's own layout is never read whole


# Characters that make or break JSON syntax, or change a value's type.
EDITS = list('[]{},:" \n\r0-.e5aIN\\') + ["\ufeff", "\udc80", "true", "null", "[[", "]]"]


@settings(max_examples=400, deadline=None)
@given(model=models(), indent=st.sampled_from([None, 2]), crlf=st.booleans(),
       piece=st.integers(1, 80), at=st.floats(0, 1), cut=st.integers(0, 2),
       edit=st.sampled_from(EDITS))
@example(model=model_for(0, Hyperparams(d=2, w=1, n1=2, n2=2, K=3)), indent=None, crlf=False,
         piece=16, at=0.6, cut=0, edit="")  # cut short past the first piece
def test_an_edited_model_file_fails_or_loads_as_the_json_reference(
    workdir, model, indent, crlf, piece, at, cut, edit
):
    """Truncate the file, or replace up to two characters with ``edit``
    (a lone surrogate writes bytes that are not UTF-8): the loader gives the
    same error text as the reference, or the same model."""
    path = workdir / "edited.json"
    write_layout(model, path, indent, 0, crlf)
    text = path.read_bytes().decode("utf-8")
    i = int(at * len(text))
    edited = text[:i] if not edit else text[:i] + edit + text[i + cut:]
    path.write_bytes(edited.encode("utf-8", "surrogateescape"))
    assert_loads_as_the_reference(path, piece)


def _w2_row(row):
    def edit(doc):
        doc["params"]["W2"][1] = row
        return doc
    return edit


def _with_params(**blocks):
    return lambda doc: {**doc, "params": {**doc["params"], **blocks}}


ROWS = [["1.5", 0.5], [True, 0], [None, 0.5], ["x", 0.5], [{"a": 1}, 0.5], [10**400, 0.5],
        [[1.0], 0.5], [[1.0, 2.0], [3.0, 4.0]], [0.5], [0.5, 0.5, 0.5], [], 0.5, "row"]


@pytest.mark.parametrize("edit", [
    *map(_w2_row, ROWS),
    lambda doc: {},
    lambda doc: {**doc, "params": {}},
    _with_params(W2=1.5),
    _with_params(W2={"rows": [[0.5, 0.5]]}),
    _with_params(b1=[]),
    _with_params(We=[]),
    _with_params(W2=[[], []]),
    _with_params(W2=[0.5, 0.5]),
    _with_params(b1=[0.5, 0.5, 0.5]),
    _with_params(b1=[[0.5], [0.5]]),
    _with_params(extra=[1.0]),
    lambda doc: {"params": doc["params"]},
    lambda doc: {**doc, "vocab": {**doc["vocab"], "params": {}}},
])
def test_an_odd_document_reads_as_the_json_reference(tmp_path, edit):
    """A second row of W2 (2 x 2) that is not two numbers, an empty
    document or block, a block that is not a list or has the wrong shape
    or nesting, a block after the last, or a ``params`` that is the only
    key or nested in another object: the file loads, or fails with the same
    error, as a whole-document ``np.array`` makes it."""
    path = tmp_path / "model.json"
    save_model(model_for(3, Hyperparams(d=2, w=3, n1=2, n2=2, K=3)), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))),
                    encoding="utf-8")
    assert_loads_as_the_reference(path, 8)


@pytest.mark.parametrize("after", [" \n\t", " x", "{}", "\n]"])
def test_text_after_the_document_reads_as_the_json_reference(tmp_path, after):
    path = tmp_path / "model.json"
    save_model(model_for(3, Hyperparams(d=2, w=3, n1=2, n2=2, K=3)), path)
    path.write_text(path.read_text(encoding="utf-8") + after, encoding="utf-8")
    assert_loads_as_the_reference(path, 8)


@pytest.mark.parametrize("text", [
    "[1, 2]", '"sdprel-model/1"', "3.5", "null", " [{}] ", '[{"format": "sdprel-model/1"}]',
])
def test_a_top_level_value_that_is_not_an_object_is_an_unsupported_format(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    kind, message = assert_loads_as_the_reference(path, 2)
    assert "unsupported model format None" in message


@pytest.mark.parametrize("keep", [70_000, 200_000, 400_000])
def test_a_file_cut_short_past_the_first_full_piece_names_the_same_position(tmp_path, keep):
    path = tmp_path / "model.json"
    save_model(model_for(7, Hyperparams(d=8, w=3, n1=6, n2=4, K=3), 3000), path)
    assert path.stat().st_size > 400_000
    path.write_bytes(path.read_bytes()[:keep])
    kind, message = assert_loads_as_the_reference(path, sdprel.model.PIECE_CHARS)
    assert ": not valid JSON: " in message and "line 1 column" in message
