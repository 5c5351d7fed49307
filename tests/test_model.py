"""Model artifact serialization round trips, and errors for files that are not models."""

import hashlib
import json
import os
import sys
import tracemalloc

import numpy as np
import pytest

import sdprel.model
from model_peak_rss import peak_rise
from reference_model import model_json
from sdprel.cli import main
from sdprel.corpus import LabelSet
from sdprel.deppath import PathMode
from sdprel.embeddings import Vocab
from sdprel.infer_eval import predict_corpus
from sdprel.model import Regime, TrainedModel, load_model, save_model
from sdprel.network import Hyperparams, init_network_params
from synth import aligned_corpus


def small_model(seed=0, hp=Hyperparams(d=3, w=3, n1=4, n2=3, K=3),
                items=("<pad>", "<unk>", "a", "→", "nsubj", "b"), bases=("RelA", "RelB")):
    vocab = Vocab(items, frozenset(items[2::3]))
    We = np.random.default_rng(seed).uniform(-0.25, 0.25, size=(hp.d, len(vocab)))
    params = init_network_params(hp, We, seed)
    return TrainedModel(hp, vocab, LabelSet(bases), PathMode.LABELED, Regime.SIGHTED_NS, params)


def edge_value_model():
    """Values whose shortest repr is unusual: signed zero, the smallest
    subnormal, values near the largest double, in 2-D and 1-D blocks."""
    model = small_model(seed=5)
    model.params.W2[1] = [-0.0, 5e-324, 1e308, -1.7976931348623157e308]
    model.params.b3[:] = [-0.0, -5e-324, 1e-5]
    return model


SAVE_CASES = {
    "small": small_model(),
    "lexical features": small_model(seed=1, hp=Hyperparams(d=3, w=3, n1=4, n2=3, K=3, f=2)),
    "1x1 blocks": small_model(seed=2, hp=Hyperparams(d=1, w=1, n1=1, n2=1, K=1),
                              items=("<pad>", "<unk>")),
    "edge values": edge_value_model(),
    "non-ASCII": small_model(seed=3, items=("<pad>", "<unk>", "→", "é", "中", "\u2028"),
                             bases=("Rél→A", "RelB")),
}


@pytest.mark.parametrize("name", SAVE_CASES)
def test_saved_bytes_equal_one_json_dumps_of_the_whole_document(tmp_path, name):
    model = SAVE_CASES[name]
    path = tmp_path / "model.json"
    save_model(model, path)
    assert path.read_bytes() == model_json(model).encode("utf-8")
    assert os.listdir(tmp_path) == ["model.json"]


def test_a_failed_save_keeps_the_earlier_file_and_leaves_no_temporary_file(
    tmp_path, monkeypatch
):
    path = tmp_path / "model.json"
    save_model(small_model(), path)
    before = path.read_bytes()
    real = sdprel.model._block_json
    calls = []

    def fail_after_the_first_block(block):
        calls.append(block.shape)
        if len(calls) > 1:
            raise RuntimeError("disk gone")
        return real(block)

    monkeypatch.setattr(sdprel.model, "_block_json", fail_after_the_first_block)
    with pytest.raises(RuntimeError, match="disk gone"):
        save_model(small_model(seed=9), path)
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_saving_a_paper_sized_model_raises_the_peak_rss_by_less_than_the_file_size(tmp_path):
    """Rows are written as they are encoded, so the save's memory does not
    grow with the model: saving a model of the benchmark's predict-long
    size (V = 1900 at the paper's network sizes) in a fresh interpreter
    raises its peak resident size by less than the size of the file."""
    path = tmp_path / "model.json"
    rise = peak_rise("save", 1900, path)
    assert path.stat().st_size > 2_000_000
    assert rise < path.stat().st_size, f"peak RSS rose {rise} B for a {path.stat().st_size} B file"


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_loading_a_paper_sized_model_raises_the_peak_rss_by_less_than_the_file_size(tmp_path):
    """Rows are read one at a time, so loading the same V = 1900 model in a
    fresh interpreter raises its peak resident size by less than the size of
    the file; a whole-document ``json.loads`` raised it by about 2.4 times."""
    path = tmp_path / "model.json"
    peak_rise("save", 1900, path)
    rise = peak_rise("load", 1900, path)
    assert path.stat().st_size > 2_000_000
    assert rise < path.stat().st_size, f"peak RSS rose {rise} B for a {path.stat().st_size} B file"


def test_round_trip_is_bit_exact(tmp_path):
    model = small_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    for name in ("We", "W1", "b1", "W2", "b2", "W3", "b3"):
        assert np.array_equal(getattr(again.params, name), getattr(model.params, name))
    assert again.hp == model.hp
    assert again.vocab.items == model.vocab.items
    assert again.vocab.word_strings == model.vocab.word_strings
    assert again.labels == model.labels
    assert again.mode is model.mode
    assert again.regime is model.regime


def test_model_file_bytes_are_pinned(tmp_path):
    """The model file is an on-disk format: its key order and bytes for a
    fixed small model must not change (the hash also pins numpy's PCG64
    uniform stream, which ``small_model`` draws from)."""
    path = tmp_path / "model.json"
    save_model(small_model(), path)
    data = path.read_bytes()
    doc = json.loads(data)
    assert list(doc) == ["format", "hyperparams", "mode", "regime", "labels", "vocab", "params"]
    assert list(doc["hyperparams"]) == [
        "d", "w", "n1", "n2", "K", "f",
        "lambda_we", "lambda_w1", "lambda_w2", "lambda_w3", "train_pad",
    ]
    assert list(doc["vocab"]) == ["items", "word_strings"]
    assert list(doc["params"]) == ["We", "W1", "b1", "W2", "b2", "W3", "b3"]
    assert len(data) == 2079
    assert hashlib.sha256(data).hexdigest() == (
        "d5d799784a92fa7f499dd5df759b1bec36dda9a1446528e0d350830e2bedcbf8"
    )


def test_save_load_save_is_stable(tmp_path):
    model = small_model(seed=4)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_model(model, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("train_pad", [None, True])
def test_train_pad_key_is_ignored_on_load(tmp_path, train_pad):
    """Files keep a constant ``train_pad``; loading drops it, whatever its
    value or whether it is there, and predicts as the saved model does."""
    model = small_model(seed=2)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert doc["hyperparams"]["train_pad"] is False
    if train_pad is None:
        del doc["hyperparams"]["train_pad"]
    else:
        doc["hyperparams"]["train_pad"] = train_pad
    path.write_text(json.dumps(doc))
    again = load_model(path)
    assert again.hp == model.hp
    instances = aligned_corpus(12, seed=5, labels=model.labels)
    want, _ = predict_corpus(model, instances)
    got, _ = predict_corpus(again, instances)
    assert [(p.final, p.confidence) for p in got] == [(p.final, p.confidence) for p in want]
    for g, w in zip(got, want):
        assert g.fwd_probs.tobytes() == w.fwd_probs.tobytes()
        assert g.rev_probs.tobytes() == w.rev_probs.tobytes()


def test_unknown_format_tag_rejected(tmp_path):
    model = small_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["format"] = "something-else/9"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format"):
        load_model(path)


def _predict_with(model_path, tmp_path, capsys):
    absent = str(tmp_path / "absent")
    code = main([
        "predict", "--model", str(model_path), "--sem", absent, "--conll", absent,
        "--out", str(tmp_path / "pred.txt"),
    ])
    return code, capsys.readouterr().err.splitlines()


def test_truncated_model_file_names_the_path(tmp_path, capsys):
    path = tmp_path / "model.json"
    save_model(small_model(), path)
    path.write_text(path.read_text()[:11])
    with pytest.raises(ValueError, match="model.json: not valid JSON"):
        load_model(path)
    code, err = _predict_with(path, tmp_path, capsys)
    assert code == 1
    assert len(err) == 1
    assert str(path) in err[0] and "line 1 column 12" in err[0]


def test_missing_key_names_the_path_and_the_key(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format": "sdprel-model/1"}))
    with pytest.raises(ValueError, match="missing key 'hyperparams'"):
        load_model(path)
    code, err = _predict_with(path, tmp_path, capsys)
    assert code == 1
    assert len(err) == 1
    assert str(path) in err[0] and "'hyperparams'" in err[0]


def test_an_int_beyond_the_float_range_names_the_path(tmp_path, capsys):
    path = tmp_path / "model.json"
    save_model(small_model(), path)
    doc = json.loads(path.read_text())
    doc["params"]["W2"][1][0] = 10**400
    path.write_text(json.dumps(doc))  # still save_model's layout
    code, err = _predict_with(path, tmp_path, capsys)
    assert code == 1
    assert err == [f"sdprel: model file {path}: int too large to convert to float"]


def test_blocks_are_not_sized_from_the_header(tmp_path, capsys):
    """A header that claims n1 = 10**7 gets a shape error naming the file;
    the loader allocates no block of that size (80 MB for b1 alone)."""
    path = tmp_path / "model.json"
    save_model(small_model(), path)
    doc = json.loads(path.read_text())
    doc["hyperparams"]["n1"] = 10**7
    path.write_text(json.dumps(doc))  # still save_model's layout
    tracemalloc.start()
    try:
        code, err = _predict_with(path, tmp_path, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert err == [f"sdprel: model file {path}: W1 has shape (4, 9), expected (10000000, 9)"]
    assert peak < 10**7


@pytest.mark.parametrize("block, row, value", [
    ("W2", 0, float("nan")),
    ("We", 1, float("inf")),  # the unknown-node column, unused by most inputs
    ("b3", None, float("-inf")),
])
def test_non_finite_parameter_names_the_path_and_the_block(tmp_path, capsys, block, row, value):
    path = tmp_path / "model.json"
    save_model(small_model(), path)
    doc = json.loads(path.read_text())
    if row is None:
        doc["params"][block][0] = value
    else:
        doc["params"][block][0][row] = value
    path.write_text(json.dumps(doc))  # json writes NaN and Infinity and reads them back
    with pytest.raises(ValueError, match=f"block {block} holds a non-finite value"):
        load_model(path)
    code, err = _predict_with(path, tmp_path, capsys)
    assert code == 1
    assert err == [f"sdprel: model file {path}: block {block} holds a non-finite value"]


@pytest.mark.parametrize("change", [-3, 1])
def test_embedding_columns_must_match_the_vocabulary(tmp_path, capsys, change):
    path = tmp_path / "model.json"
    model = small_model()
    save_model(model, path)
    doc = json.loads(path.read_text())
    n = len(model.vocab)
    doc["params"]["We"] = [(row + [0.0] * change)[: n + change] for row in doc["params"]["We"]]
    path.write_text(json.dumps(doc))
    expected = f"model file {path}: We has {n + change} columns but the vocabulary has {n} items"
    with pytest.raises(ValueError) as caught:
        load_model(path)
    assert str(caught.value) == expected
    code, err = _predict_with(path, tmp_path, capsys)
    assert code == 1
    assert err == [f"sdprel: {expected}"]


def test_repeated_vocabulary_items_name_the_path(tmp_path, capsys):
    path = tmp_path / "model.json"
    save_model(small_model(), path)
    doc = json.loads(path.read_text())
    doc["vocab"]["items"][-1] = doc["vocab"]["items"][2]
    path.write_text(json.dumps(doc))
    expected = f"model file {path}: duplicate vocab entries"
    with pytest.raises(ValueError) as caught:
        load_model(path)
    assert str(caught.value) == expected
    code, err = _predict_with(path, tmp_path, capsys)
    assert code == 1
    assert err == [f"sdprel: {expected}"]


@pytest.mark.parametrize("keys, value, message", [
    (("hyperparams", "d"), 50.0, "d must be an integer, got 50.0"),
    (("hyperparams", "d"), "50", "d must be an integer, got '50'"),
    (("hyperparams", "K"), True, "K must be an integer, got True"),
    (("hyperparams", "f"), None, "f must be an integer, got None"),
    (("hyperparams", "lambda_we"), None, "lambda_we must be a real number, got None"),
    (("hyperparams", "lambda_w3"), "0.002", "lambda_w3 must be a real number, got '0.002'"),
    (("hyperparams", "lambda_w1"), False, "lambda_w1 must be a real number, got False"),
    (("labels", 1), 3, "labels must be a list of strings"),
    (("labels",), "RelA", "labels must be a list of strings"),
    (("vocab", "items", 2), 7, "vocab.items must be a list of strings"),
    (("vocab", "word_strings", 0), 1.5, "vocab.word_strings must be a list of strings"),
])
def test_a_wrongly_typed_field_names_the_path_and_the_key(tmp_path, capsys, keys, value, message):
    path = tmp_path / "model.json"
    save_model(small_model(), path)
    doc = json.loads(path.read_text())
    *outer, last = keys
    field = doc
    for key in outer:
        field = field[key]
    field[last] = value
    path.write_text(json.dumps(doc))
    expected = f"model file {path}: {message}"
    with pytest.raises(ValueError) as caught:
        load_model(path)
    assert str(caught.value) == expected
    code, err = _predict_with(path, tmp_path, capsys)
    assert code == 1
    assert err == [f"sdprel: {expected}"]


def test_sizes_may_be_numpy_integers_and_weights_numpy_floats():
    hp = Hyperparams(d=np.int64(3), w=np.int32(3), n1=4, n2=3, K=3, f=np.uint8(0),
                     lambda_we=np.float32(0.5), lambda_w1=0)
    assert (hp.d_w, hp.lambda_we, hp.lambda_w1) == (9, 0.5, 0)
