"""Tests of the benchmark itself: span arithmetic, wrapper restoration, the
corpus generator, the gates and the metric names in BENCHMARK.json.

Runs on tiny workloads (small layers, a few dozen sentences), so the whole
file takes a few seconds.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT / "benchmark"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import corpora  # noqa: E402
import measure  # noqa: E402
from spans import PACKAGE_MODULES, Span, Tracer, leaked_wrappers, self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

TINY = {"d": 4, "w": 3, "n1": 6, "n2": 5}
TINY_TRAIN = Workload("tiny-train", corpora.SHORT, n_train=30, n_dev=20, epochs=2, sizes=TINY)
TINY_PREDICT = replace(TINY_TRAIN, name="tiny-predict", shape=corpora.LONG, n_test=15)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def test_self_time_subtracts_children_on_a_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, True),
        Span("a", 1.0, 4.0, 0, True),
        Span("a1", 1.5, 2.0, 1, True),
        Span("b", 5.0, 9.0, 0, True),
        Span("b1", 5.0, 6.0, 3, True),
        Span("b2", 7.0, 9.0, 3, True),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 0.5, 1.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, True),
        Span("x", 1.0, 3.0, 0, True),
        Span("y", 2.0, 4.0, 0, True),
    ]
    assert self_times(spans)[0] == pytest.approx(7.0)


def _training_tree() -> list[Span]:
    return [
        Span("training.run_training", 0.0, 10.0, -1, True),
        Span("training.train", 1.0, 9.0, 0, True),
        Span("network.forward", 1.0, 2.0, 1, True),
        Span("network.backward", 2.0, 4.0, 1, True),
        Span("infer_eval.predict_corpus", 5.0, 7.0, 1, True),
        Span("deppath.instance_path", 5.0, 5.5, 4, True),
        Span("deppath.instance_path", 5.5, 6.0, 4, False),
        Span("infer_eval.macro_f1", 7.0, 7.5, 1, True),
    ]


def test_layer_metrics_on_a_hand_built_tree():
    m = {k: v for k, (v, _) in measure.layer_metrics(_training_tree(), []).items()}
    assert m["training.sgd.self_s"] == pytest.approx(8.0 - 1.0 - 2.0 - 2.0 - 0.5)
    assert m["training.dev_eval.s"] == pytest.approx(2.5)
    assert m["training.dev_eval.share"] == pytest.approx(0.25)
    assert m["infer_eval.predict_corpus.self_s"] == pytest.approx(1.0)
    assert m["infer_eval.usable_path_share"] == pytest.approx(0.5)
    assert m["network.backward.calls"] == 1
    assert m["network.loss.us_p50"] == 0.0  # never called: zero, not missing


def test_metrics_of_a_missing_function_are_left_out():
    m = measure.layer_metrics(_training_tree(), ["sdprel.training:train"])
    assert "training.sgd.self_s" not in m
    assert "training.dev_eval.s" not in m
    assert "network.forward.calls" in m


def test_install_reports_a_name_that_no_longer_exists():
    tracer = Tracer()
    tracer.install({"sdprel.network:no_such_function": "network.gone"})
    tracer.restore()
    assert tracer.missing == ["sdprel.network:no_such_function"]


# ---------------------------------------------------------------------------
# Traced runs: restoration, closed-form counts, metric names
# ---------------------------------------------------------------------------


def _every_alias() -> dict[tuple[str, str], object]:
    """Every sdprel module or class attribute that the benchmark wraps."""
    modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
    out = {}
    for target in measure.TARGETS:
        module_name, _, attr = target.partition(":")
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        if path:
            out[(target, "")] = original
            continue
        for module in modules:
            for key, value in vars(module).items():
                if value is original:
                    out[(module.__name__, key)] = original
    return out


def _lookup(key: tuple[str, str]) -> object:
    if key[1]:
        return getattr(importlib.import_module(key[0]), key[1])
    module_name, _, attr = key[0].partition(":")
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("wl", [TINY_TRAIN, TINY_PREDICT], ids=lambda w: w.name)
def test_traced_run_restores_every_wrapped_attribute(wl, tmp_path):
    before = _every_alias()
    run = measure.trace_predict if wl.predicts else measure.trace_train
    (tmp_path / "run").mkdir()
    result = run(wl, 3, tmp_path / "run")  # gates the closed-form counts
    assert all(_lookup(key) is original for key, original in before.items())
    assert leaked_wrappers() == []
    assert sorted(result.metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert (tmp_path / f"{wl.name}-3.spans.jsonl").is_file()
    if wl.predicts:
        assert result.metrics["network.backward.calls"][0] == 0
        assert result.metrics["network.forward.calls"][0] == 2 * wl.n_test


def test_benchmark_json_names_the_defined_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_timed_run_reports_every_end_to_end_metric_and_is_deterministic(tmp_path):
    results = []
    for i in range(2):
        (tmp_path / str(i)).mkdir()
        results.append(measure.run_timed(TINY_TRAIN, 4, 0.01, tmp_path / str(i)))
    names = [m["name"] for m in SPEC["end_to_end"]]
    for r in results:
        assert sorted(r.metrics) == sorted(names)
        assert all(v > 0 for k, (v, _) in r.metrics.items() if k != "macro_f1")
        assert r.attempted > 0 and r.failed == 0
    assert results[0].notes["model_sha256"] == results[1].notes["model_sha256"]


def test_predict_run_reports_every_end_to_end_metric(tmp_path):
    result = measure.run_timed(TINY_PREDICT, 4, 0.01, tmp_path)
    assert sorted(result.metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert 0.0 <= result.notes["corpus"]["test"]["oov_word_share"] <= 1.0


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def test_round_trip_gate_catches_a_changed_parameter(tmp_path, monkeypatch):
    real_load = measure.model_io.load_model

    def corrupted_load(path):
        model = real_load(path)
        model.params.W2[0, 0] += 1e-12
        return model

    monkeypatch.setattr(measure.model_io, "load_model", corrupted_load)
    with pytest.raises(measure.GateError, match="W2"):
        measure.run_timed(TINY_TRAIN, 4, 0.01, tmp_path)


def test_command_fails_without_numbers_when_the_sources_are_absent(tmp_path):
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train-short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ---------------------------------------------------------------------------
# Corpus generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [corpora.SHORT, corpora.LONG], ids=["short", "long"])
def test_generator_writes_identical_files_for_identical_seeds(shape, tmp_path):
    def files(directory: Path, seed: int) -> tuple[bytes, bytes]:
        directory.mkdir()
        corpora.write_split(directory, "x", shape, 40, seed, "train")
        return (directory / "x.sem.txt").read_bytes(), (directory / "x.conll").read_bytes()

    first = files(tmp_path / "a", 7)
    assert files(tmp_path / "b", 7) == first
    assert files(tmp_path / "c", 8) != first


def _path_nodes(s: corpora.Sentence) -> int:
    """Labeled path length between the anchors: 3 nodes per arc, plus one."""
    def up(i):
        chain = [i]
        while s.heads[chain[-1]] is not None:
            chain.append(s.heads[chain[-1]])
        return chain

    a, b = up(s.e1), up(s.e2)
    common = next(x for x in a if x in b)
    return 1 + 3 * (a.index(common) + b.index(common))


@pytest.mark.parametrize("shape", [corpora.SHORT, corpora.LONG], ids=["short", "long"])
def test_every_block_has_the_same_make_up(shape):
    sentences = corpora.generate(shape, 5 * corpora.BLOCK, 2, "dev")
    for i in range(0, len(sentences), corpora.BLOCK):
        block = sentences[i : i + corpora.BLOCK]
        assert sum(s.label == corpora.OTHER for s in block) == 2
        assert sorted(_path_nodes(s) for s in block) == sorted(
            6 * (a + b) + 7 if shape.chains else 7 for a, b in corpora.CHAIN_DEPTHS
        )


def test_sentence_shapes():
    short = corpora.generate(corpora.SHORT, 50, 1, "train")
    assert {len(s.forms) for s in short} == {5}
    assert {_path_nodes(s) for s in short} == {7}
    long = corpora.generate(corpora.LONG, 200, 1, "train")
    assert {_path_nodes(s) for s in long} <= set(range(13, 32, 6))
    assert 20 <= sum(len(s.forms) for s in long) / len(long) <= 30
