"""Timed and traced runs of one workload, with the correctness gates.

The timed run drives the public ``sdprel`` functions the way ``sdprel train``
and ``sdprel predict`` do and reports the end-to-end metrics.  The traced run
runs one full-size unit of the same work traced and derives the per-layer
metrics from its spans (see ``spans.py``).  Any failed gate raises
``GateError``, and the run then reports no numbers.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import corpora
from spans import Span, Tracer, has_ancestor, leaked_wrappers, percentile_us, self_times
from workloads import FIXTURE_SEED, Workload

import sdprel.corpus as corpus
import sdprel.deppath as deppath
import sdprel.infer_eval as infer_eval
import sdprel.model as model_io
import sdprel.network as network
import sdprel.training as training

MIN_ROUNDS = 3
#: A timed prediction classifies this many instances (five generator blocks).
PREDICT_CHUNK = 50
OVERHEAD_PAIRS = 10
#: The training run whose tracing overhead is measured uses this many train
#: and dev instances (one generator block each).
OVERHEAD_INSTANCES = 10
DEV_START_ID = 100_000
TEST_START_ID = 200_000
#: The parameter blocks, as the model file names them.
PARAM_BLOCKS = ("We", "W1", "b1", "W2", "b2", "W3", "b3")

#: Wrapped functions (``module:attr``) and the span names they record.
TARGETS = {
    "sdprel.corpus:parse_semeval_file": "corpus.parse_semeval_file",
    "sdprel.corpus:read_conll": "corpus.read_conll",
    "sdprel.corpus:align_corpus": "corpus.align_corpus",
    "sdprel.deppath:instance_path": "deppath.instance_path",
    "sdprel.deppath:reverse_path": "deppath.reverse_path",
    "sdprel.embeddings:build_vocab": "embeddings.build_vocab",
    "sdprel.embeddings:init_embeddings": "embeddings.init_embeddings",
    "sdprel.embeddings:Vocab.indexify": "embeddings.Vocab.indexify",
    "sdprel.network:forward": "network.forward",
    "sdprel.network:window_concat": "network.window_concat",
    "sdprel.network:_check_finite": "network.check_finite",
    "sdprel.network:loss": "network.loss",
    "sdprel.network:backward": "network.backward",
    "sdprel.training:build_path_instances": "training.build_path_instances",
    "sdprel.training:to_labeled": "training.to_labeled",
    "sdprel.training:train": "training.train",
    "sdprel.training:adagrad_update": "training.adagrad_update",
    "sdprel.training:run_training": "training.run_training",
    "sdprel.infer_eval:predict_corpus": "infer_eval.predict_corpus",
    "sdprel.infer_eval:combine": "infer_eval.combine",
    "sdprel.infer_eval:macro_f1": "infer_eval.macro_f1",
    "sdprel.model:save_model": "model.save_model",
    "sdprel.model:load_model": "model.load_model",
}


class GateError(Exception):
    """A correctness gate failed."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Split:
    sem: Path
    conll: Path
    n_other: int


def write_split(directory: Path, stem: str, shape: corpora.Shape, n: int,
                seed: int, split: str, start_id: int) -> Split:
    sentences = corpora.write_split(directory, stem, shape, n, seed, split, start_id)
    n_other = sum(s.label == corpora.OTHER for s in sentences)
    return Split(directory / f"{stem}.sem.txt", directory / f"{stem}.conll", n_other)


def load_split(split: Split, labels: corpus.LabelSet) -> list[corpus.AlignedInstance]:
    """Read and align one split, as ``sdprel train``/``predict`` do."""
    raws = corpus.parse_semeval_file(split.sem, labels)
    return corpus.align_corpus(raws, corpus.read_conll(split.conll))


def corpus_properties(instances, vocab=None) -> dict:
    """Measured shape of a split; with a vocab, also the OOV share of path words."""
    paths = [deppath.instance_path(i.raw, i.parse, deppath.PathMode.LABELED) for i in instances]
    props = {
        "instances": len(instances),
        "mean_tokens": statistics.fmean(len(i.raw.tokens) for i in instances),
        "mean_path_nodes": statistics.fmean(len(p) for p in paths),
        "other_share": sum(i.raw.label.is_other for i in instances) / len(instances),
    }
    if vocab is not None:
        words = [n.text for p in paths for n in p.nodes if n.kind is deppath.NodeKind.WORD]
        props["oov_word_share"] = sum(w not in vocab for w in words) / len(words)
    return props


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def check_gradients() -> None:
    report = network.grad_check()
    gate(report.passed, "gradient check failed:\n" + report.render())


def check_labels(predictions, labels: corpus.LabelSet) -> None:
    valid = set(labels.all_directed())
    for p in predictions:
        gate(p.final in valid, f"instance {p.id}: label {p.final} is not in the label set")
        gate(p.final.is_other or p.final.direction is not corpus.Direction.NONE,
             f"instance {p.id}: relation {p.final.base} predicted without a direction")


def same_predictions(a, b) -> bool:
    def probs_equal(x, y):
        return (x is None and y is None) or (
            x is not None and y is not None and x.tobytes() == y.tobytes()
        )
    return len(a) == len(b) and all(
        p.id == q.id and p.final == q.final and p.failed == q.failed
        and probs_equal(p.fwd_probs, q.fwd_probs) and probs_equal(p.rev_probs, q.rev_probs)
        for p, q in zip(a, b)
    )


def check_round_trip(model, path: Path, instances):
    """The saved model reloads bit-exactly and predicts exactly as the original.

    Returns the reloaded model and its predictions.
    """
    loaded = model_io.load_model(path)
    for name in PARAM_BLOCKS:
        a, b = getattr(model.params, name), getattr(loaded.params, name)
        gate(a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(),
             f"parameter {name} changed in the save/load round trip")
    gate((loaded.hp, loaded.vocab, loaded.labels, loaded.mode, loaded.regime)
         == (model.hp, model.vocab, model.labels, model.mode, model.regime),
         "model metadata changed in the save/load round trip")
    predictions, _ = infer_eval.predict_corpus(model, instances)
    again, _ = infer_eval.predict_corpus(loaded, instances)
    gate(same_predictions(predictions, again), "the reloaded model predicts differently")
    check_labels(predictions, model.labels)
    return loaded, predictions


def score(instances, predictions, labels) -> float:
    gold = [i.raw.label for i in instances]
    return infer_eval.macro_f1(gold, [p.final for p in predictions], labels).macro_f1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _params_digest(params) -> str:
    digest = hashlib.sha256()
    for name in PARAM_BLOCKS:
        digest.update(getattr(params, name).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Timed run (tracing off)
# ---------------------------------------------------------------------------


def _repeat(seconds: float, step) -> None:
    """Call ``step`` at least MIN_ROUNDS times, then while another call of
    the mean length still fits in ``seconds``."""
    start = time.perf_counter()
    rounds = 0
    while True:
        step()
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
            return


def _write_train_dev(wl: Workload, directory: Path, seed: int) -> tuple[Split, Split]:
    return (
        write_split(directory, "train", wl.shape, wl.n_train, seed, "train", 1),
        write_split(directory, "dev", wl.shape, wl.n_dev, seed, "dev", DEV_START_ID),
    )


def _check_history(history, wl: Workload) -> None:
    gate(len(history) == wl.epochs,
         f"training ran {len(history)} epochs, expected max_epochs={wl.epochs}")


def _summary(times: list[float]) -> dict:
    return {"n": len(times), "min_s": min(times), "median_s": statistics.median(times),
            "max_s": max(times)}


def run_timed(wl: Workload, seed: int, seconds: float, directory: Path) -> Result:
    """End-to-end metrics of one workload, measured with tracing off.

    A full-size training gives the model that macro-F1, saving, predicting
    and the round-trip gates use.  Then three short steps repeat,
    interleaved: a setup, a save of the model and a prediction of the first
    PREDICT_CHUNK scored instances.  A second full-size training ends the
    run, which lasts about ``seconds`` in all.  Each time metric reports the
    median of its step's repetitions: on a host whose cores are shared the
    speed can swing by 2x within seconds, and interleaving the steps exposes
    every metric to the same mix of fast and slow periods.  Training is
    timed at full size, so that the costs that grow with the vocab weigh as
    they do in ``sdprel train``.
    """
    labels = corpus.DEFAULT_LABELS
    config = training.config_from_mapping(wl.config_values())
    train_split, dev_split = _write_train_dev(wl, directory, FIXTURE_SEED if wl.predicts else seed)
    check_gradients()
    train, dev = load_split(train_split, labels), load_split(dev_split, labels)
    times: dict[str, list[float]] = {"setup": [], "train": [], "save": [], "predict_chunk": []}
    attempted = failed = 0

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        times[name].append(time.perf_counter() - t0)
        return result

    def train_full():
        trained, history, info = timed("train", training.run_training, config, train, dev, labels)
        _check_history(history, wl)
        return trained, info

    model, info = train_full()
    params_digest = _params_digest(model.params)
    path = directory / "model.json"
    model_io.save_model(model, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if wl.predicts:
        test_split = write_split(directory, "test", wl.shape, wl.n_test, seed, "test",
                                 TEST_START_ID)

        def setup():  # what ``sdprel predict`` reads before it classifies
            loaded = model_io.load_model(path)
            return loaded, load_split(test_split, loaded.labels)

        scored = setup()[1]
    else:
        def setup():  # what ``sdprel train`` reads before it trains
            return load_split(train_split, labels), load_split(dev_split, labels)

        scored = dev
    loaded, reference = check_round_trip(model, path, scored)
    chunk, expected = scored[:PREDICT_CHUNK], reference[:PREDICT_CHUNK]

    def short_steps():
        nonlocal attempted, failed
        timed("setup", setup)
        timed("save", model_io.save_model, model, path)
        gate(hashlib.sha256(path.read_bytes()).hexdigest() == digest,
             "save_model wrote different bytes for the same model")
        predictions, n_failed = timed("predict_chunk", infer_eval.predict_corpus, loaded, chunk)
        gate(same_predictions(predictions, expected), "predictions differ between calls")
        attempted += len(chunk)
        failed += n_failed

    # The run ends with a second full-size training, so the short steps get
    # what is left of ``seconds`` after two trainings.
    _repeat(seconds - 2 * times["train"][0], short_steps)
    again, _ = train_full()
    gate(_params_digest(again.params) == params_digest,
         "training twice on the same inputs gave different parameters")

    # Every training skips the same train instances, and each epoch's dev
    # evaluation fails on the same dev instances.
    dev_failed = infer_eval.predict_corpus(model, dev)[1]
    trainings = len(times["train"])
    attempted += trainings * (len(train) + wl.epochs * len(dev))
    failed += trainings * (len(info["skipped"]) + wl.epochs * dev_failed)

    metrics = {
        "setup_s": (statistics.median(times["setup"]), "s"),
        "train_examples_per_s": (
            info["n_train"] * wl.epochs / statistics.median(times["train"]), "examples/s"
        ),
        "model_save_s": (statistics.median(times["save"]), "s"),
        "predict_instances_per_s": (
            len(chunk) / statistics.median(times["predict_chunk"]), "instances/s"
        ),
        "macro_f1": (score(scored, reference, labels), "1"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "model_sha256": digest,
        "samples": {name: _summary(t) for name, t in times.items()},
        "corpus": {
            "train": corpus_properties(train) | {"vocab_size": len(model.vocab)},
            "test" if wl.predicts else "dev": corpus_properties(scored, model.vocab),
        },
    }
    return Result(metrics, attempted, failed, notes)


# ---------------------------------------------------------------------------
# Traced run (per-layer metrics)
# ---------------------------------------------------------------------------


def _install() -> Tracer:
    tracer = Tracer()
    tracer.install(TARGETS)
    return tracer


def _traced(unit, small_unit, directory: Path, stem: str):
    """Run ``unit`` traced; returns (its result, spans, missing, overhead metrics).

    The spans are written to ``<stem>.spans.jsonl`` beside ``directory``,
    which holds only the run's temporary files.  The tracing overhead is
    measured on ``small_unit``, run OVERHEAD_PAIRS times untraced and
    traced: the median difference within a pair, whose two runs are close
    enough in time to see the same host speed.  The pairs alternate which
    side runs first, so that a drift in host speed does not count as
    overhead.
    """
    tracer = _install()
    try:
        result = unit()
    finally:
        tracer.restore()

    def plain_time():
        t0 = time.perf_counter()
        small_unit()
        return time.perf_counter() - t0

    def traced_time():
        pair_tracer = _install()
        try:
            return plain_time()
        finally:
            pair_tracer.restore()

    plain, traced = [], []
    for i in range(OVERHEAD_PAIRS):
        if i % 2:
            traced.append(traced_time())
            plain.append(plain_time())
        else:
            plain.append(plain_time())
            traced.append(traced_time())
    leaked = leaked_wrappers()
    gate(not leaked, f"timing wrappers left installed: {', '.join(leaked)}")
    tracer.write(directory.parent / f"{stem}.spans.jsonl")
    overhead = statistics.median(t - p for t, p in zip(traced, plain))
    metrics = {
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead / statistics.median(plain), "1"),
    }
    return result, tracer.finished(), tracer.missing, metrics


def _check_counts(metrics: dict, expected: dict[str, int]) -> None:
    for name, want in expected.items():
        if name in metrics:
            got = metrics[name][0]
            gate(got == want, f"{name} = {got}, expected {want} from the closed form")


def trace_train(wl: Workload, seed: int, directory: Path) -> Result:
    labels = corpus.DEFAULT_LABELS
    config = training.config_from_mapping(wl.config_values())
    train_split, dev_split = _write_train_dev(wl, directory, seed)
    check_gradients()
    path = directory / "model.json"

    def unit():
        train, dev = load_split(train_split, labels), load_split(dev_split, labels)
        model, history, _ = training.run_training(config, train, dev, labels)
        model_io.save_model(model, path)
        model_io.load_model(path)
        return history

    train, dev = load_split(train_split, labels), load_split(dev_split, labels)

    def small_unit():
        training.run_training(
            config, train[:OVERHEAD_INSTANCES], dev[:OVERHEAD_INSTANCES], labels
        )

    history, spans, missing, overhead = _traced(unit, small_unit, directory, f"{wl.name}-{seed}")
    _check_history(history, wl)
    metrics = layer_metrics(spans, missing) | overhead
    metrics["model.file_bytes"] = (path.stat().st_size, "B")
    examples = wl.n_train + (wl.n_train - train_split.n_other)  # gold + reversed negatives
    _check_counts(metrics, {
        "network.backward.calls": wl.epochs * examples,
        "network.forward.calls": wl.epochs * (examples + 2 * wl.n_dev),
        "deppath.instance_path.calls": wl.n_train + wl.epochs * wl.n_dev,
    })
    attempted = wl.n_train + wl.epochs * wl.n_dev
    no_path = sum(not s.ok for s in spans if s.name == "deppath.instance_path")
    return Result(metrics, attempted, no_path, {"missing": missing})


def trace_predict(wl: Workload, seed: int, directory: Path) -> Result:
    labels = corpus.DEFAULT_LABELS
    config = training.config_from_mapping(wl.config_values())
    train_split, dev_split = _write_train_dev(wl, directory, FIXTURE_SEED)
    test_split = write_split(directory, "test", wl.shape, wl.n_test, seed, "test", TEST_START_ID)
    check_gradients()
    train, dev = load_split(train_split, labels), load_split(dev_split, labels)
    fixture, history, _ = training.run_training(config, train, dev, labels)
    _check_history(history, wl)
    path = directory / "model.json"

    def unit():
        model_io.save_model(fixture, path)
        model = model_io.load_model(path)
        test = load_split(test_split, model.labels)
        predictions, failed = infer_eval.predict_corpus(model, test)
        infer_eval.macro_f1([i.raw.label for i in test], [p.final for p in predictions], labels)
        return predictions, failed

    test = load_split(test_split, labels)

    def small_unit():
        infer_eval.predict_corpus(fixture, test[:PREDICT_CHUNK])

    (predictions, failed), spans, missing, overhead = _traced(
        unit, small_unit, directory, f"{wl.name}-{seed}"
    )
    check_labels(predictions, labels)
    metrics = layer_metrics(spans, missing) | overhead
    metrics["model.file_bytes"] = (path.stat().st_size, "B")
    _check_counts(metrics, {
        "network.backward.calls": 0,
        "network.forward.calls": 2 * wl.n_test,
        "deppath.instance_path.calls": wl.n_test,
    })
    return Result(metrics, wl.n_test, failed, {"missing": missing})


def layer_metrics(spans: list[Span], missing: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans; 0 for a layer that was not called.

    A metric whose wrapped function no longer exists is left out, so it shows
    as missing rather than as zero.
    """
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
    selfs = self_times(spans)

    def durations(name: str) -> list[float]:
        return [spans[i].duration for i in by_name[name]]

    m: dict[str, tuple[float, str]] = {}
    for name in ("corpus.parse_semeval_file", "corpus.read_conll", "corpus.align_corpus",
                 "embeddings.build_vocab", "embeddings.init_embeddings",
                 "training.build_path_instances", "training.to_labeled",
                 "infer_eval.predict_corpus", "infer_eval.macro_f1", "network.check_finite",
                 "model.save_model", "model.load_model"):
        m[f"{name}.s"] = (sum(durations(name)), "s")
    for name in ("deppath.instance_path", "network.forward", "network.backward"):
        m[f"{name}.calls"] = (len(by_name[name]), "count")
    for name in ("deppath.instance_path", "network.forward", "network.backward",
                 "training.adagrad_update"):
        m[f"{name}.us_p50"] = (percentile_us(durations(name), 50), "us")
        m[f"{name}.us_p99"] = (percentile_us(durations(name), 99), "us")
    for name in ("deppath.reverse_path", "embeddings.Vocab.indexify", "network.window_concat",
                 "network.loss", "infer_eval.combine"):
        m[f"{name}.us_p50"] = (percentile_us(durations(name), 50), "us")

    sgd_checks = sum(
        1 for i in by_name["network.check_finite"]
        if has_ancestor(spans, i, "training.train")
        and not has_ancestor(spans, i, "infer_eval.predict_corpus")
    )
    n_backward = len(by_name["network.backward"])
    m["network.check_finite.calls_per_example"] = (
        sgd_checks / n_backward if n_backward else 0.0, "count/example"
    )
    m["training.sgd.self_s"] = (sum(selfs[i] for i in by_name["training.train"]), "s")
    dev_eval = sum(
        spans[i].duration
        for name in ("infer_eval.predict_corpus", "infer_eval.macro_f1")
        for i in by_name[name]
        if spans[i].parent >= 0 and spans[spans[i].parent].name == "training.train"
    )
    run_training = sum(durations("training.run_training"))
    m["training.dev_eval.s"] = (dev_eval, "s")
    m["training.dev_eval.share"] = (dev_eval / run_training if run_training else 0.0, "1")
    m["infer_eval.predict_corpus.self_s"] = (
        sum(selfs[i] for i in by_name["infer_eval.predict_corpus"]), "s"
    )
    lookups = [i for i in by_name["deppath.instance_path"]
               if has_ancestor(spans, i, "infer_eval.predict_corpus")]
    m["infer_eval.usable_path_share"] = (
        sum(spans[i].ok for i in lookups) / len(lookups) if lookups else 0.0, "1"
    )

    gone = {TARGETS[t] for t in missing}
    derived_from = {
        "network.check_finite.calls_per_example": {"network.check_finite", "network.backward", "training.train"},
        "training.sgd.self_s": {"training.train"},
        "training.dev_eval.s": {"training.train", "infer_eval.predict_corpus", "infer_eval.macro_f1"},
        "training.dev_eval.share": {"training.train", "infer_eval.predict_corpus", "training.run_training"},
        "infer_eval.usable_path_share": {"deppath.instance_path", "infer_eval.predict_corpus"},
    }
    return {
        k: v for k, v in m.items()
        if not (derived_from.get(k, {k.rsplit(".", 1)[0]}) & gone)
    }
