"""Early stopping in ``train``: which epoch's parameters come back, when it
stops, and how much memory its snapshot costs at the paper's scale; the
``.history`` file that records each epoch; and the one-BLAS-thread scope that
``train`` runs its epochs in."""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdprel.training as training
from sdprel.corpus import DEFAULT_LABELS
from sdprel.network import BLOCKS, Hyperparams, NumericError, forward, init_network_params
from sdprel.training import EpochStats, LabeledInstance, TrainConfig, train, write_history
from helpers import nan_probability_forward
from model_peak_rss import TRAIN_COPIES, parameter_bytes, peak_rise
from synth import aligned_corpus

HP = Hyperparams(d=3, w=3, n1=4, n2=3, K=3)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("history")


def small_problem():
    rng = np.random.default_rng(0)
    We = rng.uniform(-0.25, 0.25, size=(HP.d, 8))
    We[:, 0] = 0.0
    params = init_network_params(HP, We, seed=1)
    train_set = [
        LabeledInstance(i, tuple(int(j) for j in rng.integers(1, 8, size=4)), None, i % HP.K)
        for i in range(6)
    ]
    return params, train_set


class ScriptedDev:
    """Returns the scripted dev F1 of each epoch and keeps a copy of the
    parameters it was shown."""

    def __init__(self, scores):
        self.scores = list(scores)
        self.seen = []

    def __call__(self, params):
        self.seen.append(params.copy())
        return self.scores[len(self.seen) - 1]


def assert_same_params(a, b):
    for name in BLOCKS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_first_best_epoch_is_kept_and_training_stops_after_patience_stale_epochs():
    params, train_set = small_problem()
    # Epoch 2 is the first best; epoch 3 ties it, which is not an improvement.
    dev = ScriptedDev([0.2, 0.5, 0.5, 0.4, 0.3, 0.9, 0.9, 0.9])
    config = TrainConfig(max_epochs=8, patience=3)
    best, history = train(config, train_set, params, HP, dev)

    assert len(history) == 5  # stale after epochs 3, 4 and 5
    assert [h.epoch for h in history] == [1, 2, 3, 4, 5]
    assert [h.dev_f1 for h in history] == [0.2, 0.5, 0.5, 0.4, 0.3]
    assert len(dev.seen) == 5
    assert_same_params(best, dev.seen[1])
    assert best is not params
    # The live parameters went on training past the snapshot.
    assert not np.array_equal(params.W1, best.W1)


def test_improvement_resets_the_stale_count():
    params, train_set = small_problem()
    dev = ScriptedDev([0.1, 0.1, 0.3, 0.2, 0.2, 0.2, 0.2])
    best, history = train(TrainConfig(max_epochs=7, patience=3), train_set, params, HP, dev)
    assert len(history) == 6
    assert_same_params(best, dev.seen[2])


def test_runs_every_epoch_while_dev_improves():
    params, train_set = small_problem()
    dev = ScriptedDev([0.1, 0.2, 0.3, 0.4])
    best, history = train(TrainConfig(max_epochs=4, patience=1), train_set, params, HP, dev)
    assert len(history) == 4
    assert_same_params(best, dev.seen[3])
    assert best is not params  # the snapshot of the last epoch, not the live parameters


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_training_at_the_paper_scale_holds_one_snapshot_beside_the_adagrad_sums():
    """The best-epoch snapshot is overwritten in place, so four improving
    epochs at V = 25,000 raise ``train``'s peak resident size by the AdaGrad
    sums, one snapshot and small temporaries (about 2.25 parameter copies);
    two snapshots alive at once would read about 3.2."""
    copies = peak_rise("train", 25_000) / parameter_bytes(25_000)
    assert copies < TRAIN_COPIES, f"peak RSS rose {copies:.2f} parameter copies"


def test_each_epoch_visits_the_examples_in_a_new_order(monkeypatch):
    """``shuffle_order`` seeds each epoch apart, so epochs 1 and 2 visit the
    same examples in different orders."""
    params, _ = small_problem()
    train_set = [LabeledInstance(i, (i,), None, i % HP.K) for i in range(1, 8)]
    visits = []

    def recording_forward(params, hp, indices, lexfeat):
        visits.append(indices[0])
        return forward(params, hp, indices, lexfeat)

    monkeypatch.setattr(training, "forward", recording_forward)
    train(TrainConfig(max_epochs=2), train_set, params, HP, ScriptedDev([0.1, 0.2]))
    first, second = visits[: len(train_set)], visits[len(train_set) :]
    assert sorted(first) == sorted(second) == [inst.id for inst in train_set]
    assert first != second


def test_empty_training_set_is_rejected():
    params, _ = small_problem()
    with pytest.raises(training.ConfigError, match="empty training set"):
        train(TrainConfig(max_epochs=1), [], params, HP, ScriptedDev([0.5]))


def test_run_training_rejects_a_corpus_without_a_usable_instance():
    with pytest.raises(training.ConfigError, match="no usable training instances"):
        training.run_training(
            TrainConfig(max_epochs=1), [], aligned_corpus(2, seed=0), DEFAULT_LABELS
        )


@pytest.mark.parametrize("dev", [[], None])
def test_run_training_rejects_a_missing_or_empty_dev_split(dev):
    with pytest.raises(training.ConfigError,
                       match="^training needs a dev split with at least one instance$"):
        training.run_training(TrainConfig(max_epochs=1), aligned_corpus(4, seed=0), dev,
                              DEFAULT_LABELS)


def trained_history():
    params, train_set = small_problem()
    dev = ScriptedDev([0.25, 0.5, 1 / 3])
    return train(TrainConfig(max_epochs=3, patience=3), train_set, params, HP, dev)[1]


@st.composite
def histories(draw):
    """Epochs 1..n, each with a finite non-negative mean loss, subnormals to
    1e308, and a dev F1 in [0, 1]."""
    losses = draw(st.lists(st.floats(0, 1e308), min_size=1, max_size=6))
    return [EpochStats(epoch, loss, draw(st.floats(0, 1)))
            for epoch, loss in enumerate(losses, start=1)]


@settings(max_examples=100, deadline=None)
@given(history=histories())
@example(history=trained_history())
@example(history=[EpochStats(1, 5e-324, 0.0), EpochStats(2, 1e308, 1.0)])
def test_history_file_has_one_line_per_epoch_that_reads_back_equal(workdir, history):
    path = workdir / "model.json.history"
    write_history(history, path)

    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    rows = [line.split("\t") for line in text.splitlines()]
    assert rows == [[str(h.epoch), repr(h.mean_loss), repr(h.dev_f1)] for h in history]
    assert [EpochStats(int(e), float(loss), float(f1)) for e, loss, f1 in rows] == history


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread-count getter, with the count set to 2 for the
    test and put back afterwards."""
    calls = training._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy's OpenBLAS thread-count functions were not found")
    get, set_ = calls
    saved = get()
    set_(2)
    yield get
    set_(saved)


def test_training_and_dev_evaluation_run_on_one_blas_thread(blas_threads):
    params, train_set = small_problem()
    seen = []

    def dev(current):
        seen.append(blas_threads())
        return 0.5

    train(TrainConfig(max_epochs=2, patience=2), train_set, params, HP, dev)
    assert seen == [1, 1]
    assert blas_threads() == 2


def test_the_blas_thread_count_is_restored_after_a_numeric_error(blas_threads, monkeypatch):
    monkeypatch.setattr(training, "forward", nan_probability_forward)
    params, _ = small_problem()
    inst = LabeledInstance(7, (2, 3, 4), None, 1)
    with pytest.raises(NumericError, match=r"epoch 1, instance 7: .*'gradients'"):
        train(TrainConfig(max_epochs=1), [inst], params, HP, ScriptedDev([0.5]))
    assert blas_threads() == 2


def test_no_thread_count_functions_are_found_without_a_bundled_openblas(monkeypatch):
    monkeypatch.setattr(training.glob, "glob", lambda pattern: [])
    training._openblas_thread_calls.cache_clear()
    try:
        assert training._openblas_thread_calls() is None
    finally:
        training._openblas_thread_calls.cache_clear()


def test_one_blas_thread_does_nothing_without_the_thread_count_functions(
    blas_threads, monkeypatch
):
    monkeypatch.setattr(training, "_openblas_thread_calls", lambda: None)
    with training.one_blas_thread():
        assert blas_threads() == 2
    assert blas_threads() == 2
