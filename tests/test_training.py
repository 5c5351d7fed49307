"""Early stopping in ``train``: which epoch's parameters come back, and when it
stops; the ``.history`` file that records each epoch; and the one-BLAS-thread
scope that ``train`` runs its epochs in."""

import math

import numpy as np
import pytest

import sdprel.training as training
from sdprel.network import BLOCKS, Hyperparams, NumericError, init_network_params
from sdprel.training import EpochStats, LabeledInstance, TrainConfig, train, write_history

HP = Hyperparams(d=3, w=3, n1=4, n2=3, K=3)


def small_problem():
    rng = np.random.default_rng(0)
    We = rng.uniform(-0.25, 0.25, size=(HP.d, 8))
    We[:, 0] = 0.0
    params = init_network_params(HP, We, seed=1)
    train_set = [
        LabeledInstance(i, tuple(int(j) for j in rng.integers(1, 8, size=4)), None,
                        np.eye(HP.K)[i % HP.K])
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


def test_without_dev_evaluator_returns_the_final_parameters():
    params, train_set = small_problem()
    before = params.copy()
    final, history = train(TrainConfig(max_epochs=3, patience=1), train_set, params, HP)
    assert len(history) == 3
    assert all(math.isnan(h.dev_f1) for h in history)
    assert final is params
    assert not np.array_equal(final.W1, before.W1)


def test_empty_training_set_is_rejected():
    params, _ = small_problem()
    with pytest.raises(training.ConfigError, match="empty training set"):
        train(TrainConfig(max_epochs=1), [], params, HP)


def test_history_file_has_one_line_per_epoch_that_reads_back_equal(tmp_path):
    params, train_set = small_problem()
    dev = ScriptedDev([0.25, 0.5, 1 / 3])
    _, history = train(TrainConfig(max_epochs=3, patience=3), train_set, params, HP, dev)
    path = tmp_path / "model.json.history"
    write_history(history, path)

    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    rows = [line.split("\t") for line in text.splitlines()]
    assert rows == [[str(h.epoch), repr(h.mean_loss), repr(h.dev_f1)] for h in history]
    assert [EpochStats(int(e), float(loss), float(f1)) for e, loss, f1 in rows] == history
    assert len(rows) == 3


def test_history_file_writes_nan_dev_f1_without_a_dev_set(tmp_path):
    params, train_set = small_problem()
    _, history = train(TrainConfig(max_epochs=2, patience=1), train_set, params, HP)
    path = tmp_path / "model.json.history"
    write_history(history, path)

    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    assert [(int(e), float(loss), f1) for e, loss, f1 in rows] == [
        (h.epoch, h.mean_loss, "nan") for h in history
    ]


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


def test_the_blas_thread_count_is_restored_after_a_numeric_error(blas_threads):
    params, _ = small_problem()
    target = np.zeros(HP.K)
    target[0] = np.nan
    inst = LabeledInstance(7, (2, 3, 4), None, target)
    with pytest.raises(NumericError, match=r"epoch 1, instance 7: .*'gradients'"):
        train(TrainConfig(max_epochs=1), [inst], params, HP)
    assert blas_threads() == 2


def test_one_blas_thread_does_nothing_without_the_thread_count_functions(
    blas_threads, monkeypatch
):
    monkeypatch.setattr(training, "_openblas_thread_calls", lambda: None)
    with training.one_blas_thread():
        assert blas_threads() == 2
    assert blas_threads() == 2
