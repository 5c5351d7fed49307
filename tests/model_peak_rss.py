"""How far saving, loading or training a model at the paper's network sizes
raises the peak resident size, each measured in a fresh interpreter.

Run ``python tests/model_peak_rss.py {save,load} VOCAB_SIZE PATH``.  It
builds a model at d=50, w=3, n1=200, n2=100 with a vocabulary of VOCAB_SIZE
entries and saves it to PATH; for ``load``, another fresh interpreter then
loads it back.  It prints the rise of the measured step's peak and the
file's size, and exits 1 if the rise reaches the file size: neither a save
nor a load may hold the whole document.

Run ``python tests/model_peak_rss.py train VOCAB_SIZE`` (no path) to build
the same parameters and run ``training.train`` on 50 random 19-id examples
for 4 epochs whose dev F1 rises every epoch, so each epoch keeps a new
best snapshot.  It prints the rise of ``train``'s peak in parameter copies
(the summed bytes of the blocks), and exits 1 if the rise reaches
``TRAIN_COPIES``: training may hold the AdaGrad sums and one best-epoch
snapshot beside the live parameters, not two snapshots.

Run ``python tests/model_peak_rss.py corpus N`` to write N random training
sentences of 20-30 tokens and N/10 dev sentences (``synth.long_corpus``)
to a temporary directory, then, in a fresh interpreter, read and align them
and run one epoch of ``training.run_training`` at the same sizes.  It prints
the rise of the peak in MB, and exits 1 if it reaches ``CORPUS_MB``, a
bound set for N = 8000.

Linux only, as it reads ``/proc/self/status``.  The child reads ``VmHWM``,
its own address space's peak, and not ``ru_maxrss``: Linux carries the
high-water mark over fork and exec, so a child of a large process would
start at the parent's peak.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import sdprel
from sdprel.corpus import DEFAULT_LABELS
from sdprel.network import Hyperparams, block_shapes
from synth import long_corpus, write_corpus

#: The bound on ``train``'s peak rise, in parameter copies.
TRAIN_COPIES = 2.5
#: The bound on the peak rise of ``corpus 8000``, in MB.  With each aligned
#: sentence's tokens held twice and the encoded paths kept through SGD the
#: rise was 55.4-55.5 MB; with one token tuple and the paths dropped once
#: indexed, 50.2 MB (Python 3.11, numpy 2.4).
CORPUS_MB = 53.0

_CHILD = """
import itertools
import sys
import numpy as np
from sdprel.corpus import DEFAULT_LABELS, align_corpus, parse_semeval_file, read_conll
from sdprel.deppath import PathMode
from sdprel.embeddings import Vocab
from sdprel.model import Regime, TrainedModel, load_model, save_model
from sdprel.network import Hyperparams, init_network_params
from sdprel.training import LabeledInstance, TrainConfig, run_training, train

action, vocab_size = sys.argv[1], int(sys.argv[2])
path = sys.argv[3] if action != "train" else None
if action in ("save", "train"):
    hp = Hyperparams(d=50, w=3, n1=200, n2=100, K=10)
    items = ("<pad>", "<unk>", *(f"w{i}" for i in range(vocab_size - 2)))
    We = np.random.default_rng(0).uniform(-0.25, 0.25, size=(hp.d, len(items)))
    params = init_network_params(hp, We, 1)
if action == "save":
    model = TrainedModel(hp, Vocab(items, frozenset(items[2:])), DEFAULT_LABELS,
                         PathMode.LABELED, Regime.SIGHTED_NS, params)
if action == "train":
    rng = np.random.default_rng(2)
    train_set = [
        LabeledInstance(i, tuple(int(j) for j in rng.integers(1, vocab_size, size=19)),
                        None, i % hp.K)
        for i in range(50)
    ]
    rising = itertools.count(1)
    dev = lambda current: next(rising) / 10
def read(stem):
    return align_corpus(parse_semeval_file(f"{path}/{stem}.sem.txt"),
                        read_conll(f"{path}/{stem}.conll"))
def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
before = peak_kib()
if action == "save":
    save_model(model, path)
elif action == "load":
    load_model(path)
elif action == "train":
    train(TrainConfig(max_epochs=4, patience=4), train_set, params, hp, dev)
else:
    run_training(TrainConfig(max_epochs=1, patience=1), read("train"), read("dev"),
                 DEFAULT_LABELS)
print((peak_kib() - before) * 1024)
"""


def peak_rise(action: str, vocab_size: int, path: str | Path | None = None) -> int:
    """The rise, in bytes, of the peak resident size of a fresh interpreter
    that saves a model of ``vocab_size`` entries to ``path`` (``save``),
    loads the model there (``load``), trains such a model (``train``, with
    no path) or reads, aligns and trains on the corpus in the directory
    ``path`` (``corpus``)."""
    src = str(Path(sdprel.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _CHILD, action, str(vocab_size), *([str(path)] if path else [])],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=600,
    )
    if run.returncode:
        raise RuntimeError(run.stderr)
    return int(run.stdout)


def parameter_bytes(vocab_size: int) -> int:
    """The summed bytes of the child's float64 parameter blocks."""
    shapes = block_shapes(Hyperparams(d=50, w=3, n1=200, n2=100, K=10), vocab_size)
    return 8 * sum(math.prod(shape) for shape in shapes.values())


def corpus_rise(n: int) -> int:
    """The rise, in bytes, of the peak resident size of a fresh interpreter
    that reads, aligns and trains one epoch on n long training sentences and
    n/10 dev sentences."""
    with tempfile.TemporaryDirectory() as directory:
        for stem, size, seed, start in (("train", n, 1, 1), ("dev", n // 10, 2, n + 1)):
            write_corpus(Path(directory), stem,
                         *long_corpus(size, seed, labels=DEFAULT_LABELS, start_id=start))
        return peak_rise("corpus", n, directory)


def main(argv: list[str]) -> int:
    action = argv[0]
    if action == "corpus":
        n = int(argv[1])
        rise = corpus_rise(n) / 1e6
        print(f"corpus: the peak resident size rose {rise:.1f} MB reading, aligning and "
              f"training one epoch on {n} sentences")
        return 0 if rise < CORPUS_MB else 1
    vocab_size = int(argv[1])
    if action == "train":
        copies = peak_rise(action, vocab_size) / parameter_bytes(vocab_size)
        print(f"train: the peak resident size rose {copies:.2f} parameter copies of "
              f"{parameter_bytes(vocab_size)} B (vocabulary {vocab_size})")
        return 0 if copies < TRAIN_COPIES else 1
    path = argv[2]
    if action == "load":
        peak_rise("save", vocab_size, path)
    rise = peak_rise(action, vocab_size, path)
    size = os.path.getsize(path)
    print(f"{action}: the peak resident size rose {rise} B for a {size} B model file "
          f"(vocabulary {vocab_size})")
    return 0 if rise < size else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
