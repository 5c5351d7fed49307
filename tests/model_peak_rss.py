"""How far saving or loading a model at the paper's network sizes raises the
peak resident size, each measured in a fresh interpreter.

Run ``python tests/model_peak_rss.py {save,load} VOCAB_SIZE PATH``.  It
builds a model at d=50, w=3, n1=200, n2=100 with a vocabulary of VOCAB_SIZE
entries and saves it to PATH; for ``load``, another fresh interpreter then
loads it back.  It prints the rise of the measured step's peak and the
file's size, and exits 1 if the rise reaches the file size: neither a save
nor a load may hold the whole document.  Linux only, as it reads
``/proc/self/status``.

The child reads ``VmHWM``, its own address space's peak, and not
``ru_maxrss``: Linux carries the high-water mark over fork and exec, so a
child of a large process would start at the parent's peak.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import sdprel

_CHILD = """
import sys
import numpy as np
from sdprel.corpus import DEFAULT_LABELS
from sdprel.deppath import PathMode
from sdprel.embeddings import Vocab
from sdprel.model import Regime, TrainedModel, load_model, save_model
from sdprel.network import Hyperparams, init_network_params

action, vocab_size, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
if action == "save":
    hp = Hyperparams(d=50, w=3, n1=200, n2=100, K=10)
    items = ("<pad>", "<unk>", *(f"w{i}" for i in range(vocab_size - 2)))
    We = np.random.default_rng(0).uniform(-0.25, 0.25, size=(hp.d, len(items)))
    model = TrainedModel(hp, Vocab(items, frozenset(items[2:])), DEFAULT_LABELS,
                         PathMode.LABELED, Regime.SIGHTED_NS, init_network_params(hp, We, 1))
def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
before = peak_kib()
if action == "save":
    save_model(model, path)
else:
    load_model(path)
print((peak_kib() - before) * 1024)
"""


def peak_rise(action: str, vocab_size: int, path: str | Path) -> int:
    """The rise, in bytes, of the peak resident size of a fresh interpreter
    that saves a model of ``vocab_size`` entries to ``path`` (``save``) or
    loads the model there (``load``)."""
    src = str(Path(sdprel.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _CHILD, action, str(vocab_size), str(path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=600,
    )
    if run.returncode:
        raise RuntimeError(run.stderr)
    return int(run.stdout)


def main(argv: list[str]) -> int:
    action, vocab_size, path = argv[0], int(argv[1]), argv[2]
    if action == "load":
        peak_rise("save", vocab_size, path)
    rise = peak_rise(action, vocab_size, path)
    size = os.path.getsize(path)
    print(f"{action}: the peak resident size rose {rise} B for a {size} B model file "
          f"(vocabulary {vocab_size})")
    return 0 if rise < size else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
