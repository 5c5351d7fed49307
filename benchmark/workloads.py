"""The benchmark's workloads: corpus shape, split sizes and epoch count.

All three run at the paper's sizes (d=50, w=3, n1=200, n2=100), single
process, in the sighted-ns regime with reversed-path negatives.  Training
throughput is timed on full-size trainings, so that it sees the workload's
vocab; the first of them gives the model that macro-F1 is measured on, and
its dev/test set is large enough that macro-F1 moves little from seed to
seed.  Why each workload exists is recorded in ``BENCHMARK.json`` and
``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from corpora import LONG, SHORT, Shape

#: The seed of the model that predict-long classifies with, whatever the
#: workload seed: the model stays fixed and only the test corpus varies.
FIXTURE_SEED = 1506

PAPER_SIZES = {"d": 50, "w": 3, "n1": 200, "n2": 100}


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    n_train: int
    n_dev: int
    epochs: int
    n_test: int = 0  # > 0: classify a test corpus with a model trained at FIXTURE_SEED
    sizes: dict = field(default_factory=lambda: dict(PAPER_SIZES))

    @property
    def predicts(self) -> bool:
        return self.n_test > 0

    def config_values(self) -> dict[str, str]:
        """The ``key = value`` configuration ``sdprel train`` would read.

        patience equals max_epochs, so early stopping never shortens a run.
        """
        values = {
            "regime": "sighted-ns", "negatives": "reversed", "mode": "labeled",
            "max_epochs": self.epochs, "patience": self.epochs, "seed": 0,
            **self.sizes,
        }
        return {k: str(v) for k, v in values.items()}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-short", SHORT, n_train=500, n_dev=600, epochs=4),
        Workload("train-long", LONG, n_train=500, n_dev=600, epochs=4),
        Workload("predict-long", LONG, n_train=500, n_dev=300, epochs=4, n_test=1500),
    )
}
