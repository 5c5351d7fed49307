"""The sdprel benchmark: seeded synthetic corpora, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmark/run.py --workload train-short --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --seed 1      # every workload in turn

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs one full-size unit of the workload traced and reports the per-layer
metrics.  Every metric is printed as ``name value unit``; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 on success; 1 when the ``sdprel`` sources are not in ``src/``
or a correctness gate fails, in which case no numbers are printed.
Generated corpora live under ``.bench_work/`` and are removed after the run;
span files of traced runs are kept there.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import FIXTURE_SEED, WORKLOADS, Workload  # noqa: E402

WORK_DIR = ROOT / ".bench_work"


def import_sdprel() -> None:
    """Import ``sdprel`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sdprel" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no sdprel sources under {src}")
    sys.path.insert(0, str(src))
    import sdprel

    if Path(sdprel.__file__).resolve().parent != (src / "sdprel").resolve():
        raise SystemExit(f"benchmark: imported sdprel from {sdprel.__file__}, not {src}")


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _blas_threads() -> int | str:
    import numpy

    site = Path(numpy.__file__).resolve().parent.parent
    for lib in glob.glob(str(site / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _blas_name() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    return "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sdprel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(wl: Workload, seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_name(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "hyperparams": wl.config_values(),
        "seeds": {"workload": seed, "fixture": FIXTURE_SEED if wl.predicts else None},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_one(wl: Workload, seed: int, seconds: float, trace: bool) -> int:
    import_sdprel()
    import measure

    WORK_DIR.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{wl.name}-{seed}-", dir=WORK_DIR))
    try:
        if trace:
            run = measure.trace_predict if wl.predicts else measure.trace_train
            result = run(wl, seed, directory)
        else:
            result = measure.run_timed(wl, seed, seconds, directory)
    except measure.GateError as e:
        print(f"benchmark: correctness gate failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    print(f"workload {wl.name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("env " + json.dumps(environment(wl, seed), sort_keys=True))
    print("notes " + json.dumps(result.notes, sort_keys=True))
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value!r} {unit}")
    if not trace:
        print(f"failed_share {result.failed / result.attempted!r} 1")
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    outputs = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(int(trace))],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"benchmark: workload {name} failed", file=sys.stderr)
            return 1
        outputs[name] = proc.stdout.splitlines()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, lines in outputs.items():
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the timed part lasts (a traced run does one unit)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
