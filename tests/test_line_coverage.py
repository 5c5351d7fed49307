"""Every executable line of the ``sdprel`` package runs in some test.

The gate runs the whole tier-1 suite (``tests`` and ``benchmark/tests``) in a
child interpreter that records, with ``sys.settrace``, the line events of
frames whose code lives in the ``sdprel`` package it imported.  It then
compares them with each module's executable lines, read from the compiled
code objects' ``co_lines()``.  A never-run line fails the gate unless
``ALLOWLIST`` names it; an allowlist entry that now runs, or whose line is
gone, fails it too, so the list cannot go stale.  Entries are keyed on the
file name and the stripped source text, not on line numbers, so edits
elsewhere in a module do not move them.

Only the standard library is used: no coverage package is needed.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "sdprel"
#: Set in the child's environment, so that the child does not run the gate again.
CHILD_MARKER = "SDPREL_LINE_COVERAGE_CHILD"

#: (file name within the package, stripped source text) -> why it never runs.
ALLOWLIST: dict[tuple[str, str], str] = {}

# Run as ``python -c _CHILD OUT ARGS...``: trace the sdprel package that the
# child's import path resolves, run pytest with ARGS, and write the executed
# lines, the imported package's directory and pytest's exit code to OUT.
_CHILD = """
import importlib.util, json, os, sys, threading
import pytest
from test_line_coverage import line_tracer

out, args = sys.argv[1], sys.argv[2:]
prefix = os.path.dirname(importlib.util.find_spec("sdprel").origin) + os.sep
executed = {}
tracer = line_tracer(prefix, executed)
threading.settrace(tracer)
sys.settrace(tracer)
try:
    status = pytest.main(args)
finally:
    sys.settrace(None)
    threading.settrace(None)
with open(out, "w", encoding="utf-8") as f:
    json.dump({
        "traced": prefix,
        "package": os.path.dirname(sys.modules["sdprel"].__file__),
        "status": int(status),
        "executed": {name: sorted(lines) for name, lines in executed.items()},
    }, f)
"""


def line_tracer(prefix: str, executed: dict[str, set[int]]):
    """A ``sys.settrace`` function that adds to ``executed[file]`` the line
    events of every frame whose file name starts with prefix."""

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = executed.setdefault(filename, set())

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    return trace_calls


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from the file."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def coverage_problems(
    package_dir: Path,
    executed: dict[str, set[int]],
    allowlist: dict[tuple[str, str], str],
) -> list[str]:
    """Every never-run line the allowlist does not name, and every stale
    allowlist entry, as ``file:line: text`` messages; empty when clean.

    ``executed`` maps a module's path, as its code objects name it, to the
    lines that ran.
    """
    problems = []
    never_run: set[tuple[str, str]] = set()
    present: set[tuple[str, str]] = set()
    for path in sorted(package_dir.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        present.update((path.name, line.strip()) for line in source)
        ran = executed.get(str(path), set())
        for lineno in sorted(executable_lines(path) - ran):
            key = (path.name, source[lineno - 1].strip())
            never_run.add(key)
            if key not in allowlist:
                problems.append(f"{path.name}:{lineno}: never runs: {key[1]}")
    for key in allowlist:
        if key not in present:
            problems.append(f"{key[0]}: allowlisted line no longer exists: {key[1]}")
        elif key not in never_run:
            problems.append(f"{key[0]}: allowlisted line now runs: {key[1]}")
    return problems


def _trace(module_path: Path, call) -> dict[str, set[int]]:
    """Import the module at module_path and call ``call(module)`` while
    tracing its lines, then restore the tracer in place before."""
    executed: dict[str, set[int]] = {}
    spec = importlib.util.spec_from_file_location(module_path.stem, module_path)
    module = importlib.util.module_from_spec(spec)
    previous = sys.gettrace()
    sys.settrace(line_tracer(str(module_path), executed))
    try:
        spec.loader.exec_module(module)
        call(module)
    finally:
        sys.settrace(previous)
    return executed


THROWAWAY = '''\
def sign(x):
    if x < 0:
        return "negative"
    return "non-negative"
'''


def test_checker_reports_a_never_run_line_and_nothing_once_it_runs(tmp_path):
    module = tmp_path / "throwaway.py"
    module.write_text(THROWAWAY, encoding="utf-8")
    executed = _trace(module, lambda m: m.sign(1))
    assert coverage_problems(tmp_path, executed, {}) == [
        'throwaway.py:3: never runs: return "negative"'
    ]
    executed = _trace(module, lambda m: (m.sign(1), m.sign(-1)))
    assert coverage_problems(tmp_path, executed, {}) == []


def test_checker_accepts_an_allowlisted_line_and_reports_stale_entries(tmp_path):
    module = tmp_path / "throwaway.py"
    module.write_text(THROWAWAY, encoding="utf-8")
    executed = _trace(module, lambda m: m.sign(1))
    allowed = {("throwaway.py", 'return "negative"'): "reason"}
    assert coverage_problems(tmp_path, executed, allowed) == []

    everything = _trace(module, lambda m: (m.sign(1), m.sign(-1)))
    assert coverage_problems(tmp_path, everything, allowed) == [
        'throwaway.py: allowlisted line now runs: return "negative"'
    ]
    gone = {("throwaway.py", "return 0"): "reason"}
    assert coverage_problems(tmp_path, executed, gone) == [
        'throwaway.py:3: never runs: return "negative"',
        "throwaway.py: allowlisted line no longer exists: return 0",
    ]


def test_allowlist_entries_carry_a_reason():
    assert all(reason.strip() for reason in ALLOWLIST.values())


@pytest.mark.skipif(bool(os.environ.get(CHILD_MARKER)), reason="inside the traced run")
def test_every_package_line_runs_in_the_tier1_suite(tmp_path):
    out = tmp_path / "lines.json"
    env = dict(os.environ)
    env[CHILD_MARKER] = "1"
    paths = [str(PACKAGE_DIR.parent), str(ROOT / "tests"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(out), "tests", "benchmark/tests",
         "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=1200,
    )
    assert proc.returncode == 0 and out.exists(), proc.stdout[-4000:] + proc.stderr[-4000:]
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["status"] == 0, proc.stdout[-4000:]
    # A non-editable install would put another copy first and leave src/ untraced.
    assert Path(result["package"]) == PACKAGE_DIR
    assert Path(result["traced"]) == PACKAGE_DIR
    executed = {name: set(lines) for name, lines in result["executed"].items()}
    problems = coverage_problems(PACKAGE_DIR, executed, ALLOWLIST)
    assert not problems, "\n".join(problems)
