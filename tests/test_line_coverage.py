"""Every executable line of the ``sdprel`` package runs in some test.

The root ``conftest.py`` traces the tier-1 session itself.  When pytest is
given no path, or exactly ``tests`` and ``benchmark/tests``, it installs a
``sys.settrace`` (and ``threading.settrace``) line tracer in
``pytest_configure`` that records the line events of frames whose code lives
under ``src/``, and it moves the gate below to the end of the session.  The
tracer has to start in the root conftest: pytest collects ``benchmark/tests``
first, and that collection imports ``sdprel``, so a plugin loaded any later
would miss the package's import-time lines; the conftest asserts that no
module under ``src/`` is imported yet.

The gate compares the recorded lines with each module's executable lines,
read from the compiled code objects' ``co_lines()``.  A never-run line fails
the gate unless ``ALLOWLIST`` names it; an allowlist entry that now runs, or
whose line is gone, fails it too, so the list cannot go stale.  Entries are
keyed on the file name and the stripped source text, not on line numbers, so
edits elsewhere in a module do not move them.

The gate checks only a run of the whole suite.  A session given a node id or
a single file is not traced, and the gate skips with the reason; so it does
when ``-k``, ``-m``, ``--deselect`` or ``--lf`` deselected any test.

Only the standard library is used: no coverage package is needed.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import CodeType

import pytest

from conftest import GATE_SKIPPED

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "sdprel"

#: (file name within the package, stripped source text) -> why it never runs.
ALLOWLIST: dict[tuple[str, str], str] = {}


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


THROWAWAY = '''\
def sign(x):
    if x < 0:
        return "negative"
    return "non-negative"
'''


def test_checker_reports_a_never_run_line_and_nothing_once_it_runs(tmp_path):
    module = tmp_path / "throwaway.py"
    module.write_text(THROWAWAY, encoding="utf-8")
    assert coverage_problems(tmp_path, {str(module): {1, 2, 4}}, {}) == [
        'throwaway.py:3: never runs: return "negative"'
    ]
    assert coverage_problems(tmp_path, {str(module): {1, 2, 3, 4}}, {}) == []


def test_checker_accepts_an_allowlisted_line_and_reports_stale_entries(tmp_path):
    module = tmp_path / "throwaway.py"
    module.write_text(THROWAWAY, encoding="utf-8")
    executed = {str(module): {1, 2, 4}}
    allowed = {("throwaway.py", 'return "negative"'): "reason"}
    assert coverage_problems(tmp_path, executed, allowed) == []

    everything = {str(module): {1, 2, 3, 4}}
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


WHOLE_SUITE_ONLY = "lines are traced only when the whole suite runs*"


class GateFirst:
    """Puts the gate first after every other reordering, as ``--ff`` does
    once the gate has failed."""

    @pytest.hookimpl(wrapper=True, tryfirst=True)
    def pytest_collection_modifyitems(self, items):
        result = yield
        items.sort(key=lambda item: item.name != "test_every_package_line_runs_in_the_tier1_suite")
        return result


@pytest.mark.parametrize("args, passed, skip_reason", [
    ((), 3, None),
    (("tests", "benchmark/tests"), 3, None),
    (("tests/test_gate.py::test_every_package_line_runs_in_the_tier1_suite",),
     0, WHOLE_SUITE_ONLY),
    (("tests/test_gate.py",), 0, WHOLE_SUITE_ONLY),
    (("-k", "every_package_line"), 0, "2 tests were deselected*"),
    (("--deselect", "tests/test_sign.py::test_sign"), 1, "1 tests were deselected*"),
])
def test_the_plugin_checks_only_a_whole_suite_run(pytester, args, passed, skip_reason):
    """A small project under the root conftest: ``src/throwaway.py`` is
    imported while ``benchmark/tests`` is collected, and ``test_sign`` calls
    it, so the gate sees every line only when the import was traced and the
    gate was moved behind ``test_sign`` after ``GateFirst`` put it first.
    Each skip reason starts with ``GATE_SKIPPED``, which CI looks for."""
    pytester.makeini("[pytest]\npythonpath = src\n")
    pytester.makeconftest((ROOT / "conftest.py").read_text(encoding="utf-8"))
    for directory in ("src", "tests", "benchmark", "benchmark/tests"):
        pytester.mkdir(directory)
    module = pytester.path / "src" / "throwaway.py"
    module.write_text(THROWAWAY, encoding="utf-8")
    files = {
        "benchmark/tests/test_imports.py": "import throwaway\n\ndef test_imports():\n    pass\n",
        "tests/test_gate.py": (
            "def test_every_package_line_runs_in_the_tier1_suite(package_lines_run):\n"
            f"    assert package_lines_run == {{{str(module)!r}: {{1, 2, 3, 4}}}}\n"
        ),
        "tests/test_sign.py": (
            "import throwaway\n\ndef test_sign():\n"
            "    assert throwaway.sign(-1) != throwaway.sign(1)\n"
        ),
    }
    for name, text in files.items():
        (pytester.path / name).write_text(text, encoding="utf-8")

    result = pytester.runpytest(*args, "-rs", "-p", "no:cacheprovider",
                                "-p", "no:hypothesispytest", plugins=[GateFirst()])
    result.assert_outcomes(passed=passed, skipped=int(skip_reason is not None))
    if skip_reason is not None:
        result.stdout.fnmatch_lines([f"SKIPPED*: {GATE_SKIPPED}{skip_reason}"])


def test_every_package_line_runs_in_the_tier1_suite(package_lines_run):
    # A non-editable install would put another copy first and leave src/ untraced.
    assert Path(sys.modules["sdprel"].__file__).parent == PACKAGE_DIR
    problems = coverage_problems(PACKAGE_DIR, package_lines_run, ALLOWLIST)
    assert not problems, "\n".join(problems)
