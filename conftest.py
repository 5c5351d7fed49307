"""Trace the lines of ``src/`` through a whole-suite pytest session.

``tests/test_line_coverage.py::test_every_package_line_runs_in_the_tier1_suite``
(the gate) reads the lines recorded here, through the ``package_lines_run``
fixture, and checks that every ``sdprel`` line ran.  This file must be the
root conftest: pytest collects ``benchmark/tests`` before ``tests``, and that
collection already imports ``sdprel``, so a plugin loaded any later would
miss the package's import-time lines.
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

pytest_plugins = ["pytester"]  # the gate's own tests run small pytest sessions

GATE = "test_every_package_line_runs_in_the_tier1_suite"

#: The start of each reason the gate skips with; CI fails a run whose skip
#: summary holds it, so a reworded reason cannot turn that check off.
GATE_SKIPPED = "line-coverage gate skipped: "


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


def runs_whole_suite(config: pytest.Config) -> bool:
    """Whether the session was given no path, or exactly ``tests`` and
    ``benchmark/tests``: a node id or a single file runs untraced."""
    root = config.rootpath.resolve()
    given = {(config.invocation_params.dir / arg).resolve() for arg in config.args}
    return given in ({root}, {root / "tests", root / "benchmark" / "tests"})


class LineCoverage:
    """Traces ``src/`` from configure to unconfigure on a whole-suite run,
    counts deselected tests and runs the gate last."""

    def __init__(self, config: pytest.Config) -> None:
        self.traced = runs_whole_suite(config)
        self.executed: dict[str, set[int]] = {}
        self.deselected = 0
        if self.traced:
            prefix = str(config.rootpath / "src") + os.sep
            early = [name for name, module in sys.modules.items()
                     if (getattr(module, "__file__", None) or "").startswith(prefix)]
            assert not early, f"imported before line tracing began: {early}"
            self._previous = sys.gettrace(), threading.gettrace()
            tracer = line_tracer(prefix, self.executed)
            threading.settrace(tracer)
            sys.settrace(tracer)

    def pytest_deselected(self, items) -> None:
        self.deselected += len(items)

    def pytest_collection_finish(self, session: pytest.Session) -> None:
        # After every plugin's reordering (``--ff`` puts a failed gate first);
        # the sort is stable, so the other tests keep their order.
        session.items.sort(key=lambda item: item.name == GATE)

    def pytest_unconfigure(self) -> None:
        # Restore, not clear: a session run inside a test (the gate's own
        # tests) must leave the enclosing session traced.
        if self.traced:
            sys.settrace(self._previous[0])
            threading.settrace(self._previous[1])

    @pytest.fixture
    def package_lines_run(self) -> dict[str, set[int]]:
        """The lines of ``src/`` that ran, by file; skips unless every test
        of the whole suite was run, traced."""
        if not self.traced:
            pytest.skip(f"{GATE_SKIPPED}lines are traced only when the whole suite runs: "
                        "no path arguments, or `tests benchmark/tests`")
        if self.deselected:
            pytest.skip(f"{GATE_SKIPPED}{self.deselected} tests were deselected, "
                        "so not every test ran")
        return self.executed


def pytest_configure(config: pytest.Config) -> None:
    config.pluginmanager.register(LineCoverage(config), "sdprel-line-coverage")
