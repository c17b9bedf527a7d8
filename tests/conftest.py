# Marks tests/ as the rootdir for helper imports (oracles, gen) without
# turning the directory into a package, prints the acceptance summary, and
# provides the count_calls and counted_log fixtures.

import math
import re
import sys

import pytest

_CRITERION = re.compile(r"test_criterion_(\d+)")
_results = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    if report.failed:
        _results[num] = False
    elif report.when == "call" and report.passed:
        _results.setdefault(num, True)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_results):
        verdict = "PASS" if _results[num] else "FAIL"
        terminalreporter.write_line("criterion %d: %s" % (num, verdict))


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) replaces every binding of fn in the subgeneral
    package, wherever it was imported, by a wrapper that appends each call's
    positional arguments to the list it returns."""

    def install(original):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if mod is not None and (
                name == "subgeneral" or name.startswith("subgeneral.")
            ):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counting)
        return calls

    return install


class _CountedMath:
    """The math module, but for a log that counts its calls and raises
    AssertionError after limit of them."""

    def __init__(self, limit):
        self.calls = 0
        self.limit = limit

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.calls += 1
        if self.calls > self.limit:
            raise AssertionError("more than %d math.log calls" % self.limit)
        return math.log(x)


@pytest.fixture
def counted_log(monkeypatch):
    """Replaces the math module that subgeneral.sampling reads by one whose
    log raises after 10,000 calls, so a height-window search that walks
    integers fails at once instead of running for hours; returns it, and
    its calls attribute counts the calls (a test may reset it)."""
    import subgeneral.sampling

    counted = _CountedMath(10_000)
    monkeypatch.setattr(subgeneral.sampling, "math", counted)
    return counted
