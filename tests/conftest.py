# Marks tests/ as the rootdir for helper imports (oracles, gen) without
# turning the directory into a package, prints the acceptance summary, and
# provides the count_calls fixture.

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
