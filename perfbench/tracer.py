"""Layer tracing from outside the program.

The program carries no instrumentation.  While a Tracer is installed, the
public functions named in LAYER_SPANS are replaced, in every loaded
subgeneral module that refers to them, by wrappers that open a span around
each call; uninstalling puts the originals back.  Spans are aggregated in
memory as they close, per span name:

    calls   number of calls
    s       busy time: wall time of the outermost span of that name
    self_s  each span's duration minus the part covered by its child spans

Counters that observers read from arguments and results (points accepted,
violators scanned, report bytes, ...) and the exceptions a span raised sit
beside the span totals.

Only public callables are wrapped.  The process-pool worker function of the
experiment runner (experiments._defect_batch) is private, crosses the pool
boundary by pickled reference and must stay the original object, so the
public-only rule keeps the tracer out of the pool's way.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}  # name -> [calls, busy, self]
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # open spans: [name, start, child time]
        self._depth: Counter = Counter()  # open spans per name
        self._patches: list[tuple] = []  # (owner, attr, original)

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._depth[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[2] += dur - child
        self._depth[name] -= 1
        if not self._depth[name]:
            st[1] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def busy_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name: str, observe=None):
        """A wrapper of fn that records a span.

        observe(counters, args, result) runs after a normal return; an
        exception is counted as "<name>.raised.<ExceptionType>" and re-raised.
        """
        enter, exit_ = self.enter, self.exit
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                exit_()
                counters["%s.raised.%s" % (name, type(exc).__name__)] += 1
                raise
            exit_()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def install(self, package: str, spans) -> None:
        """Wrap each (module, attr, span name, observer) of spans.

        attr is "func" for a module function, which is replaced wherever a
        loaded module of the package binds the same object, or
        "Class.method" for a method, which is replaced on the class.
        """
        for _, attr, _, _ in spans:
            if any(part.startswith("_") for part in attr.split(".")):
                raise ValueError("only public callables are traced: %s" % attr)
        for mod_name, _, _, _ in spans:
            importlib.import_module("%s.%s" % (package, mod_name))
        modules = [
            m
            for k, m in list(sys.modules.items())
            if m is not None and (k == package or k.startswith(package + "."))
        ]
        for mod_name, attr, name, observe in spans:
            module = sys.modules["%s.%s" % (package, mod_name)]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self.wrap(original, name, observe))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, observe)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# what is traced, and the counters read at each boundary


def _count_sample(counters, args, result):
    counters["experiments.sample.points"] += len(result.points)
    counters["experiments.sample.attempts"] += result.attempts


def _count_scan(counters, args, result):
    counters["experiments.scan.violators"] += len(args[0])
    counters["experiments.scan.candidates"] += len(result)


def _count_support_rows(counters, args, result):
    counters["weil.support_rows"] += sum(1 for r in result if r["value"] is None)


def _count_json_bytes(counters, args, result):
    counters["jsonio.report.bytes"] += len(result.encode("utf-8"))


def _count_csv_bytes(counters, args, result):
    # the CLI writes CSV into a fresh StringIO, so its position is the size
    counters["jsonio.report.bytes"] += args[1].tell()


LAYER_SPANS = (
    ("cli", "main", "cli", None),
    ("experiments", "run_main_experiment", "experiments.run", None),
    ("experiments", "sample_points", "experiments.sample", _count_sample),
    ("experiments", "exceptional_scan", "experiments.scan", _count_scan),
    ("experiments", "chain_check", "experiments.chain_check", None),
    ("experiments", "DefectReport.to_json", "jsonio.report", _count_json_bytes),
    ("experiments", "DefectReport.write_csv", "jsonio.report", _count_csv_bytes),
    ("quang", "quang_combine", "quang.combine", None),
    ("quang", "reorder_by_local_norm", "quang.reorder", None),
    ("position", "check_subgeneral", "position.check", None),
    ("linalg", "rank_rows", "linalg.rank_rows", None),
    ("linalg", "nullspace", "linalg.nullspace", None),
    ("linalg", "intersect_rowspaces", "linalg.intersect_rowspaces", None),
    ("places", "valuation", "places.valuation", None),
    ("places", "factor_int", "places.factor_int", None),
    ("weil", "local_weil", "weil.local_weil", None),
    ("weil", "weil_batch", "weil.batch", _count_support_rows),
    ("projective", "normalize_coords", "projective.normalize", None),
    ("seshadri", "seshadri_constant", "seshadri", None),
)
