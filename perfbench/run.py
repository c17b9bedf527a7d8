"""Benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from src/.
Each workload runs in one process (surface_sampled adds the program's own
two-worker pool).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.

--trace 0 measures the end-to-end metrics with tracing off: passes repeat
until their timed operations add up to --seconds.  Timings are reported in
units of a reference computation timed between passes (calibrate.py), with
the wall-clock figures printed beside them.  setup_s is the median of
several fresh processes, spread over the run, that each import the package
and build the first pass's inputs.

--trace 1 reports the per-layer metrics: a fixed number of traced passes,
alternating with as many untraced ones, all on fresh inputs, so every count
repeats exactly for a given seed; trace.overhead_s is the traced time minus
the untraced time of the same amount of work.

Both modes rerun the first pass after the timed passes (under a tracer when
--trace 1) and require byte-identical reports; the sha256 is printed.
Exit status is 0 when every correctness gate passed, 1 when one failed, and
2 when the program cannot be found, the arguments are wrong, or under
--workload all a workload gives no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
RSS_PASSES = 20  # peak RSS is read after this many passes, a fixed amount of work
PROBE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 600

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402
from perfbench.calibrate import reference_s  # noqa: E402
from perfbench.stats import median, tail  # noqa: E402
from perfbench.tracer import LAYER_SPANS, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Recorder  # noqa: E402


class CannotRun(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def _import_program():
    """Import subgeneral (and its CLI) from this checkout's src/."""
    if not (SRC / "subgeneral" / "__init__.py").is_file():
        raise CannotRun("no program source at %s" % (SRC / "subgeneral"))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sg = importlib.import_module("subgeneral")
    importlib.import_module("subgeneral.cli")
    if Path(sg.__file__).resolve().parent != (SRC / "subgeneral").resolve():
        raise CannotRun("subgeneral was imported from %s, not %s" % (sg.__file__, SRC))
    return sg


def _setup_probe(name: str, seed: int) -> int:
    t0 = time.perf_counter()
    sg = _import_program()
    WORKLOADS[name](sg, seed, None).next_inputs()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def _measure_setup(name: str, seed: int) -> float:
    """One setup_s sample, from a fresh process (imports are process-wide)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError("setup probe failed: %s" % proc.stderr.strip())
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest finished
    child: surface_sampled's pool workers, which are forked, so pages they
    share with this process count twice.  Read before any setup probe runs,
    as a probe is a child too."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


class _Runner:
    """Runs passes of one workload, gates them and keeps the first report."""

    def __init__(self, wl):
        self.wl = wl
        self.rec = Recorder()  # operations of the passes that set the metrics
        self.first_inputs = wl.next_inputs()
        self.first_report = None

    def run(self, inp, rec, gate=True):
        """One pass into rec; returns its output, or None when it raised."""
        rec.refs.append(reference_s())
        try:
            out = self.wl.run(inp, rec)
        except Exception:
            rec.attempted += 1
            self._fail(rec, "unexpected exception", traceback.format_exc())
            return None
        if inp is self.first_inputs:
            self.first_report = self.wl.report_bytes(out)
        if gate:
            self.gate(inp, out, rec)
        return out

    def gate(self, inp, out, rec):
        try:
            errors = self.wl.gate(inp, out)
        except Exception:
            errors = ["gate raised: " + traceback.format_exc()]
        for e in errors:
            self._fail(rec, "correctness gate", e)

    def _fail(self, rec, kind, detail):
        rec.failed += 1
        print("%s %s: %s" % (self.wl.name, kind, detail.strip()), file=sys.stderr)

    def rerun_first(self, traced: bool) -> str:
        """Rerun pass 0 and compare reports byte for byte; returns the sha256."""
        self.rec.attempted += 1
        if self.first_report is None:
            self._fail(self.rec, "determinism", "pass 0 produced no report")
            return "none"
        tracer = Tracer()
        if traced:
            tracer.install("subgeneral", LAYER_SPANS)
        try:
            again = self.wl.report_bytes(self.wl.run(self.first_inputs, Recorder()))
        except Exception:
            again = None
            print(traceback.format_exc(), file=sys.stderr)
        finally:
            tracer.uninstall()
        if again != self.first_report:
            self._fail(self.rec, "determinism", "pass 0 report differs on rerun")
        return hashlib.sha256(self.first_report).hexdigest()


def _line(name, value, unit, detail=""):
    print("%-34s %14.6g %-6s %s" % (name, value, unit, detail))


def _summary_lines(rec, digest, traced):
    _line("failed_ratio", rec.failed / max(rec.attempted, 1), "ratio",
          "%d failed of %d attempted" % (rec.failed, rec.attempted))
    print("report_sha256 %s (pass 0; %srerun byte-identical: %s)"
          % (digest, "traced " if traced else "", rec.failed == 0))


def _end_to_end(args, wl, runner) -> dict:
    rec = runner.rec
    deadline = time.perf_counter() + 3 * args.seconds + 30
    inp = runner.first_inputs
    passes = 0
    rss = None
    setup = []
    while True:
        runner.run(inp, rec)
        passes += 1
        if passes == RSS_PASSES:
            rss = _peak_rss_mb()
        if rec.busy_s >= args.seconds or time.perf_counter() > deadline:
            break
        # setup probes between passes, spread over the rest of the run, so
        # that their median sees the machine at several moments
        if rss is not None and len(setup) < SETUP_PROBES * rec.busy_s / args.seconds:
            setup.append(_measure_setup(wl.name, args.seed))
        inp = wl.next_inputs()
    if rss is None:
        rss = _peak_rss_mb()
    while len(setup) < SETUP_PROBES:
        setup.append(_measure_setup(wl.name, args.seed))
    item_ref, refs = rec.in_ref(reference_s())
    digest = runner.rerun_first(traced=False)
    calls = rec.call_times
    n = len(calls)
    tail_v, tail_q = tail(calls, wl.tail_cap)
    ref_v, _ = tail(refs, wl.tail_cap)
    metrics = {
        "setup_s": (median(setup), "s", "median of %d fresh processes" % len(setup)),
        "items_per_ref": (rec.items / item_ref, "1/ref", "%d items" % rec.items),
        "calls_per_ref": (n / sum(refs), "1/ref", "%d calls" % n),
        "call_p50_ref": (median(refs), "ref", "p50 of n=%d" % n),
        "call_tail_ref": (ref_v, "ref", "p%g of n=%d" % (tail_q, n)),
        "peak_rss_mb": (rss, "MB", "ru_maxrss of self + largest child after %d of %d passes"
                        % (min(passes, RSS_PASSES), passes)),
    }
    for name, (value, unit, detail) in metrics.items():
        _line(name, value, unit, detail)
    aliases = spec.ALIASES[wl.name]
    _line("reference", 1e3 * median(rec.refs), "ms",
          "median of n=%d reference timings, one before each pass" % len(rec.refs))
    _line(aliases["items_per_s"], rec.items / rec.item_s, "1/s",
          "wall: %d in %.3f s" % (rec.items, rec.item_s))
    _line(aliases["calls_per_s"], n / sum(calls), "1/s", "wall: %d in %.3f s" % (n, sum(calls)))
    _line(aliases["call_p50_ms"], 1e3 * median(calls), "ms", "wall: p50 of n=%d" % n)
    _line(aliases["call_tail_ms"], 1e3 * tail_v, "ms", "wall: p%g of n=%d" % (tail_q, n))
    if rec.item_times:
        m = len(rec.item_times)
        tv, tq = tail(rec.item_times, wl.item_tail_cap)
        _line(aliases["item_p50_us"], 1e6 * median(rec.item_times), "us", "wall: p50 of n=%d" % m)
        _line(aliases["item_tail_us"], 1e6 * tv, "us", "wall: p%g of n=%d" % (tq, m))
    _summary_lines(rec, digest, traced=False)
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}


def _per_layer(sg, wl, runner) -> dict:
    """Alternate untraced and traced passes, so that both halves see the same
    machine conditions and, on chain_certify, the same (n, l) classes."""
    rec = runner.rec
    traced_rec = Recorder()
    cache = sg.quang.quang_combine_cached
    hits = misses = 0
    tracer = Tracer()
    inputs = [runner.first_inputs] + [wl.next_inputs() for _ in range(2 * wl.trace_passes - 1)]
    for plain_inp, traced_inp in zip(inputs[::2], inputs[1::2]):
        runner.run(plain_inp, rec)
        before = cache.cache_info()
        tracer.install("subgeneral", LAYER_SPANS)
        try:
            out = runner.run(traced_inp, traced_rec, gate=False)
        finally:
            tracer.uninstall()
        after = cache.cache_info()
        hits += after.hits - before.hits
        misses += after.misses - before.misses
        if out is not None:
            runner.gate(traced_inp, out, traced_rec)
    # traced time minus the untraced time of the same work at the untraced rate
    overhead = traced_rec.busy_s - rec.busy_s * traced_rec.items / rec.items
    rec.attempted += traced_rec.attempted
    rec.failed += traced_rec.failed
    digest = runner.rerun_first(traced=True)
    values = spec.layer_values(tracer, hits, misses, overhead)
    units = {name: unit for name, unit, _, _ in spec.LAYERS}
    for name, value in values.items():
        _line(name, value, units[name])
    _summary_lines(rec, digest, traced=True)
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def _run_one(args) -> int:
    sg = _import_program()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=str(ROOT)) as tmp:
        wl = WORKLOADS[args.workload](sg, args.seed, Path(tmp))
        runner = _Runner(wl)
        print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
        if args.trace:
            metrics = _per_layer(sg, wl, runner)
        else:
            metrics = _end_to_end(args, wl, runner)
    rec = runner.rec
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if rec.failed == 0 else 1


def _run_all(args) -> int:
    """Every workload, each in its own process, with one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in spec.WORKLOADS:
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S, cwd=str(ROOT),
            )
        except subprocess.TimeoutExpired:
            print("%s: no result in %d s" % (name, WORKLOAD_TIMEOUT_S), file=sys.stderr)
            return 2
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print("%s: exit %d without a result" % (name, proc.returncode), file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
        status = max(status, proc.returncode)
    print(json.dumps(combined, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.setup_probe:
            return _setup_probe(args.workload, args.seed)
        if args.workload == "all":
            return _run_all(args)
        return _run_one(args)
    except CannotRun as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
