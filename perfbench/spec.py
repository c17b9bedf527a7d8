"""Metric names, units and the layer-to-end-to-end map.

Every workload reports every end-to-end metric, so each one is defined for
all four workloads in terms of its items and calls; ALIASES names them per
workload (items are points on the experiment workloads, chain checks on
chain_certify).  BENCHMARK.json repeats the names, units, directions and
bounds; tests/test_spec.py keeps the two in step.
"""

from __future__ import annotations

from .stats import ratio

WORKLOADS = ("curve_exhaustive", "surface_sampled", "chain_certify", "weil_ledger")
EXPERIMENTS = ("curve_exhaustive", "surface_sampled")

# name, unit, better; "ref" is the reference computation's time (calibrate.py)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_ref", "1/ref", "higher"),
    ("calls_per_ref", "1/ref", "higher"),
    ("call_p50_ref", "ref", "lower"),
    ("call_tail_ref", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# the wall-clock figures printed beside the metrics, by their names on
# each workload
ALIASES = {
    "curve_exhaustive": {
        "items_per_s": "points_per_s",
        "calls_per_s": "reports_per_s",
        "call_p50_ms": "report_p50_ms",
        "call_tail_ms": "report_tail_ms",
    },
    "surface_sampled": {
        "items_per_s": "points_per_s",
        "calls_per_s": "reports_per_s",
        "call_p50_ms": "report_p50_ms",
        "call_tail_ms": "report_tail_ms",
    },
    "chain_certify": {
        "items_per_s": "chain_checks_per_s",
        "calls_per_s": "certs_per_s",
        "call_p50_ms": "cert_p50_ms",
        "call_tail_ms": "cert_tail_ms",
        "item_p50_us": "chain_check_p50_us",
        "item_tail_us": "chain_check_tail_us",
    },
    "weil_ledger": {
        "items_per_s": "weil_rows_per_s",
        "calls_per_s": "ledgers_per_s",
        "call_p50_ms": "ledger_p50_ms",
        "call_tail_ms": "ledger_tail_ms",
    },
}

MODULES = (
    "cli",
    "experiments",
    "quang",
    "position",
    "linalg",
    "places",
    "weil",
    "seshadri",
    "projective",
    "jsonio",
)

_EXP_POINTS = [("items_per_ref", w) for w in EXPERIMENTS]
_CHAIN = [("items_per_ref", "chain_certify"), ("calls_per_ref", "chain_certify")]
_CERTS = [("calls_per_ref", "chain_certify"), ("call_tail_ref", "chain_certify")]
_WEIL_ROWS = [("items_per_ref", "weil_ledger")]
_LEDGERS = [("calls_per_ref", "weil_ledger"), ("call_tail_ref", "weil_ledger")]

# name, unit, better, [(end-to-end metric it should move, workload), ...]
LAYERS = (
    ("cli.self_s", "s", "lower", _EXP_POINTS),
    ("experiments.self_s", "s", "lower", _EXP_POINTS),
    ("experiments.run.self_s", "s", "lower", _EXP_POINTS),
    ("experiments.sample.s", "s", "lower", _EXP_POINTS),
    ("experiments.sample.attempts", "count", "lower", _EXP_POINTS),
    ("experiments.sample.accept_ratio", "ratio", "higher", _EXP_POINTS),
    ("experiments.scan.s", "s", "lower", [("items_per_ref", "surface_sampled")]),
    ("experiments.scan.violators", "count", "lower", [("items_per_ref", "surface_sampled")]),
    ("experiments.scan.candidates", "count", "lower", [("items_per_ref", "surface_sampled")]),
    ("experiments.chain_check.calls", "count", "lower", [_CHAIN[0]]),
    ("experiments.chain_check.s", "s", "lower", [_CHAIN[0]]),
    ("experiments.chain_check.support_skipped", "count", "lower", [_CHAIN[0]]),
    ("quang.self_s", "s", "lower", _CHAIN),
    ("quang.combine.calls", "count", "lower", _CHAIN),
    ("quang.combine.s", "s", "lower", _CHAIN),
    ("quang.reorder.s", "s", "lower", [_CHAIN[0]]),
    ("quang.cache.lookups", "count", "lower", [_CHAIN[0]]),
    ("quang.cache.hit_ratio", "ratio", "higher", [_CHAIN[0]]),
    ("position.self_s", "s", "lower", _CERTS),
    ("position.check.calls", "count", "lower", _CERTS),
    ("position.check.s", "s", "lower", _CERTS),
    ("linalg.self_s", "s", "lower", _CERTS + [("items_per_ref", "surface_sampled")]),
    ("linalg.rank_rows.calls", "count", "lower", _CERTS + [("items_per_ref", "surface_sampled")]),
    ("linalg.rank_rows.s", "s", "lower", _CERTS + [("items_per_ref", "surface_sampled")]),
    ("linalg.nullspace.s", "s", "lower", _CERTS),
    ("linalg.intersect_rowspaces.s", "s", "lower", _CERTS),
    ("places.self_s", "s", "lower", [_CHAIN[0]] + _WEIL_ROWS + _LEDGERS),
    ("places.valuation.calls", "count", "lower", [_CHAIN[0]] + _WEIL_ROWS),
    ("places.valuation.s", "s", "lower", [_CHAIN[0]] + _WEIL_ROWS),
    ("places.factor_int.calls", "count", "lower", _LEDGERS),
    ("places.factor_int.s", "s", "lower", _LEDGERS),
    ("weil.self_s", "s", "lower", _WEIL_ROWS),
    ("weil.local_weil.calls", "count", "lower", _WEIL_ROWS),
    ("weil.local_weil.s", "s", "lower", _WEIL_ROWS),
    ("weil.support_rows", "count", "lower", _WEIL_ROWS),
    ("projective.self_s", "s", "lower", [("items_per_ref", "surface_sampled")] + _WEIL_ROWS),
    ("projective.normalize.calls", "count", "lower", [("items_per_ref", "surface_sampled")] + _WEIL_ROWS),
    ("projective.normalize.s", "s", "lower", [("items_per_ref", "surface_sampled")] + _WEIL_ROWS),
    ("seshadri.calls", "count", "lower", [("setup_s", w) for w in WORKLOADS]),
    ("jsonio.self_s", "s", "lower", _EXP_POINTS),
    ("jsonio.report.s", "s", "lower", _EXP_POINTS),
    ("jsonio.report.bytes", "B", "lower", _EXP_POINTS),
    ("trace.overhead_s", "s", "lower", []),
)


def layer_values(tracer, cache_hits: int, cache_misses: int, overhead_s: float) -> dict:
    """Every LAYERS metric from a finished traced run."""
    c = tracer.counters
    out = {}
    for module in MODULES:
        out[module + ".self_s"] = sum(
            st[2] for name, st in tracer.stats.items() if name.split(".")[0] == module
        )
    for span in (
        "experiments.chain_check",
        "quang.combine",
        "position.check",
        "linalg.rank_rows",
        "places.valuation",
        "places.factor_int",
        "weil.local_weil",
        "projective.normalize",
        "seshadri",
    ):
        out[span + ".calls"] = tracer.calls(span)
    for span in (
        "experiments.sample",
        "experiments.scan",
        "experiments.chain_check",
        "quang.combine",
        "quang.reorder",
        "position.check",
        "linalg.rank_rows",
        "linalg.nullspace",
        "linalg.intersect_rowspaces",
        "places.valuation",
        "places.factor_int",
        "weil.local_weil",
        "projective.normalize",
        "jsonio.report",
    ):
        out[span + ".s"] = tracer.busy_s(span)
    out["experiments.run.self_s"] = tracer.self_s("experiments.run")
    out["experiments.sample.attempts"] = c["experiments.sample.attempts"]
    out["experiments.sample.accept_ratio"] = ratio(
        c["experiments.sample.points"], c["experiments.sample.attempts"]
    )
    out["experiments.scan.violators"] = c["experiments.scan.violators"]
    out["experiments.scan.candidates"] = c["experiments.scan.candidates"]
    out["experiments.chain_check.support_skipped"] = c[
        "experiments.chain_check.raised.SupportError"
    ]
    out["quang.cache.lookups"] = cache_hits + cache_misses
    out["quang.cache.hit_ratio"] = ratio(cache_hits, cache_hits + cache_misses)
    out["weil.support_rows"] = c["weil.support_rows"]
    out["jsonio.report.bytes"] = c["jsonio.report.bytes"]
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name, _, _, _ in LAYERS}
