import json
from pathlib import Path

from perfbench import spec
from perfbench.tracer import LAYER_SPANS, Tracer
from perfbench.workloads import WORKLOADS

BENCH = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_spec():
    assert [w["name"] for w in BENCH["workloads"]] == list(spec.WORKLOADS)
    assert sorted(WORKLOADS) == sorted(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["end_to_end"]] == list(
        spec.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (n, u, b) for n, u, b, _ in spec.LAYERS
    ]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_layer_map_names_real_metrics_and_workloads():
    e2e = {n for n, _, _ in spec.END_TO_END}
    for name, _, _, moves in spec.LAYERS:
        for metric, workload in moves:
            assert metric in e2e and workload in spec.WORKLOADS, name
    assert sorted(spec.ALIASES) == sorted(spec.WORKLOADS)
    for aliases in spec.ALIASES.values():
        assert {"items_per_s", "calls_per_s", "call_p50_ms", "call_tail_ms"} <= set(aliases)


def test_every_layer_metric_comes_from_a_traced_span():
    spans = {name for _, _, name, _ in LAYER_SPANS}
    values = spec.layer_values(Tracer(), 0, 0, 0.0)
    assert list(values) == [n for n, _, _, _ in spec.LAYERS]
    for name in values:
        module = name.split(".")[0]
        assert module in spec.MODULES or module == "trace"
    for module in spec.MODULES:
        assert any(s.split(".")[0] == module for s in spans), module
