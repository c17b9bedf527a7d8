"""Seeded single-node mutations of the experiment config, held to the
exit-code contract: `experiment run` and `experiment baseline` return 0, 2,
3, 64, 65 or 66 for every mutated document, and raise nothing.

Each case takes one of two valid configs (a curve and a plane, between them
every key the config accepts), picks one node of its JSON tree, and deletes
it or replaces it with one of REPLACEMENTS.  No integer replacement exceeds
3 and both configs are small, so no case starts unbounded work.  The full
set of 1,960 cases takes about 5 s; a seeded sample of CASES of them is run.
"""

import copy
import json
import random

import pytest

from subgeneral.cli import main
from subgeneral.experiments import ExperimentConfig

EXIT_CODES = {0, 2, 3, 64, 65, 66}
REPLACEMENTS = (
    None, True, "", "x", 1.5, -1, 0, 2, 3, [], {}, "1/0", "nan", "-2", [0], ["0", "0"], {"a": 1},
)
DELETE = object()
CASES = 400

CURVE = {
    "ambient_dim": 1,
    "x": {"ambient_dim": 1, "forms": []},
    "arrangements": {
        "inf": [["1", "0"], ["0", "1"], ["1", "1"]],
        "p=2": [["1", "0"], ["0", "1"], ["1", "-1"]],
    },
    "l": 2,
    "epsilon": "1/10",
    "height_window": [0.0, 2.3],
    "sample_count": None,
    "seed": 1,
}

PLANE = {
    "ambient_dim": 2,
    "x": {"ambient_dim": 2, "forms": []},
    "arrangements": {
        "inf": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "p=3": [{"type": "linear", "coeffs": ["1", "1", "0"]}, ["0", "1", "1"], ["1", "0", "1"]],
    },
    "l": 2,
    "epsilon": "1/5",
    "height_window": [0.0, 2.0],
    "sample_count": 12,
    "seed": 3,
    "position_asserted": False,
    "mode": "strict",
    "candidate_fraction": "1/2",
    "max_candidates": 2,
    "workers": 1,
    "excluded_supports": [
        {"type": "form", "dim": 2, "degree": 2, "terms": [[[2, 0, 0], "1"], [[0, 1, 1], "-3"]]},
        {"type": "subscheme", "label": "pt", "components": [["1", "0", "-1"], ["0", "1", "2"]]},
    ],
}


def _paths(node, path=()):
    """The path of every node of a JSON tree, the root's () first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _mutated(doc, path, value):
    """doc with the node at path deleted (value DELETE) or replaced."""
    if not path:
        return copy.deepcopy(value)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def _cases():
    cases = [
        (name, doc, path, value)
        for name, doc in (("curve", CURVE), ("plane", PLANE))
        for path in _paths(doc)
        for value in (DELETE,) + REPLACEMENTS
        if path or value is not DELETE
    ]
    return random.Random(14).sample(cases, CASES)


def test_the_fuzzed_configs_run_and_no_replacement_exceeds_3(capsys):
    # the curve holds three forms per place, so the baseline refuses it
    for doc, baseline in ((CURVE, 2), (PLANE, 0)):
        assert main(["experiment", "run", "--config", json.dumps(doc)]) == 0
        assert main(["experiment", "baseline", "--config", json.dumps(doc)]) == baseline
    capsys.readouterr()
    assert max(v for v in REPLACEMENTS if type(v) is int) == 3
    # every key the config accepts is mutated
    assert set(PLANE) == set(ExperimentConfig.from_json_dict(PLANE).to_json_dict())


def test_mutated_experiment_configs_keep_the_exit_code_contract(tmp_path, capsys):
    out = str(tmp_path / "report")
    seen = set()
    for i, (name, doc, path, value) in enumerate(_cases()):
        command = ("run", "baseline")[i % 2]
        text = json.dumps(_mutated(doc, path, value))
        try:
            rc = main(["experiment", command, "--config", text, "--out", out])
        except Exception as exc:  # any escape breaks the contract
            pytest.fail("%s %s: %r at %r escaped: %r" % (name, command, value, path, exc))
        assert rc in EXIT_CODES, (name, command, path, value, rc)
        seen.add(rc)
    capsys.readouterr()
    assert {0, 2, 64, 65} <= seen
