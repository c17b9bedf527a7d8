"""End-to-end command-line coverage through main(argv), one process, no shell."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import subgeneral
from subgeneral import ExperimentConfig, ProjPoint, target_to_json
from subgeneral.cli import main

from gen import rand_hom_form, rand_linear_form
from oracles import violator_by_fractions

CONCURRENT = "[[1,0,0],[0,1,0],[1,1,0]]"
WORKED_FORMS = "[[1,0,0],[0,1,0],[1,-1,0]]"
LINE_X = '{"ambient_dim": 2, "forms": [["0", "0", "1"]]}'


def run_json(capsys, argv, expect=0):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect, captured.err
    return json.loads(captured.out)


def violator_config(**overrides):
    cfg = {
        "x": {"ambient_dim": 1, "forms": []},
        "arrangements": {
            "inf": [
                {"type": "linear", "coeffs": ["1", "0"]},
                {"type": "linear", "coeffs": ["5", "7"]},
            ]
        },
        "l": 1,
        "epsilon": "1/10",
        "height_window": [0.5, 2.5],
        "sample_count": None,
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# norm and height


def test_norm_single_place(capsys):
    data = run_json(capsys, ["norm", "12", "--place", "p=2"])
    assert data == {
        "exact": [2, 2],
        "place": "p=2",
        "value": pytest.approx(-2 * math.log(2), abs=1e-12),
        "x": "12",
    }
    bare = run_json(capsys, ["norm", "12", "--place", "2"])
    assert bare["place"] == "p=2"
    arch = run_json(capsys, ["norm", "-3/8", "--place", "inf"])
    assert arch["exact"] is None
    assert arch["value"] == pytest.approx(math.log(3) - math.log(8), abs=1e-12)


def test_norm_ledger(capsys):
    data = run_json(capsys, ["norm", "-35/4", "--ledger"])
    assert data["x"] == "-35/4"
    assert data["finite"] == [[2, -2], [5, 1], [7, 1]]
    assert data["residual_exact_zero"] is True
    assert data["arch_log"] == pytest.approx(math.log(35) - math.log(4), abs=1e-12)


def test_norm_usage_and_domain_errors(capsys):
    assert main(["norm", "12"]) == 64
    assert "norm needs --place" in capsys.readouterr().err
    assert main(["norm", "0", "--ledger"]) == 65
    assert main(["norm", "0", "--place", "inf"]) == 65
    assert main(["norm", "12", "--place", "p=6"]) == 65
    capsys.readouterr()


def test_norm_ledger_refuses_a_cofactor_beyond_the_factoring_bound(capsys, monkeypatch):
    # the primes after 10^12 and 3*10^12: their product exceeds 10^24, so
    # rho runs under its step budget, here made small
    monkeypatch.setattr(subgeneral.places, "_RHO_STEPS", 64)
    n = 1000000000039 * 3000000000013
    assert main(["norm", "%d/7" % n, "--ledger"]) == 65
    err = capsys.readouterr().err
    assert str(n) in err and "10^24" in err


def test_height(capsys):
    data = run_json(capsys, ["height", "[4,6,10]"])
    assert data == {
        "height": pytest.approx(math.log(5), abs=1e-12),
        "height_exact": "5",
        "point": "[2:3:5]",
    }
    scaled = run_json(capsys, ["height", "[2:3:5]", "--degree", "2"])
    assert scaled["degree"] == "2"
    assert scaled["height_scaled"] == pytest.approx(2 * math.log(5), abs=1e-12)


def test_height_errors(capsys):
    assert main(["height", "[0,0]"]) == 65
    assert main(["height", "[2:3]", "--degree", "0"]) == 65
    capsys.readouterr()


# ---------------------------------------------------------------------------
# weil


def test_weil_single(capsys):
    data = run_json(
        capsys, ["weil", "--point", "[1:4]", "--place", "inf", "--linear", "[1,0]"]
    )
    assert data["value"] == pytest.approx(math.log(4), abs=1e-12)
    assert data["exact"] is None
    assert data["subject"] == "x0"
    assert data["point"] == "[1:4]"
    finite = run_json(
        capsys, ["weil", "--point", "[1:4]", "--place", "p=2", "--linear", "[0,1]"]
    )
    assert finite["exact"] == [2, 2]


def test_weil_target_json(capsys):
    target = json.dumps(
        {"type": "form", "dim": 1, "degree": 2, "terms": [[[2, 0], "1"]]}
    )
    data = run_json(
        capsys, ["weil", "--point", "[3:1]", "--place", "p=3", "--target", target]
    )
    assert data["exact"] == [3, 2]


def test_weil_manifest_csv(capsys, tmp_path):
    manifest = {
        "points": [["1", "4"], ["0", "1"]],
        "targets": [{"type": "linear", "coeffs": ["1", "0"]}],
        "places": ["inf", "2"],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code = main(["weil", "--manifest", "@%s" % path, "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "point,target,place,value,exact"
    assert len(lines) == 5
    assert lines[1].startswith('[1:4],"x0",inf,')
    assert lines[3] == '[0:1],"x0",inf,,support'


def test_weil_manifest_csv_quotes_a_label_with_quotes(capsys):
    # a quote in a target label is doubled (RFC 4180), so every row reads
    # back as five fields with the label intact
    label = 'my "line", x0=x1'
    subscheme = {"type": "subscheme", "label": label, "components": [
        {"type": "linear", "coeffs": ["1", "-1", "0"]},
        {"type": "linear", "coeffs": ["0", "0", "1"]},
    ]}
    manifest = {"points": [["1", "2", "3"]], "targets": [subscheme], "places": ["inf", "2"]}
    assert main(["weil", "--manifest", json.dumps(manifest), "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["point", "target", "place", "value", "exact"]
    assert [(len(r), r[1]) for r in rows[1:]] == [(5, label), (5, label)]


def test_weil_manifest_csv_rows_have_the_fields_of_the_header(capsys):
    # the header names the fields of the JSON rows, and every row, a support
    # hit's too, reads back with one field per header name
    quadric = {"type": "form", "dim": 2, "degree": 2,
               "terms": [[[2, 0, 0], "1"], [[0, 2, 0], "-1"]]}
    subscheme = {"type": "subscheme", "components": [
        {"type": "linear", "coeffs": ["1", "0", "0"]},
        {"type": "linear", "coeffs": ["0", "1", "0"]},
    ]}
    manifest = {
        "points": [["0", "1", "1"], ["2", "3", "5"], ["0", "0", "1"]],
        "targets": [["1", "0", "0"], quadric, subscheme],
        "places": ["inf", "2", "3"],
    }
    doc = json.dumps(manifest)
    keys = {frozenset(row) for row in run_json(capsys, ["weil", "--manifest", doc])}
    assert main(["weil", "--manifest", doc, "--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert keys == {frozenset(header)}
    assert len(rows) == 27 and {len(r) for r in rows} == {len(header)}
    assert any(r[header.index("exact")] == "support" for r in rows)


def test_weil_manifest_points_of_the_wrong_dimension_exit_65(capsys):
    targets = [["1", "0", "0", "2"], {"type": "subscheme", "components": [
        {"type": "linear", "coeffs": ["0", "1", "0", "0"]},
        {"type": "linear", "coeffs": ["0", "0", "1", "0"]},
    ]}]
    for target in targets:
        manifest = {
            "points": [["1", "2", "3", "4"], ["1", "2", "3"]],
            "targets": [target],
            "places": ["inf", "p=2"],
        }
        assert main(["weil", "--manifest", json.dumps(manifest)]) == 65
        assert "evaluated at point of P^2" in capsys.readouterr().err


def test_weil_usage_errors(capsys):
    assert main(["weil", "--point", "[1:2]", "--place", "inf"]) == 64
    assert main(["weil", "--manifest", "{oops"]) == 64
    capsys.readouterr()


def test_weil_support_is_domain_error(capsys):
    code = main(["weil", "--point", "[0:1]", "--place", "inf", "--linear", "[1,0]"])
    assert code == 65
    assert "support" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# position


def test_position_check_negative_verdict_is_data(capsys):
    data = run_json(capsys, ["position", "check", "--forms", CONCURRENT, "--l", "2"])
    assert data["verdict"] is False
    assert data["level"] == 2 and data["q"] == 3
    assert data["complete"] is True
    assert data["witnesses"][0] == {"subset": [1, 2, 3], "dim": 0, "allowed": -1}


def test_position_check_verdict_only(capsys):
    data = run_json(
        capsys,
        ["position", "check", "--forms", CONCURRENT, "--l", "2", "--verdict-only"],
    )
    assert data["verdict"] is False
    assert data["complete"] is False
    assert len(data["witnesses"]) == 1


def test_position_check_on_subvariety(capsys):
    data = run_json(
        capsys,
        ["position", "check", "--forms", WORKED_FORMS, "--l", "2", "--x", LINE_X],
    )
    assert data["verdict"] is True
    assert data["witnesses"] == []


def test_position_check_level_below_dim(capsys):
    assert main(["position", "check", "--forms", CONCURRENT, "--l", "0"]) == 65
    capsys.readouterr()


# ---------------------------------------------------------------------------
# quang, seshadri, chain, delta


def test_quang_combine_worked_example(capsys):
    data = run_json(
        capsys,
        ["quang", "combine", "--forms", WORKED_FORMS, "--x", LINE_X,
         "--places", "inf,p=2"],
    )
    assert data["outputs"] == [["1", "0", "0"], ["0", "1", "0"]]
    assert data["matrix"] == [["1", "0", "0"], ["0", "1", "0"]]
    assert data["constants"] == {"inf": "1", "p=2": "1"}
    assert data["position"]["verdict"] is True


def test_quang_combine_refuses_a_place_listed_twice(capsys):
    argv = ["quang", "combine", "--forms", WORKED_FORMS, "--x", LINE_X]
    assert main(argv + ["--places", "inf,p=2,inf"]) == 65
    captured = capsys.readouterr()
    assert "duplicate places" in captured.err and captured.out == ""
    assert main(argv + ["--places", "p=2,inf"]) == 0
    capsys.readouterr()


def test_quang_combine_rejects_bad_position(capsys):
    assert main(["quang", "combine", "--forms", CONCURRENT]) == 65
    assert "subgeneral" in capsys.readouterr().err


def test_quang_combine_refuses_first_form_vanishing_on_x(capsys):
    # 2-subgeneral on the line, but L'_1 = x2 is zero there
    forms = "[[0,0,1],[1,0,0],[0,1,0]]"
    assert main(["quang", "combine", "--forms", forms, "--x", LINE_X]) == 65
    out = capsys.readouterr()
    assert out.out == "" and "L_1 vanishes on X" in out.err


def test_seshadri(capsys):
    cubic = json.dumps(
        {
            "type": "form",
            "dim": 2,
            "degree": 3,
            "terms": [[[3, 0, 0], "1"], [[0, 3, 0], "1"], [[0, 0, 3], "1"]],
        }
    )
    data = run_json(capsys, ["seshadri", "--target", cubic])
    assert data["value"] == "1/3"
    assert data["class"] == "hypersurface(3)"
    point = json.dumps(
        {
            "type": "subscheme",
            "label": "",
            "components": [
                {"type": "linear", "coeffs": ["1", "0", "0"]},
                {"type": "linear", "coeffs": ["0", "1", "0"]},
            ],
        }
    )
    data = run_json(capsys, ["seshadri", "--target", point])
    assert data["value"] == "1"


def test_seshadri_unsupported(capsys):
    dependent = json.dumps(
        {
            "type": "subscheme",
            "components": [
                {"type": "linear", "coeffs": ["1", "1", "0"]},
                {"type": "linear", "coeffs": ["2", "2", "0"]},
            ],
        }
    )
    assert main(["seshadri", "--target", dependent]) == 65
    capsys.readouterr()


def test_chain_check_round_trip(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code = main(
        ["quang", "combine", "--forms", WORKED_FORMS, "--x", LINE_X,
         "--out", str(cert_path)]
    )
    assert code == 0
    capsys.readouterr()
    data = run_json(
        capsys,
        ["chain", "check", "--cert", "@%s" % cert_path, "--point", "[1:2:0]",
         "--place", "inf"],
    )
    assert data["passed"] is True
    assert data["perm"] == [1, 3, 2]
    assert data["lhs"] == pytest.approx(math.log(4), abs=1e-12)
    assert data["rhs"] == pytest.approx(math.log(48), abs=1e-12)
    assert data["chain_c"] == "1"

    assert (
        main(
            ["chain", "check", "--cert", "@%s" % cert_path, "--point", "[1:1:0]",
             "--place", "inf"]
        )
        == 65
    )
    capsys.readouterr()


def test_chain_check_refuses_an_unsound_certificate(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    argv = ["quang", "combine", "--forms", WORKED_FORMS, "--x", LINE_X,
            "--places", "inf,p=2", "--out", str(cert_path)]
    assert main(argv) == 0
    cert = json.loads(cert_path.read_text())
    check = ["--point", "[1:2:0]", "--place", "inf"]
    assert main(["chain", "check", "--cert", json.dumps(cert)] + check) == 0
    capsys.readouterr()
    for constants in ({"inf": "1/1000", "p=2": "7"}, {"inf": "1", "p=2": "2"}):
        tampered = json.dumps({**cert, "constants": constants})
        assert main(["chain", "check", "--cert", tampered] + check) == 65
        captured = capsys.readouterr()
        assert "fails its replay" in captured.err and captured.out == ""
    tampered = json.dumps({**cert, "matrix": [["1", "0", "0"], ["0", "0", "1"]]})
    assert main(["chain", "check", "--cert", tampered] + check) == 65
    assert "fails its replay" in capsys.readouterr().err
    # an input outside X's ambient space fails the replay, before any walk
    x_p1 = {"ambient_dim": 1, "forms": []}
    wrong_space = json.dumps({
        **cert, "x": x_p1, "inputs": [["1", "0"], ["0", "1"], ["1", "1", "5"]],
        "outputs": [["1", "0"], ["1", "1"]], "constants": {"inf": "1"},
    })
    assert main(["chain", "check", "--cert", wrong_space, "--point", "[1:2]",
                 "--place", "inf"]) == 65
    assert "fails its replay" in capsys.readouterr().err
    not_a_place = json.dumps({**cert, "constants": {"inf": "1", "q=2": "1"}})
    assert main(["chain", "check", "--cert", not_a_place] + check) == 65
    assert "not a place" in capsys.readouterr().err
    # one place under two keys: a document quang combine cannot write
    twice = json.dumps({**cert, "constants": {"inf": "1", "oo": "1", "p=2": "1", "2": "1"}})
    assert main(["chain", "check", "--cert", twice] + check) == 65
    captured = capsys.readouterr()
    assert "constants name the place" in captured.err and captured.out == ""


def test_chain_check_refuses_a_certificate_with_too_few_inputs(capsys, tmp_path):
    # fewer than n+1 inputs fail the replay before any input is read
    cert_path = tmp_path / "cert.json"
    argv = ["quang", "combine", "--forms", WORKED_FORMS, "--x", LINE_X,
            "--places", "inf,p=2", "--out", str(cert_path)]
    assert main(argv) == 0
    cert = json.loads(cert_path.read_text())
    check = ["--point", "[1:2:0]", "--place", "inf"]
    for inputs in ([], "", {}, cert["inputs"][:1]):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**cert, "inputs": inputs}))
        assert main(["chain", "check", "--cert", "@%s" % path] + check) == 65
        captured = capsys.readouterr()
        assert "fails its replay" in captured.err and captured.out == ""


def test_delta(capsys):
    data = run_json(capsys, ["delta", "--l", "2", "--n", "2", "--epsilon", "1"])
    assert data == {"delta": "1/8", "epsilon": "1", "l": 2, "n": 2}
    assert main(["delta", "--l", "1", "--n", "2", "--epsilon", "1"]) == 65
    assert main(["delta", "--l", "1", "--n", "1", "--epsilon", "0"]) == 65
    assert (
        main(["delta", "--l", "1", "--n", "1", "--epsilon", "1/1000000000000000"])
        == 65
    )
    capsys.readouterr()


# ---------------------------------------------------------------------------
# experiments


def test_experiment_run_and_determinism(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(violator_config()))
    first = main(["experiment", "run", "--config", "@%s" % path])
    out1 = capsys.readouterr().out
    assert first == 0
    second = main(["experiment", "run", "--config", "@%s" % path])
    out2 = capsys.readouterr().out
    assert out1 == out2
    data = json.loads(out1)
    assert data["kind"] == "main"
    assert data["bound"] == "21/10"
    assert data["violators"] == ["[2:-1]", "[3:-2]", "[4:-3]"]
    assert len(data["candidates"]) == 3
    assert data["unassigned"] == []


def test_experiment_csv_and_flags(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(violator_config()))
    assert main(["experiment", "run", "--config", "@%s" % path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "point,height,weighted_sum,ratio,violator"
    assert len(lines) > 1

    assert main(["experiment", "run", "--config", "@%s" % path, "--no-records"]) == 0
    slim = json.loads(capsys.readouterr().out)
    assert "records" not in slim

    assert main(["experiment", "run", "--config", "@%s" % path, "--seed", "99"]) == 0
    seeded = json.loads(capsys.readouterr().out)
    assert seeded["config"]["seed"] == 99

    # workers is a config field only; the ledger runs in this process
    assert main(["experiment", "run", "--config", "@%s" % path, "--workers", "2"]) == 64
    capsys.readouterr()


def test_experiment_baseline(capsys, tmp_path):
    cfg = violator_config(
        arrangements={
            "inf": [
                {"type": "linear", "coeffs": ["1", "0"]},
                {"type": "linear", "coeffs": ["0", "1"]},
            ],
            "p=2": [
                {"type": "linear", "coeffs": ["1", "0"]},
                {"type": "linear", "coeffs": ["0", "1"]},
            ],
        }
    )
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(cfg))
    data = run_json(capsys, ["experiment", "baseline", "--config", "@%s" % path])
    assert data["kind"] == "baseline"
    assert data["violators"] == []


def test_experiment_commands_look_up_their_runner_when_they_run(capsys, monkeypatch):
    # a wrapper set on the module after the CLI was imported is what runs
    calls = []
    runners = (("main", "run_main_experiment"), ("baseline", "run_evertse_ferretti_baseline"))
    for kind, name in runners:
        original = getattr(subgeneral.experiments, name)

        def wrapper(config, kind=kind, original=original):
            calls.append((kind, config.seed))
            return original(config)

        monkeypatch.setattr(subgeneral.experiments, name, wrapper)
    config = json.dumps(violator_config())
    data = run_json(capsys, ["experiment", "run", "--config", config, "--seed", "4"])
    assert data["kind"] == "main"
    data = run_json(capsys, ["experiment", "baseline", "--config", config])
    assert data["kind"] == "baseline"
    assert calls == [("main", 4), ("baseline", 0)]


def test_experiment_bare_list_targets(capsys):
    # bare coefficient lists are linear-form shorthand in configs
    cfg = violator_config(arrangements={"inf": [["1", "0"], ["5", "7"]]})
    data = run_json(capsys, ["experiment", "run", "--config", json.dumps(cfg)])
    assert data["config"]["arrangements"]["inf"] == [
        {"type": "linear", "coeffs": ["1", "0"]},
        {"type": "linear", "coeffs": ["5", "7"]},
    ]


def test_experiment_exit_codes(capsys, tmp_path):
    rejected = violator_config(
        x={"ambient_dim": 2, "forms": []},
        arrangements={
            "inf": [
                {"type": "linear", "coeffs": ["1", "0", "0"]},
                {"type": "linear", "coeffs": ["0", "1", "0"]},
                {"type": "linear", "coeffs": ["1", "1", "0"]},
            ]
        },
        l=2,
    )
    path = tmp_path / "rejected.json"
    path.write_text(json.dumps(rejected))
    assert main(["experiment", "run", "--config", "@%s" % path]) == 2
    assert "config rejected" in capsys.readouterr().err

    partial = violator_config(height_window=[0.0, 0.69], sample_count=50)
    path2 = tmp_path / "partial.json"
    path2.write_text(json.dumps(partial))
    assert main(["experiment", "run", "--config", "@%s" % path2]) == 3
    captured = capsys.readouterr()
    assert "partial" in captured.err
    assert json.loads(captured.out)["partial"] is True

    bad = violator_config(epsilon="0")
    path3 = tmp_path / "bad.json"
    path3.write_text(json.dumps(bad))
    assert main(["experiment", "run", "--config", "@%s" % path3]) == 65
    capsys.readouterr()


def test_target_vanishing_on_x_is_refused_with_exit_2(capsys):
    # x2, x0, x1 are 2-subgeneral on X = {x2 = 0}, but x2 vanishes on X, so
    # every point of X lies on its support and none could be sampled: the
    # position gate refuses the config and names the target and the place,
    # in either order of the targets
    targets = [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]
    for arrangements, place in (
        ({"inf": targets, "p=2": targets[::-1]}, "inf"),
        ({"p=2": targets[::-1]}, "p=2"),
    ):
        cfg = violator_config(x=json.loads(LINE_X), arrangements=arrangements, l=2)
        assert main(["experiment", "run", "--config", json.dumps(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == (
            "config rejected: target x2 at %s vanishes on X" % place
        )


def test_nonlinear_target_vanishing_on_x_is_refused_with_exit_2(capsys):
    # x0 * x2 vanishes on X = {x2 = 0}: with the position asserted, the
    # sampler would keep no point, so the gate refuses it as it does a line
    quad = {"type": "form", "dim": 2, "degree": 2, "terms": [[[1, 0, 1], "1"]]}
    targets = [["1", "0", "0"], ["0", "1", "0"], quad]
    cfg = violator_config(
        x=json.loads(LINE_X), arrangements={"inf": targets}, l=2, position_asserted=True
    )
    assert main(["experiment", "run", "--config", json.dumps(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "config rejected: target +1*x0*x2 at inf vanishes on X"


def test_io_failures_exit_66(capsys, tmp_path):
    assert main(["experiment", "run", "--config", "@%s/missing.json" % tmp_path]) == 66
    assert main(["height", "[1:2]", "--out", "%s/no/dir/x.json" % tmp_path]) == 66
    capsys.readouterr()


def test_usage_failures_exit_64(capsys):
    assert main([]) == 64
    assert main(["frobnicate"]) == 64
    assert main(["position", "check", "--forms", "not json", "--l", "1"]) == 64
    assert main(["experiment", "run", "--config", "{broken"]) == 64
    capsys.readouterr()


MALFORMED_DOCUMENTS = [
    ("--config", ["experiment", "run", "--config", "{}"]),
    ("--manifest", ["weil", "--manifest", "{}"]),
    ("--cert", ["chain", "check", "--cert", "{}", "--point", "[1:2]", "--place", "inf"]),
    ("--target", ["seshadri", "--target", '{"type": "subscheme"}']),
    ("--target", ["weil", "--target", '{"type": "form"}', "--point", "[1:2]", "--place", "inf"]),
    ("--x", ["quang", "combine", "--forms", "[[1,0],[0,1]]", "--x", '{"forms": []}']),
    ("--x", ["position", "check", "--forms", "[[1,0],[0,1]]", "--l", "1", "--x", "[]"]),
    ("--forms", ["position", "check", "--forms", "[[1,0],5]", "--l", "1"]),
    ("--config", ["experiment", "run", "--config", '{"x": []}']),
    ("--manifest", ["weil", "--manifest", "[]"]),
]


@pytest.mark.parametrize("option, argv", MALFORMED_DOCUMENTS)
def test_malformed_documents_exit_64_naming_the_option(capsys, option, argv):
    assert main(argv) == 64
    assert capsys.readouterr().err.startswith(option + ": malformed document")


def test_malformed_document_exits_64_without_a_traceback():
    src = str(Path(subgeneral.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "subgeneral.cli", "experiment", "run", "--config", "{}"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 64
    assert "Traceback" not in proc.stderr and "--config" in proc.stderr


WRONGLY_TYPED_CONFIG_VALUES = [
    {"position_asserted": "false"},
    {"position_asserted": 0},
    {"sample_count": 2.7},
    {"sample_count": "5"},
    {"sample_count": True},
    {"l": "1"},
    {"l": 1.0},
    {"seed": "0"},
    {"seed": False},
    {"max_candidates": 3.0},
    {"workers": "2"},
    {"workers": True},
    {"ambient_dim": "1"},
    {"height_window": ["0.5", 2.5]},
    {"height_window": [0.5, True]},
]


@pytest.mark.parametrize("override", WRONGLY_TYPED_CONFIG_VALUES)
def test_config_values_of_the_wrong_json_type_exit_64(capsys, override):
    argv = ["experiment", "run", "--config", json.dumps(violator_config(**override))]
    assert main(argv) == 64
    assert capsys.readouterr().err.startswith("--config: malformed document (TypeError")


QUADRIC = {"type": "form", "dim": 1, "degree": 2, "terms": [[[2, 0], "1"], [[0, 2], "1"]]}
CERT = {
    "x": {"ambient_dim": 1, "forms": []},
    "inputs": [["1", "0"], ["0", "1"]],
    "outputs": [["1", "0"], ["0", "1"]],
    "matrix": [["1", "0"], ["0", "1"]],
    "position": {"verdict": True, "level": 1, "q": 2, "x": {"ambient_dim": 1, "forms": []},
                 "witnesses": [], "complete": True},
    "constants": {"inf": "1"},
}


def _nested(doc: dict, path: tuple, value) -> dict:
    """A copy of doc with the entry at path replaced by value."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


# integers nested in documents: a subvariety's ambient_dim, a form's dim,
# degree and exponents
NESTED_NON_INTEGERS = [
    ("--config", ["experiment", "run", "--config",
                  json.dumps(_nested(violator_config(), ("x", "ambient_dim"), bad))])
    for bad in (1.9, True, "1")
] + [
    ("--config", ["experiment", "run", "--config", json.dumps(_nested(
        violator_config(excluded_supports=[QUADRIC]), ("excluded_supports", 0, "degree"), 2.7
    ))]),
    ("--x", ["position", "check", "--forms", "[[1,0],[0,1]]", "--l", "1",
             "--x", '{"ambient_dim": 1.9, "forms": []}']),
    ("--target", ["seshadri", "--target", json.dumps(_nested(QUADRIC, ("degree",), 2.7))]),
    ("--target", ["weil", "--target", json.dumps(_nested(QUADRIC, ("dim",), "1")),
                  "--point", "[1:2]", "--place", "inf"]),
    ("--manifest", ["weil", "--manifest", json.dumps({
        "points": [["1", "2"]],
        "places": ["inf"],
        "targets": [_nested(QUADRIC, ("terms", 0, 0, 0), 2.0)],
    })]),
    ("--cert", ["chain", "check", "--cert", json.dumps(_nested(CERT, ("x", "ambient_dim"), True)),
                "--point", "[1:2]", "--place", "inf"]),
]


@pytest.mark.parametrize("option, argv", NESTED_NON_INTEGERS)
def test_nested_integers_of_the_wrong_json_type_exit_64(capsys, option, argv):
    assert main(argv) == 64
    assert capsys.readouterr().err.startswith(option + ": malformed document (TypeError")


def test_nested_integers_of_the_right_json_type_run(capsys):
    config = violator_config(excluded_supports=[QUADRIC])
    assert main(["experiment", "run", "--config", json.dumps(config)]) == 0
    assert main(["seshadri", "--target", json.dumps(QUADRIC)]) == 0
    argv = ["chain", "check", "--cert", json.dumps(CERT), "--point", "[1:2]", "--place", "inf"]
    assert main(argv) == 0
    capsys.readouterr()


def test_excluded_supports_in_the_wrong_space_exit_65(capsys):
    for support in (["1", "-2", "5"], {**QUADRIC, "dim": 2, "terms": [[[2, 0, 0], "1"]]}):
        config = violator_config(excluded_supports=[support])
        assert main(["experiment", "run", "--config", json.dumps(config)]) == 65
        assert "wrong ambient space" in capsys.readouterr().err


def test_config_values_of_the_right_json_type_run(capsys):
    for override in (
        {"position_asserted": False, "height_window": [1, 2.5]},
        {"sample_count": 5, "ambient_dim": 1, "workers": 2, "max_candidates": 3},
    ):
        config = json.dumps(violator_config(**override))
        assert main(["experiment", "run", "--config", config]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("window", ["[NaN, 3.0]", "[0.0, NaN]", "[-Infinity, 2.0]"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_height_windows_exit_65(capsys, window, fmt):
    # json.dumps cannot write these tokens into a valid document, so splice
    config = json.dumps(violator_config(height_window="WINDOW")).replace('"WINDOW"', window)
    assert main(["experiment", "run", "--config", config, "--format", fmt]) == 65
    captured = capsys.readouterr()
    assert "must be finite" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_a_manifest_place_that_is_not_text_stays_exit_65(capsys):
    # a place that is not text or an int names no place (a cache keyed by the
    # place would refuse it as unhashable instead)
    manifest = {"points": [["1", "4"]], "targets": [["1", "0"]]}
    for place in ([2], {"p": 2}):
        assert main(["weil", "--manifest", json.dumps({**manifest, "places": [place]})]) == 65
        assert "not a place" in capsys.readouterr().err
    assert main(["weil", "--manifest", json.dumps({**manifest, "places": [2]})]) == 0
    capsys.readouterr()


def test_well_formed_bad_values_stay_exit_65(capsys):
    assert main(["seshadri", "--target", '{"type": "bogus"}']) == 65
    manifest = {"points": [["1", "4"]], "targets": [["1", "0"]], "places": ["inf"]}
    assert main(["weil", "--manifest", json.dumps({**manifest, "mode": "bogus"})]) == 65
    misspelled = violator_config(sampel_count=5)
    assert main(["experiment", "run", "--config", json.dumps(misspelled)]) == 65
    assert "sampel_count" in capsys.readouterr().err


def test_out_file_matches_stdout(capsys, tmp_path):
    main(["delta", "--l", "3", "--n", "2", "--epsilon", "1"])
    stdout_text = capsys.readouterr().out
    path = tmp_path / "delta.json"
    assert main(["delta", "--l", "3", "--n", "2", "--epsilon", "1",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text() == stdout_text
    assert json.loads(stdout_text)["delta"] == "1/16"


# ---------------------------------------------------------------------------
# report bytes: digests of two small seeded reports, so a change that moves
# a byte of either fails here and not only in the benchmark's digests

_GOLDEN_FORMS = [
    ["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
    ["1", "1", "1", "0"], ["1", "-2", "3", "0"],
]
GOLDEN_REPORTS = (
    (
        "json",
        {
            "x": {"ambient_dim": 1, "forms": []},
            "arrangements": {
                "inf": [["1", "0"], ["0", "1"], ["1", "3"]],
                "p=2": [["1", "0"], ["0", "1"], ["1", "-5"]],
                "p=3": [["1", "0"], ["0", "1"], ["2", "7"]],
            },
            "l": 2,
            "epsilon": "1/10",
            "height_window": [0.0, math.log(60)],
            "sample_count": None,
            "seed": 1,
        },
        "261900a8fae12a417c42414e20bb7e93a6913547d6611b503a86cf647d837b8a",
    ),
    (
        "csv",
        {
            "x": {"ambient_dim": 3, "forms": [["0", "0", "0", "1"]]},
            "arrangements": {
                "inf": _GOLDEN_FORMS,
                "p=2": [
                    ["1", "2", "0", "1"], ["0", "1", "1", "0"], ["1", "0", "3", "0"],
                    ["2", "1", "1", "5"], ["1", "1", "-1", "0"],
                ],
                "p=3": _GOLDEN_FORMS,
            },
            "l": 4,
            "epsilon": "1/10",
            "height_window": [0.0, math.log(40)],
            "sample_count": 600,
            "seed": 17,
            "excluded_supports": [
                {
                    "type": "form", "dim": 3, "degree": 2,
                    "terms": [[[2, 0, 0, 0], "1"], [[0, 1, 1, 0], "-3"], [[0, 0, 2, 0], "2"]],
                },
                {
                    "type": "subscheme", "label": "",
                    "components": [
                        {"type": "linear", "coeffs": ["1", "0", "-1", "0"]},
                        {"type": "linear", "coeffs": ["0", "1", "2", "0"]},
                    ],
                },
            ],
        },
        "fa28c7a743625ed37c0c1daa27df842fe8be661ed604bf3ed1a09dd8f8a27ebd",
    ),
)


@pytest.mark.parametrize("fmt, config, digest", GOLDEN_REPORTS, ids=["curve-json", "surface-csv"])
def test_seeded_reports_keep_their_bytes(tmp_path, fmt, config, digest):
    # a curve JSON report (exhaustive sweep, records and chain summary at
    # three places) and a surface CSV report (600 draws, which cross a draw
    # block, with a quadric and a point as excluded supports)
    out = tmp_path / ("report." + fmt)
    argv = ["experiment", "run", "--config", json.dumps(config), "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _seeded_form_config():
    """A seeded P^2 config whose places each hold three lines and a quadric,
    so the Seshadri weights are 1 and 1/2 (position asserted)."""
    rng = random.Random(23)
    arrangements = {
        place: [target_to_json(t) for t in
                [rand_linear_form(rng, 2) for _ in range(3)] + [rand_hom_form(rng, 2, 2)]]
        for place in ("inf", "p=2")
    }
    return {
        "x": {"ambient_dim": 2, "forms": []},
        "arrangements": arrangements,
        "l": 2,
        "epsilon": "1/10",
        "height_window": [0.0, math.log(30)],
        "sample_count": 300,
        "seed": 23,
        "position_asserted": True,
    }


def test_every_violator_verdict_matches_a_fraction_decision(tmp_path):
    # the report compares float ratios and decides only its tie band
    # exactly; the reference decides every point over the integers
    flagged = []
    for config in [config for _, config, _ in GOLDEN_REPORTS] + [_seeded_form_config()]:
        out = tmp_path / "report.json"
        assert main(["experiment", "run", "--config", json.dumps(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        arrangements = ExperimentConfig.from_json_dict(config).arrangements
        bound = Fraction(report["bound"])
        exact = {
            label for label, *_ in report["records"]
            if violator_by_fractions(ProjPoint.parse(label), arrangements, bound)
        }
        assert exact == set(report["violators"])
        assert len(exact) < len(report["records"])
        flagged.append(len(exact))
    # the curve and the quadric configs reach violators, the surface none
    assert [n > 0 for n in flagged] == [True, False, True]


def test_main_builds_the_parser_once_per_process(monkeypatch, capsys):
    # a usage error, a run, other subcommands and another usage error in a
    # row: the exit codes and output of a fresh parser per call, from one
    # parser built by the first call
    cli = subgeneral.cli
    calls = [
        (["norm"], 64),
        (["experiment", "run", "--config", json.dumps(violator_config())], 0),
        (["height", "[4,6,10]", "--degree", "2"], 0),
        (["delta", "--l", "3", "--n", "2", "--epsilon", "1/10"], 0),
        (["weil", "--point", "[1:2]", "--place", "p=3", "--linear", "[1,-7]"], 0),
        (["experiment", "run", "--bogus"], 64),
        ([], 64),
        (["norm", "-35/4", "--place", "inf"], 0),
    ]

    def outcomes(fresh: bool) -> list:
        out = []
        for argv, code in calls:
            if fresh:
                cli.build_parser.cache_clear()
            assert main(argv) == code, argv
            captured = capsys.readouterr()
            out.append((captured.out, captured.err))
        return out

    expected = outcomes(fresh=True)
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli.build_parser.cache_clear()
    assert outcomes(fresh=False) == expected
    # one top-level parser, and its subparsers, all from the first call
    assert built.count("subgeneral") == 1 and len(built) > 1
    built.clear()
    assert main(["norm", "12", "--place", "p=2"]) == 0
    assert built == []
    capsys.readouterr()
