"""Command-line frontend: one subcommand per module operation.

Exit codes follow the sysexits convention for plumbing problems and the
runner convention for experiments:

    0   success (including negative position verdicts, which are data)
    2   experiment config rejected (position failure or bad arrangement)
    3   experiment completed but the sample is partial
    64  usage or parse failure, including a JSON document of the wrong shape
    65  domain error from a module (support hit, bad geometry, ...)
    66  file I/O failure

Inline JSON arguments also accept @path to read the JSON from a file.

experiments, quang, position and seshadri are imported by the handlers of
the commands that run them, so a command loads only the modules it uses.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from functools import cache

from .errors import ArgumentError, ConfigRejectedError, SubgeneralError
from .jsonio import parse_rat, rat_str, stable_dumps_pretty
from .places import log_norm, parse_place, product_formula_residual
from .projective import LinearForm, LinearSubvariety, ProjPoint, projective_space
from .weil import (
    height,
    height_exact,
    height_scaled,
    local_weil,
    target_from_json,
    weil_batch,
)

EX_USAGE = 64
EX_DOMAIN = 65
EX_IO = 66


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # widen the stock matcher so "norm -35/4" parses as a positional
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")

    def error(self, message):
        raise _UsageError("%s\n%s" % (message, self.format_usage()))


def _doc_arg(option: str, text: str, parse):
    """parse() of the JSON given to option, inline or @path.  A document of
    the wrong shape is a usage error naming the option; an ArgumentError
    from parse stays a domain error."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    data = json.loads(text)
    try:
        return parse(data)
    except SubgeneralError:
        raise
    except (KeyError, TypeError, IndexError, AttributeError, ValueError) as exc:
        raise _UsageError(
            "%s: malformed document (%s: %s)" % (option, type(exc).__name__, exc)
        ) from exc


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _variety_arg(args, default_ambient: int) -> LinearSubvariety:
    if getattr(args, "x", None):
        return _doc_arg("--x", args.x, LinearSubvariety.from_json)
    return projective_space(default_ambient)


def _forms_from_json(data) -> list[LinearForm]:
    if not isinstance(data, list):
        raise _UsageError("--forms takes a JSON list of coefficient lists")
    return [LinearForm.from_json(f) for f in data]


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_norm(args) -> int:
    x = parse_rat(args.value)
    if args.ledger:
        out = product_formula_residual(x).to_json_dict()
    else:
        if not args.place:
            raise _UsageError("norm needs --place (or --ledger)")
        v = parse_place(args.place)
        ln = log_norm(x, v)
        out = {
            "x": rat_str(x),
            "place": str(v),
            "value": ln.approx,
            "exact": list(ln.exact) if ln.exact else None,
        }
    _emit(stable_dumps_pretty(out), args.out)
    return 0


def _cmd_height(args) -> int:
    pt = ProjPoint.parse(args.point)
    out = {
        "point": str(pt),
        "height": height(pt),
        "height_exact": str(height_exact(pt)),
    }
    if args.degree:
        d = parse_rat(args.degree)
        out["degree"] = rat_str(d)
        out["height_scaled"] = height_scaled(pt, d)
    _emit(stable_dumps_pretty(out), args.out)
    return 0


def _cmd_weil(args) -> int:
    if args.manifest:
        rows = _doc_arg("--manifest", args.manifest, weil_batch)
        if args.format == "csv":
            lines = ["point,target,place,value,exact"]
            for r in rows:
                lines.append(
                    "%s,%s,%s,%s,%s"
                    % (
                        r["point"],
                        '"%s"' % r["target"].replace('"', '""'),
                        r["place"],
                        "" if r["value"] is None else repr(r["value"]),
                        r["exact"],
                    )
                )
            _emit("\n".join(lines), args.out)
        else:
            _emit(stable_dumps_pretty(rows), args.out)
        return 0
    if args.linear:
        target = LinearForm.parse(args.linear)
    elif args.target:
        target = _doc_arg("--target", args.target, target_from_json)
    else:
        raise _UsageError("weil needs --linear, --target, or --manifest")
    pt = ProjPoint.parse(args.point)
    v = parse_place(args.place)
    w = local_weil(pt, target, v, args.mode)
    _emit(stable_dumps_pretty(w.to_json_dict()), args.out)
    return 0


def _cmd_position_check(args) -> int:
    from .position import check_subgeneral

    forms = _doc_arg("--forms", args.forms, _forms_from_json)
    variety = _variety_arg(args, forms[0].dim if forms else 1)
    report = check_subgeneral(forms, variety, args.l, verdict_only=args.verdict_only)
    _emit(report.to_json(), args.out)
    return 0


def _cmd_quang_combine(args) -> int:
    from .quang import quang_combine

    forms = _doc_arg("--forms", args.forms, _forms_from_json)
    variety = _variety_arg(args, forms[0].dim if forms else 1)
    places = tuple(parse_place(s) for s in args.places.split(","))
    cert = quang_combine(forms, variety, constant_places=places)
    _emit(cert.to_json(), args.out)
    return 0


def _cmd_seshadri(args) -> int:
    from .seshadri import seshadri_constant

    target = _doc_arg("--target", args.target, target_from_json)
    value = seshadri_constant(target)
    _emit(stable_dumps_pretty(value.to_json_dict()), args.out)
    return 0


def _cmd_chain_check(args) -> int:
    from .quang import CombinationCertificate, chain_check

    cert = _doc_arg("--cert", args.cert, CombinationCertificate.from_json_dict)
    if not cert.verify_soundness():
        raise ArgumentError("--cert: the certificate fails its replay")
    pt = ProjPoint.parse(args.point)
    v = parse_place(args.place)
    rec = chain_check(pt, v, cert)
    _emit(stable_dumps_pretty(rec.to_json_dict()), args.out)
    return 0


def _cmd_delta(args) -> int:
    from .experiments import delta_budget

    eps = parse_rat(args.epsilon)
    delta = delta_budget(args.l, args.n, eps)
    out = {
        "l": args.l,
        "n": args.n,
        "epsilon": rat_str(eps),
        "delta": rat_str(delta),
    }
    _emit(stable_dumps_pretty(out), args.out)
    return 0


def _cmd_experiment(args) -> int:
    from dataclasses import replace

    # the runner is looked up now, so a wrapper set on it in experiments runs
    from .experiments import (
        ExperimentConfig,
        run_evertse_ferretti_baseline,
        run_main_experiment,
    )

    runner = run_main_experiment if args.subcommand == "run" else run_evertse_ferretti_baseline
    config = _doc_arg("--config", args.config, ExperimentConfig.from_json_dict)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    try:
        report = runner(config)
    except ConfigRejectedError as exc:
        print("config rejected: %s" % exc, file=sys.stderr)
        return 2
    if args.format == "csv":
        buf = io.StringIO()
        report.write_csv(buf)
        _emit(buf.getvalue().rstrip("\n"), args.out)
    else:
        _emit(report.to_json(include_records=not args.no_records), args.out)
    if report.partial:
        print("warning: sample is partial", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# parser wiring


# built once per process: parse_args keeps nothing from one call to the
# next, and building the parser costs more than most commands
@cache
def build_parser() -> _Parser:
    parser = _Parser(
        prog="subgeneral",
        description="Exact local heights, position checks, and desk-scale "
        "experiments for hyperplane families in subgeneral position.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser(
        "norm",
        help="log-norm of a rational at one place, or its full product-formula ledger",
    )
    p.add_argument("value", help="rational, e.g. -9/20")
    p.add_argument("--place", help="inf or p=<prime>")
    p.add_argument("--ledger", action="store_true", help="emit every nonzero place")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser(
        "height", help="absolute logarithmic height of a rational projective point"
    )
    p.add_argument("point", help='e.g. "[4,6,10]" or "[2:3:5]"')
    p.add_argument("--degree", help="also report the degree-d scaled height")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_height)

    p = sub.add_parser(
        "weil",
        help="local Weil value of a point against a hyperplane, divisor, or subscheme",
    )
    p.add_argument("--point", help='e.g. "[1:2]"')
    p.add_argument("--place", help="inf or p=<prime>")
    p.add_argument("--linear", help='hyperplane coefficients, e.g. "[1,0,-2]"')
    p.add_argument("--target", help="target JSON (or @file)")
    p.add_argument("--manifest", help="batch manifest JSON (or @file)")
    p.add_argument("--mode", choices=("lenient", "strict"), default="lenient")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_weil)

    p = sub.add_parser("position", help="position checks for hyperplane families")
    psub = p.add_subparsers(dest="subcommand", metavar="subcommand")
    pc = psub.add_parser(
        "check",
        help="verify l-subgeneral position on X by exact rank over every subfamily",
    )
    pc.add_argument("--forms", required=True, help="JSON list of coefficient lists (or @file)")
    pc.add_argument("--l", type=int, required=True, help="position level")
    pc.add_argument("--x", help="subvariety JSON (or @file); default ambient space")
    pc.add_argument("--verdict-only", action="store_true")
    pc.add_argument("--out")
    pc.set_defaults(func=_cmd_position_check)

    p = sub.add_parser(
        "quang", help="combination construction from subgeneral to general position"
    )
    qsub = p.add_subparsers(dest="subcommand", metavar="subcommand")
    qc = qsub.add_parser(
        "combine",
        help="build n+1 combinations in general position with a replayable certificate",
    )
    qc.add_argument("--forms", required=True, help="JSON list of coefficient lists (or @file)")
    qc.add_argument("--x", help="subvariety JSON (or @file); default ambient space")
    qc.add_argument("--places", default="inf", help="comma list for the constants")
    qc.add_argument("--out")
    qc.set_defaults(func=_cmd_quang_combine)

    p = sub.add_parser(
        "seshadri",
        help="exact Seshadri weight of a target against the hyperplane class",
    )
    p.add_argument("--target", required=True, help="target JSON (or @file)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_seshadri)

    p = sub.add_parser("chain", help="pointwise chain-inequality verification")
    csub = p.add_subparsers(dest="subcommand", metavar="subcommand")
    cc = csub.add_parser(
        "check",
        help="compare the local value sum against the combined-form bound, exactly",
    )
    cc.add_argument("--cert", required=True, help="certificate JSON (or @file)")
    cc.add_argument("--point", required=True)
    cc.add_argument("--place", required=True)
    cc.add_argument("--out")
    cc.set_defaults(func=_cmd_chain_check)

    p = sub.add_parser(
        "delta", help="largest dyadic slack satisfying the epsilon budget"
    )
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("experiment", help="sampled height-inequality experiments")
    esub = p.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, blurb in (
        ("run", "weighted local sums against the bound (l-n+1)(n+1)+epsilon"),
        ("baseline", "general-position sums against the bound n+1+epsilon"),
    ):
        ep = esub.add_parser(name, help=blurb)
        ep.add_argument("--config", required=True, help="config JSON (or @file)")
        ep.add_argument("--out")
        ep.add_argument("--format", choices=("json", "csv"), default="json")
        ep.add_argument("--seed", type=int)
        ep.add_argument(
            "--no-records", action="store_true", help="omit per-point records"
        )
        ep.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            raise _UsageError(parser.format_usage())
        return args.func(args)
    except _UsageError as exc:
        print(str(exc).rstrip(), file=sys.stderr)
        return EX_USAGE
    except json.JSONDecodeError as exc:
        print("JSON parse failure: %s" % exc, file=sys.stderr)
        return EX_USAGE
    except OSError as exc:
        print("I/O failure: %s" % exc, file=sys.stderr)
        return EX_IO
    except SubgeneralError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EX_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
