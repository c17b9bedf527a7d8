"""Exact arithmetic over the places of Q, local Weil values, subgeneral
position checks, and the combination construction that trades l-subgeneral
families for general-position ones, plus a deterministic experiment harness
for the associated height inequalities.

The package namespace is lazy: `import subgeneral` loads no module, and a
public name imports its defining module on first use (PEP 562).  A name is
looked up in that module on every access and never stored here, so
`subgeneral.X` is always the module's current X, a wrapper set there
included.  A submodule named as an attribute (`subgeneral.quang`) is
imported the same way.  The CLI likewise imports only the modules a command
runs, so `weil` and `norm` start without compiling experiments, quang,
position or seshadri (README, Install, gives the start-up this saves).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_LAZY = {
    "ArgumentError": "errors",
    "ConfigRejectedError": "errors",
    "DomainError": "errors",
    "PositionError": "errors",
    "SubgeneralError": "errors",
    "SupportError": "errors",
    "UnsupportedSubschemeError": "errors",
    "Candidate": "experiments",
    "DefectReport": "experiments",
    "ExperimentConfig": "experiments",
    "candidate_targets": "experiments",
    "delta_budget": "experiments",
    "exceptional_scan": "experiments",
    "run_evertse_ferretti_baseline": "experiments",
    "run_main_experiment": "experiments",
    "INF": "places",
    "LogNorm": "places",
    "Place": "places",
    "ProductFormulaLedger": "places",
    "factor_int": "places",
    "log_norm": "places",
    "parse_place": "places",
    "product_formula_residual": "places",
    "ulp_distance": "places",
    "valuation": "places",
    "PositionReport": "position",
    "Witness": "position",
    "check_general": "position",
    "check_subgeneral": "position",
    "violations_at": "position",
    "HomForm": "projective",
    "LinearForm": "projective",
    "LinearSubvariety": "projective",
    "ProjPoint": "projective",
    "VeroneseLinearization": "projective",
    "monomials": "projective",
    "projective_space": "projective",
    "veronese_form": "projective",
    "veronese_point": "projective",
    "ChainCheckRecord": "quang",
    "CombinationCertificate": "quang",
    "Ordering": "quang",
    "chain_check": "quang",
    "chain_check_column": "quang",
    "quang_combine": "quang",
    "reorder_by_local_norm": "quang",
    "SampleResult": "sampling",
    "sample_points": "sampling",
    "SeshadriValue": "seshadri",
    "seshadri_constant": "seshadri",
    "SubschemeSpec": "weil",
    "WeilValue": "weil",
    "height": "weil",
    "height_exact": "weil",
    "height_scaled": "weil",
    "local_weil": "weil",
    "target_from_json": "weil",
    "target_to_json": "weil",
    "weil_batch": "weil",
    "weil_divisor": "weil",
    "weil_hyperplane": "weil",
    "weil_subscheme": "weil",
}

__all__ = sorted(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is not None:
        # the import system binds each loaded submodule here, and reading
        # that binding is much cheaper than a call to import_module
        loaded = globals().get(module) or _import_module("." + module, __name__)
        return getattr(loaded, name)
    if not name.startswith("_"):
        try:
            return _import_module("." + name, __name__)
        except ModuleNotFoundError as exc:
            if exc.name != "%s.%s" % (__name__, name):
                raise
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
