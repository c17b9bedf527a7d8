"""Closed-form Seshadri constants with respect to O(1) on P^M.

Only two classes have a shipped closed form, both exact rationals:

  * a degree-d hypersurface {F = 0}: epsilon = 1/d,
  * a linear subspace cut out by independent linear forms: epsilon = 1.

Anything else raises UnsupportedSubschemeError loudly; no numeric fallback
exists on purpose, because a silently wrong weight would poison every
weighted experiment downstream.
"""

from __future__ import annotations

from fractions import Fraction

from ._frozen import Frozen
from .errors import UnsupportedSubschemeError
from .jsonio import rat_str
from .linalg import rank_rows
from .projective import HomForm, LinearForm
from .weil import SubschemeSpec, Target


class SeshadriValue(Frozen):
    value: Fraction
    subject_class: str
    justification: str

    def to_json_dict(self) -> dict:
        return {
            "value": rat_str(self.value),
            "class": self.subject_class,
            "justification": self.justification,
        }


def seshadri_constant(target: Target) -> SeshadriValue:
    """Exact Seshadri constant for the supported subscheme classes."""
    if isinstance(target, LinearForm):
        return SeshadriValue(Fraction(1), "hypersurface(1)", "hyperplane: epsilon = 1")
    if isinstance(target, HomForm):
        return SeshadriValue(
            Fraction(1, target.degree),
            "hypersurface(%d)" % target.degree,
            "degree-d hypersurface: epsilon = 1/d",
        )
    if isinstance(target, SubschemeSpec):
        comps = target.components
        if all(isinstance(c, LinearForm) for c in comps):
            rows = [c.coeffs for c in comps]
            if rank_rows(rows) == len(rows):
                return SeshadriValue(
                    Fraction(1),
                    "linear-subspace(codim=%d)" % len(comps),
                    "independent linear cuts: epsilon = 1",
                )
            raise UnsupportedSubschemeError(
                "no closed form: linear components are dependent (%s)" % (target,)
            )
        if len(comps) == 1:
            return seshadri_constant(comps[0])
        raise UnsupportedSubschemeError(
            "no closed form for a mixed or nonlinear intersection (%s)" % (target,)
        )
    raise UnsupportedSubschemeError("no closed form for %r" % (target,))
