"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written on different lines than the package
code: rank comes from Gauss-Jordan over Fractions (or plain integer
cross-multiplication for the bulk runs) instead of fraction-free elimination
with gcd trimming, position verdicts come from a raw subset sweep, and
factorization and primality are delegated to sympy.  The witness reference
is the subset loop the position sweep replaced, one fresh rank per subset; the
nullspace reference is the RREF-over-Fractions basis.  The avoidance
reference keeps the rank-based membership test the combination
construction used to run, on the Gauss-Jordan rank over Fractions above:
two fresh eliminations per candidate, after an explicit intersection of
the span with the excluded rowspace through RREF kernels, so it reads no
elimination of the package.  The construction reference runs the whole
candidate enumeration through it, round by round, as the construction did
before it became an echelon walk, and the chain-check reference is the
check as it ran on Fractions.  The local Weil reference takes the
max-norm definition at face value, over Fractions, with no normalization
assumed.  The row reference is the one-point kernel the column kernel
replaced: one target at one point, each place in turn.  The sampler
reference is the point-by-point sampler the candidate streams replaced: a
loop per geometry, each point tested against each support on its own.  The
form reference is the per-point monomial loop that the forms' column rules
replaced, and the linear column reference the chain of maps, one per
nonzero coefficient, that linear_column ran before it wrote out two and
three terms.  The pair reference is the s-major generator of the sweep's
coprime pairs, one pair at a time, that the sampler's runs of pairs
replaced.  The parse reference reads every number through Fraction, as the
parse edge did before integral text became an int; the draw reference is
the random-draw stream with its nested loop over the basis rows.  The scan
reference is the exceptional scan as it tested span membership by hand, one
short-circuiting row of dot products per violator; the marks reference is
the support-mark decode that the sampler and _raise_hit each wrote out
before they shared one.  The vanishing reference expands a form
over X's RREF kernel basis with sympy, where the position gate evaluates it
at the lattice points of a simplex.  The violator reference decides every
verdict from the local Weil reference's ratios raised to integer powers,
where a report compares floats and decides only its tie band exactly.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, compress, product
from math import gcd, log
from operator import add, mul

import sympy
from sympy.ntheory.primetest import is_strong_bpsw_prp, is_strong_lucas_prp

from subgeneral import sampling
from subgeneral.errors import ArgumentError, SupportError
from subgeneral.jsonio import json_int
from subgeneral.experiments import Candidate
from subgeneral.sampling import (
    SampleResult,
    _int_window,
    _line_param_bound,
)
from subgeneral.jsonio import rat_str
from subgeneral.linalg import nullspace, primitive
from subgeneral.places import INF, _ord_p
from subgeneral.position import check_general
from subgeneral.projective import HomForm, LinearForm, ProjPoint, point_from_canonical
from subgeneral.quang import (
    ChainCheckRecord,
    CombinationCertificate,
    quang_combine_cached,
)
from subgeneral.seshadri import seshadri_constant
from subgeneral.weil import SubschemeSpec

from gen import is_on_support


def rank_fraction_gauss(rows) -> int:
    """Rank over Q by Gauss-Jordan with partial pivoting on magnitude."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv, best = None, Fraction(0)
        for r in range(rank, len(mat)):
            if abs(mat[r][col]) > best:
                piv, best = r, abs(mat[r][col])
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def rank_int_crossmul(rows) -> int:
    """Integer-only rank by plain cross-multiplication, no gcd trimming.

    Entry growth is irrelevant at the 6x4 sizes the position sweep uses.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0 and (piv is None or abs(mat[r][col]) < abs(mat[piv][col])):
                piv = r
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            rv = mat[r][col]
            if rv:
                mat[r] = [pv * a - rv * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def position_verdicts(coeff_rows, ambient_dim: int, levels) -> dict:
    """Brute-force l-subgeneral verdicts on P^M for a list of levels.

    Enumerates every nonempty subfamily once, takes its rank by
    cross-multiplication, and reads all requested verdicts off the
    per-size worst intersection dimension.
    """
    q = len(coeff_rows)
    worst = {}
    for size in range(1, q + 1):
        w = -ambient_dim - 2
        for subset in combinations(range(q), size):
            dim = ambient_dim - rank_int_crossmul([coeff_rows[j] for j in subset])
            if dim > w:
                w = dim
        worst[size] = w
    out = {}
    for level in levels:
        out[level] = all(
            worst[s] <= level - s for s in range(1, min(level + 1, q) + 1)
        )
    return out


def subgeneral_bruteforce(forms, variety, level: int) -> bool:
    """Direct restatement of the position definition, over Fractions."""
    base = [list(f.coeffs) for f in variety.forms]
    rows = [list(f.coeffs) for f in forms]
    for size in range(1, min(level + 1, len(rows)) + 1):
        for subset in combinations(range(len(rows)), size):
            stacked = base + [rows[j] for j in subset]
            dim = variety.ambient_dim - rank_fraction_gauss(stacked)
            if dim > level - size:
                return False
    return True


def witnesses_by_rank(forms, variety, level: int, verdict_only: bool = False):
    """(witnesses as (1-based subset, dim, allowed), complete) from one
    cross-multiplication rank of X's rows plus the subset's rows per subset,
    smallest subsets first, then lexicographically."""
    base = [list(f.coeffs) for f in variety.forms]
    rows = [list(f.coeffs) for f in forms]
    out = []
    for size in range(1, min(level + 1, len(rows)) + 1):
        allowed = level - size
        for subset in combinations(range(len(rows)), size):
            stacked = base + [rows[j] for j in subset]
            dim = variety.ambient_dim - rank_int_crossmul(stacked)
            if dim > allowed:
                out.append((tuple(j + 1 for j in subset), dim, allowed))
                if verdict_only:
                    return out, False
    return out, True


def nullspace_by_rref(rows, ncols: int):
    """Primitive kernel basis, one vector per free column of the RREF over
    Fractions: x_free = 1, x_pivot = -(RREF entry), then coprime integers
    with the first nonzero entry positive."""
    mat = [[Fraction(x) for x in row] for row in rows if any(row)]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                mat[i] = [a - mat[i][col] * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        den = 1
        for x in vec:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in vec]
        g = 0
        for x in ints:
            g = gcd(g, x)
        ints = [x // g for x in ints]
        if next(x for x in ints if x) < 0:
            ints = [-x for x in ints]
        basis.append(tuple(ints))
    return basis


def vanishes_on_by_expansion(target, variety, mode: str = "lenient") -> bool:
    """Whether every point of X lies on the target's support: the form, or
    every component of a subscheme (any one in strict mode), vanishes on X.
    The coordinates become t . (RREF kernel basis of X's forms) and sympy
    expands each form in the t."""
    forms = target.components if isinstance(target, SubschemeSpec) else (target,)
    ncols = variety.ambient_dim + 1
    basis = nullspace_by_rref([f.coeffs for f in variety.forms], ncols)
    t = sympy.symbols("t0:%d" % len(basis))
    xs = [sum(tj * b[k] for tj, b in zip(t, basis)) for k in range(ncols)]
    zero = []
    for f in forms:
        if isinstance(f, LinearForm):
            poly = sum(a * x for a, x in zip(f.coeffs, xs))
        else:
            poly = sum(c * sympy.prod([x**e for x, e in zip(xs, exps)]) for exps, c in f.terms())
        zero.append(sympy.expand(poly) == 0)
    return any(zero) if mode == "strict" else all(zero)


def factor_reference(n: int) -> dict:
    return {int(p): int(e) for p, e in sympy.factorint(n).items()}


def prime_reference(n: int) -> bool:
    return bool(sympy.isprime(n))


def next_prime_reference(n: int) -> int:
    return int(sympy.nextprime(n))


def strong_lucas_reference(n: int) -> bool:
    return bool(is_strong_lucas_prp(n))


def prime_flags_by_sieve(bound: int) -> bytearray:
    """flags[n] == 1 exactly when n < bound is prime (Eratosthenes)."""
    flags = bytearray([1]) * bound
    flags[:2] = b"\0\0"[:bound]
    for p in range(2, math.isqrt(bound - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return flags


def bpsw_reference(n: int) -> bool:
    """Strong BPSW, which shares no Miller-Rabin witness set with the
    package's ladder below 2^64 (sympy.isprime does)."""
    return n > 1 and bool(is_strong_bpsw_prp(n))


def _in_span_by_rank(vec, rows) -> bool:
    """vec lies in rowspace(rows): appending it leaves the rank over Q as is."""
    return rank_fraction_gauss(list(rows) + [vec]) == rank_fraction_gauss(rows)


def avoiding_by_rank(span_rows, excluded_rowsets, max_coeff: int = 32):
    """First (coeffs, combination) in the construction's candidate order
    whose combination is nonzero and in no excluded rowspace, by rank over Q.

    The order: increasing max |coefficient| m, and within one m the
    coefficient vectors read right to left through 0, 1, -1, ..., m, -m.
    Raises RuntimeError when no candidate up to max_coeff qualifies.
    """
    k = len(span_rows)
    ncols = len(span_rows[0])
    for m in range(1, max_coeff + 1):
        alphabet = [0] + [s * j for j in range(1, m + 1) for s in (1, -1)]
        for rev in product(alphabet, repeat=k):
            if max(abs(c) for c in rev) != m:
                continue
            coeffs = rev[::-1]
            vec = [
                sum(c * row[i] for c, row in zip(coeffs, span_rows))
                for i in range(ncols)
            ]
            if any(vec) and not any(_in_span_by_rank(vec, ex) for ex in excluded_rowsets):
                return coeffs, vec
    raise RuntimeError("no avoiding candidate")


def _intersection_by_rref(rows_a, rows_b, ncols: int):
    """Nonzero vectors spanning rowspace(A) meet rowspace(B): rowspace(B) is
    the common kernel of its annihilator K = nullspace_by_rref(B), so u.A
    lies in it exactly when u is in the kernel of the products (A K^T)^T."""
    annihilator = nullspace_by_rref(rows_b, ncols)
    products = [[sum(map(mul, a, k)) for a in rows_a] for k in annihilator]
    span = [
        [sum(c * a[i] for c, a in zip(u, rows_a)) for i in range(ncols)]
        for u in nullspace_by_rref(products, len(rows_a))
    ]
    return [v for v in span if any(v)]


def quang_step_by_intersection(span_rows, excluded_rowsets):
    """One construction round as it used to run: intersect the span with each
    excluded rowspace first, then avoid the intersections by rank."""
    ncols = len(span_rows[0])
    forbidden = [_intersection_by_rref(span_rows, ex, ncols) for ex in excluded_rowsets]
    return avoiding_by_rank(span_rows, [f for f in forbidden if f])


def quang_combine_by_enumeration(forms, variety, constant_places=(INF,)):
    """The combination construction as it ran before the echelon walk: each
    round enumerates candidates (quang_step_by_intersection) against
    rowspace(X's forms, L'_1..L'_{t-1}), keeps the primitive combination,
    and records its coefficients as Fractions scaled to that output.  The
    constants are read entry by entry from the local norms
    (_rows_constant_by_norms).
    Takes a family the caller knows to be l-subgeneral on X."""
    forms = list(forms)
    l = len(forms) - 1
    n = variety.dim
    outputs = [forms[0]]
    rows = [tuple([Fraction(1)] + [Fraction(0)] * l)]
    gamma_stack = [list(f.coeffs) for f in variety.forms] + [list(forms[0].coeffs)]
    for t in range(2, n + 2):
        hi = l - n + t
        span_rows = [list(f.coeffs) for f in forms[1:hi]]
        coeffs, vec = quang_step_by_intersection(span_rows, [gamma_stack])
        prim = primitive(vec)
        lead = next(i for i, v in enumerate(prim) if v)
        scale = Fraction(prim[lead], vec[lead])
        row = [Fraction(0)] * (l + 1)
        for j, c in enumerate(coeffs):
            row[1 + j] = c * scale
        out = LinearForm(prim)
        outputs.append(out)
        rows.append(tuple(row))
        gamma_stack.append(list(out.coeffs))
    constants = [(str(v), rat_str(_rows_constant_by_norms(rows[1:], v))) for v in constant_places]
    return CombinationCertificate(
        variety=variety,
        inputs=tuple(forms),
        outputs=tuple(outputs),
        matrix=tuple(rows),
        position=check_general(outputs, variety),
        constants=tuple(sorted(constants)),
    )


def _rows_constant_by_norms(rows, place) -> Fraction:
    """C_v of combination rows, read entry by entry from the local norms
    (_norm_at): max over rows of (#nonzero entries) * max_j |c_tj| at inf,
    of max_j ||c_tj||_p at p."""
    p = None if place.is_archimedean else place.p
    c = Fraction(0)
    for row in rows:
        nz = [x for x in row if x]
        if p is None:
            c = max(c, len(nz) * max(abs(x) for x in nz))
        else:
            c = max([c] + [_norm_at(x, p) for x in nz])
    return c


def chain_check_by_fractions(point, place, certificate):
    """The chain check as it ran before integer cross-multiplication: each
    form evaluated with its own dimension check, the certificate rebuilt on
    the re-sorted family, and at inf every norm product, K_v and the ratio
    built as a Fraction and compared as one."""
    forms = certificate.inputs
    variety = certificate.variety
    l = len(forms) - 1
    n = variety.dim
    in_vals, keys = [], []
    for i, f in enumerate(forms):
        val = f.evaluate(point)
        if val == 0:
            raise SupportError(
                "point %s lies on form %d (%s)" % (point, i + 1, f),
                point=str(point),
                subject=str(f),
                component=i + 1,
            )
        in_vals.append(val)
        keys.append(abs(val) if place.is_archimedean else -_ord_p(val, place.p))
    perm = tuple(i + 1 for _, i in sorted(zip(keys, range(len(keys)))))
    cert = quang_combine_cached(tuple(forms[i - 1] for i in perm), variety)
    c_v = _rows_constant_by_norms(cert.matrix[1:], place)
    out_vals = []
    for f in cert.outputs:
        v = f.evaluate(point)
        if v == 0:
            raise SupportError(
                "point %s lies on combination %s" % (point, f),
                point=str(point),
                subject=str(f),
            )
        out_vals.append(v)
    if place.is_archimedean:
        big_b = max(f._max_coeff for f in forms)
        gamma = Fraction(variety.ambient_dim + 1) ** (n * (l - n))
        k_q = c_v**n * Fraction(big_b) ** l * gamma
        k_f = math.log(k_q.numerator) - math.log(k_q.denominator)
        maxx = max(abs(c) for c in point.coords)
        lhs_q = Fraction(
            math.prod(maxx * f._max_coeff for f in forms), abs(math.prod(in_vals))
        )
        prod_hat = Fraction(
            math.prod(maxx * f._max_coeff for f in cert.outputs),
            abs(math.prod(out_vals)),
        )
        rhs_q = prod_hat ** (l - n + 1) * k_q
        lhs = math.log(lhs_q.numerator) - math.log(lhs_q.denominator)
        rhs = math.log(rhs_q.numerator) - math.log(rhs_q.denominator)
        passed = lhs_q <= rhs_q
        ratio = rhs_q / lhs_q
        slack = math.log(ratio.numerator) - math.log(ratio.denominator)
    else:
        p = place.p
        logp = math.log(p)
        k_e = n * (_ord_p(c_v.numerator, p) - _ord_p(c_v.denominator, p))
        k_f = k_e * logp
        lhs_e = -sum(keys)
        hat_e = sum(_ord_p(v, p) for v in out_vals)
        rhs_e = (l - n + 1) * hat_e + k_e
        lhs, rhs = lhs_e * logp, rhs_e * logp
        passed = lhs_e <= rhs_e
        slack = (rhs_e - lhs_e) * logp
    return ChainCheckRecord(
        point=str(point),
        place=place,
        perm=perm,
        lhs=lhs,
        rhs=rhs,
        constant_k=k_f,
        chain_c=rat_str(c_v),
        slack=slack,
        passed=passed,
    )


def _norm_at(r: Fraction, p) -> Fraction:
    """|r|_v: the absolute value at v = inf (p None), else p^(-ord_p(r))."""
    if p is None or r == 0:
        return abs(r)
    out = Fraction(1)
    num, den = r.numerator, r.denominator
    while num % p == 0:
        num //= p
        out /= p
    while den % p == 0:
        den //= p
        out *= p
    return out


def weil_ratio_reference(point, target, place):
    """The rational q with lambda_{target,v}(P) = log q, by the definition

        q = ||x||_v^d * ||F||_v / |F(x)|_v,

    the max-norms taken over the coordinates and the coefficients as given.
    A subscheme (anything with .components) takes the least q over the
    components that do not vanish at P; None when every component does."""
    p = place.p
    x = [Fraction(c) for c in point.coords]
    best = None
    for comp in getattr(target, "components", (target,)):
        if comp.degree == 1:
            n = len(comp.coeffs)
            units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
            terms = list(zip(units, comp.coeffs))
        else:
            terms = comp.terms()
        value = Fraction(0)
        for exps, c in terms:
            term = Fraction(c)
            for xi, e in zip(x, exps):
                term *= xi**e
            value += term
        if value == 0:
            continue
        q = (
            max(_norm_at(xi, p) for xi in x) ** comp.degree
            * max(_norm_at(Fraction(c), p) for _, c in terms)
            / _norm_at(value, p)
        )
        if best is None or q < best:
            best = q
    return best


def violator_by_fractions(point, arrangements, bound: Fraction) -> bool:
    """Whether the weighted defect sum_j eps_j * log q_j exceeds bound * h(P),
    with q_j = weil_ratio_reference at each (target, place) of the
    arrangements and eps_j the target's Seshadri weight (the package's
    closed forms, pinned by test_seshadri).  With D a common denominator of
    the weights and the bound the test reads prod q_j^(D*eps_j) > H^(D*bound),
    H = max|x_i|, on integers: numerators and denominators multiplied apart."""
    terms = [
        (weil_ratio_reference(point, t, v), Fraction(seshadri_constant(t).value))
        for v, targets in arrangements
        for t in targets
    ]
    den = math.lcm(bound.denominator, *(w.denominator for _, w in terms))
    num_prod = den_prod = 1
    for q, w in terms:
        e = int(w * den)
        num_prod *= q.numerator**e
        den_prod *= q.denominator**e
    return num_prod > max(map(abs, point.coords)) ** int(bound * den) * den_prod


def form_value_by_point(terms, coords) -> int:
    """sum c * x^e over (exponents, coefficient) terms at one point, one
    monomial at a time."""
    total = 0
    for exps, c in terms:
        term = c
        for xi, e in zip(coords, exps):
            if e:
                term *= xi**e
        total += term
    return total


def ledger_by_row(point, target, mode, places):
    """(exacts, values, dropped) of one target at one point, one entry per
    place, by the row kernel: evaluate the components, drop the vanishing
    ones under the lenient/strict rule (raising SupportError as the package
    does), then per place the least exact value over the live components
    and its float, e*log(p) or log(num) - log(den)."""
    comps = target.components if isinstance(target, SubschemeSpec) else (target,)
    vals = [(c, c.evaluate(point)) for c in comps]
    zero_idx = tuple(i + 1 for i, (_, v) in enumerate(vals) if v == 0)
    if not isinstance(target, SubschemeSpec):
        if zero_idx:
            raise SupportError(
                "point %s lies on the support of %s" % (point, target),
                point=str(point),
                subject=str(target),
            )
    elif len(zero_idx) == len(vals):
        raise SupportError(
            "point %s lies on the subscheme %s" % (point, target),
            point=str(point),
            subject=str(target),
        )
    elif mode == "strict" and zero_idx:
        raise SupportError(
            "point %s lies on component %d of %s (strict mode)"
            % (point, zero_idx[0], target),
            point=str(point),
            subject=str(target),
            component=zero_idx[0],
        )
    live = [cv for cv in vals if cv[1]]
    maxx = max(map(abs, point.coords))
    exacts, values = [], []
    for place in places:
        p = place.p
        if p is not None:
            e = None
            for _, v in live:
                k = _ord_p(v, p) if v % p == 0 else 0
                if e is None or k < e:
                    e = k
            exacts.append(e)
            values.append(e * log(p) if e else 0.0)
            continue
        num = den = 0
        for comp, v in live:
            n, d = maxx**comp.degree * comp._max_coeff, abs(v)
            if not den or n * den < num * d:
                num, den = n, d
        g = gcd(num, den)
        num, den = num // g, den // g
        exacts.append((num, den))
        values.append(log(num) - log(den))
    return exacts, values, zero_idx


def _exclusion_test(excluded, mode: str):
    """Fast membership test for a list of excluded supports."""
    distinct = dict.fromkeys(excluded)
    lin = [t.coeffs for t in distinct if isinstance(t, LinearForm)]
    rest = [t for t in distinct if not isinstance(t, LinearForm)]

    def on_excluded(pt: ProjPoint) -> bool:
        coords = pt.coords
        for cf in lin:
            if not sum(map(mul, cf, coords)):
                return True
        return bool(rest) and any(is_on_support(pt, t, mode) for t in rest)

    return on_excluded


def int_window_by_steps(h_min: float, h_max: float) -> tuple[int, int]:
    """The height window's ends as they were found before bisection: each
    end started at exp(h) and stepped one integer at a time while the float
    log stayed on its side of the bound.  Above h ~ 36 the steps number
    about e^h * ulp(h), so it serves windows of small h only."""
    hi = max(int(math.exp(h_max)), 0)
    while hi >= 1 and math.log(hi) > h_max:
        hi -= 1
    while math.log(hi + 1) <= h_max:
        hi += 1
    lo = max(int(math.ceil(math.exp(h_min))), 1)
    while lo > 1 and math.log(lo - 1) >= h_min:
        lo -= 1
    while math.log(lo) < h_min:
        lo += 1
    return lo, hi


def sample_of_points(points, partial: bool, attempts: int, columns=None) -> SampleResult:
    """The SampleResult of given points, built as the sampler builds one:
    from their canonical coordinate tuples and max|x_i|."""
    coords = [pt.coords for pt in points]
    return SampleResult(coords, [max(map(abs, x)) for x in coords], partial, attempts, columns)


def coprime_pairs_by_loop(m: int):
    """Canonical coprime pairs (s, t) with max(|s|, |t|) == m, s-major order,
    one at a time."""
    if m == 1:
        yield (0, 1)
    for s in range(1, m + 1):
        if s < m:
            if gcd(s, m) == 1:
                yield (s, -m)
                yield (s, m)
        else:
            for t in range(-m, m + 1):
                if gcd(m, abs(t)) == 1:
                    yield (s, t)


def linear_column_by_maps(coeffs, xs) -> list:
    """sum_k coeffs[k] * xs[k] at every index: one chained map per nonzero
    coefficient, and a column of 0 when there is none."""
    terms = [map(a.__mul__, x) for a, x in zip(coeffs, xs) if a]
    if not terms:
        return [0] * len(xs[0])
    total = terms[0]
    for term in terms[1:]:
        total = map(add, total, term)
    return list(total)


def sample_points_by_point(
    variety,
    h_min: float,
    h_max: float,
    count,
    seed: int,
    excluded=(),
    mode: str = "lenient",
) -> SampleResult:
    """The sampler one point at a time: a P^1 loop, a line loop and a
    random-draw loop, each testing every candidate against every support.
    The attempt budget is read from the package, so a test that patches
    it there patches it here."""
    if count == 0:
        return sample_of_points((), False, 0)
    lo, hi = _int_window(h_min, h_max)
    if hi < 1 or lo > hi:
        return sample_of_points((), False, 0)
    on_excluded = _exclusion_test(excluded, mode)

    if variety.dim == 1:
        basis = variety.kernel_basis()
        # on P^1 itself the parameters are the coordinates
        if variety.ambient_dim == 1:
            m_lo, m_hi = lo, hi
        else:
            # |s*b1_i + t*b2_i| <= m*C with C = max_i(|b1_i| + |b2_i|), so a
            # parameter m with m*C < lo cannot reach the window
            c = max(abs(x) + abs(y) for x, y in zip(*basis))
            m_lo, m_hi = max(1, -(-lo // c)), _line_param_bound(basis, hi)
        # the sweep makes 4*sum(phi(m)) attempts for m_lo <= m <= m_hi, about
        # (12/pi^2) * (m_hi^2 - (m_lo-1)^2); compared in pi^2 units, which a
        # huge int does not overflow
        sweep = 12 * (m_hi**2 - (m_lo - 1) ** 2)
        if count is None and sweep > sampling._SWEEP_BUDGET * math.pi**2:
            raise ArgumentError(
                "exhaustive window up to parameter %d needs more than %d sampler "
                "attempts; narrow the height window or set sample_count"
                % (m_hi, sampling._SWEEP_BUDGET)
            )
        # a count-limited sweep is never refused, so it stops at the budget
        cap = None if count is None else sampling._SWEEP_BUDGET
        out = []
        attempts = 0
        if variety.ambient_dim == 1:
            for m in range(m_lo, m_hi + 1):
                for s, t in coprime_pairs_by_loop(m):
                    if attempts == cap:
                        return sample_of_points(tuple(out), True, attempts)
                    attempts += 1
                    pt = point_from_canonical((s, t))
                    if not on_excluded(pt):
                        out.append(pt)
                        if count is not None and len(out) == count:
                            return sample_of_points(tuple(out), False, attempts)
        else:
            b1, b2 = basis
            ncols = len(b1)
            for m in range(m_lo, m_hi + 1):
                for s, t in coprime_pairs_by_loop(m):
                    if attempts == cap:
                        return sample_of_points(tuple(out), True, attempts)
                    attempts += 1
                    # b1, b2 are independent and (s, t) != 0, so vec != 0
                    vec = tuple(s * b1[i] + t * b2[i] for i in range(ncols))
                    pt = ProjPoint(vec)
                    mx = max(abs(c) for c in pt.coords)
                    if lo <= mx <= hi and not on_excluded(pt):
                        out.append(pt)
                        if count is not None and len(out) == count:
                            return sample_of_points(tuple(out), False, attempts)
        return sample_of_points(
            tuple(out), count is not None and len(out) < count, attempts
        )

    if count is None:
        raise ArgumentError("exhaustive sampling is only available when dim X == 1")
    rng = random.Random(seed)
    basis = variety.kernel_basis()
    ncols = variety.ambient_dim + 1
    seen = set()
    out = []
    attempts = 0
    max_attempts = min(200 * count + 1000, sampling._SWEEP_BUDGET)
    while len(out) < count and attempts < max_attempts:
        attempts += 1
        u = [rng.randint(-hi, hi) for _ in basis]
        vec = [0] * ncols
        for uk, b in zip(u, basis):
            if uk:
                for i in range(ncols):
                    vec[i] += uk * b[i]
        if not any(vec):
            continue
        coords = primitive(vec)
        if coords in seen:
            continue
        mx = max(abs(c) for c in coords)
        if mx < lo or mx > hi:
            continue
        pt = point_from_canonical(coords)
        if not on_excluded(pt):
            seen.add(coords)
            out.append(pt)
    return sample_of_points(tuple(out), len(out) < count, attempts)


def parse_rat_by_fraction(s) -> Fraction:
    """A number's text read by Fraction, whatever its value."""
    try:
        return Fraction(str(s).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ArgumentError("not a rational: %r" % (s,)) from exc


def target_by_fraction(data):
    """A JSON Weil target with every coefficient read by Fraction: a bare
    coefficient list, or a linear, form or subscheme object."""
    if isinstance(data, list):
        return LinearForm(tuple(parse_rat_by_fraction(c) for c in data))
    kind = data["type"]
    if kind == "linear":
        return LinearForm(tuple(parse_rat_by_fraction(c) for c in data["coeffs"]))
    if kind == "form":
        terms = {
            tuple(json_int(x, "exponent") for x in e): parse_rat_by_fraction(c)
            for e, c in data["terms"]
        }
        return HomForm.from_terms(data["dim"], data["degree"], terms)
    comps = tuple(target_by_fraction(c) for c in data["components"])
    return SubschemeSpec(comps, str(data.get("label", "")))


def draw_stream_by_loop(variety, lo: int, hi: int, seed: int):
    """The random-draw candidates, vec built by a loop over the basis rows
    and their coordinates."""
    rng = random.Random(seed)
    basis = variety.kernel_basis()
    ncols = variety.ambient_dim + 1
    seen = set()
    while True:
        u = [rng.randint(-hi, hi) for _ in basis]
        vec = [0] * ncols
        for uk, b in zip(u, basis):
            if uk:
                for i in range(ncols):
                    vec[i] += uk * b[i]
        coords = primitive(vec) if any(vec) else None
        if coords is None or coords in seen or not lo <= max(map(abs, coords)) <= hi:
            yield None
        else:
            seen.add(coords)
            yield coords


def exceptional_scan_by_hand(
    violators,
    variety,
    fraction: Fraction = Fraction(1, 20),
    max_candidates: int = 10,
):
    """Greedy cover of the violators by small linear spans.

    Spans are fitted through evenly spaced seed subsets with an exact
    integer kernel (a reported span of dimension k really is k-dimensional,
    and a violator is a member when every kernel form vanishes on it),
    qualify when they hold at least `fraction` of all violators, and are then
    picked greedily by uncovered gain, ties to smaller dimension, then
    canonical label order.
    """
    pts = sorted({str(p): p for p in violators}.items())
    total = len(pts)
    if total == 0:
        return []
    labels = [s for s, _ in pts]
    coords = [list(p.coords) for _, p in pts]
    max_dim = variety.dim - 1
    nseeds = min(total, 48)
    if nseeds == total:
        seeds = list(range(total))
    else:
        seeds = sorted({round(i * (total - 1) / (nseeds - 1)) for i in range(nseeds)})
    ncols = variety.ambient_dim + 1
    pool = {}
    for k in range(0, max_dim + 1):
        for subset in combinations(seeds, k + 1):
            forms = nullspace([coords[i] for i in subset], ncols)
            if len(forms) != ncols - (k + 1):
                continue  # dependent seeds
            # the span of the seeds is the annihilator of this kernel basis,
            # so membership is a row of integer dot products, all zero
            members = tuple(
                i
                for i in range(total)
                if not any(sum(map(mul, f, coords[i])) for f in forms)
            )
            if Fraction(len(members), total) < fraction:
                continue
            # k ascends, so the first span found for a key is a least one
            key = tuple(labels[i] for i in members)
            pool.setdefault(key, (k, subset, members, forms))
    chosen = []
    covered: set[int] = set()
    entries = sorted(pool.items())
    while entries and len(chosen) < max_candidates and len(covered) < total:
        best = None
        for key, (k, subset, members, forms) in entries:
            gain = sum(1 for i in members if i not in covered)
            rank_key = (-gain, k, key)
            if gain > 0 and (best is None or rank_key < best[0]):
                best = (rank_key, key, k, subset, members, forms)
        if best is None:
            break
        _, key, k, subset, members, forms = best
        entries = [e for e in entries if e[0] != key]
        covered.update(members)
        chosen.append(
            Candidate(
                dim=k,
                span_points=tuple(labels[i] for i in subset),
                defining_forms=tuple(forms),
                members=key,
                coverage=rat_str(Fraction(len(members), total)),
            )
        )
    return chosen


def support_hits_by_decode(marks) -> list:
    """The indices of a column's support hits, decoded as the sampler did:
    a column of all () has none, else the truthy marks that are no tuple."""
    if marks.count(()) == len(marks):
        return []
    truthy = compress(range(len(marks)), marks)
    return [i for i in truthy if not isinstance(marks[i], tuple)]


def write_csv_by_row(report, fh) -> None:
    """DefectReport.write_csv as it ran before heights were formatted once:
    one write and one %r per float per record."""
    flagged = set(report.violators)
    fh.write("point,height,weighted_sum,ratio,violator\n")
    for row in zip(report.points, report.heights, report.sums, report.ratios):
        fh.write("%s,%r,%r,%r,%d\n" % (row + (row[0] in flagged,)))
