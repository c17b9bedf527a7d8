"""The four workloads: seeded inputs, the timed operations, correctness gates.

A workload produces its inputs one pass at a time from (seed, pass index).
Every pass gets inputs no earlier pass of the run has seen, so the
process-global lru_caches of the program (quang_combine_cached,
_subgeneral_ok, _general_report, _evaluator) start every pass cold for that
pass's inputs, as they do for a user running one command; hits inside a pass
are the program's own reuse and are measured.

run() executes one pass and records its timed operations; gate() checks the
pass's outputs outside the timed region and returns one message per failed
check; report_bytes() is the byte-exact report that the determinism check
hashes.  The program is reached only through its public modules, looked up
at call time so that an installed tracer sees every call.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import time
from fractions import Fraction

THREE_PLACES = ("inf", "p=2", "p=3")
FIVE_PLACES = ("inf", "p=2", "p=3", "p=5", "p=7")
SUM_TOLERANCE = 1e-9  # relative; bulk ledger vs the exact one-point reference


class Recorder:
    """Timed operations of a run.

    A call is the workload's user-facing operation (a report, a certificate,
    a ledger) and carries a latency; items are the units of throughput
    (points, chain checks, Weil rows).  Durations are kept in wall seconds;
    in_ref() converts them to reference units, dividing each pass's
    durations by the mean of the reference times measured just before and
    just after that pass (calibrate.py).
    """

    def __init__(self):
        self.refs: list[float] = []  # reference time before each pass
        self.items = 0
        self.item_s = 0.0
        self.calls: list[tuple[int, float]] = []  # (pass, seconds)
        self.item_spans: list[tuple[int, float]] = []  # (pass, seconds) per timing
        self.item_times: list[float] = []  # per-item latencies, where timed singly
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0

    @property
    def call_times(self) -> list[float]:
        return [t for _, t in self.calls]

    def item(self, count: int, seconds: float) -> None:
        self.items += count
        self.item_s += seconds
        self.item_spans.append((len(self.refs) - 1, seconds))
        self.busy_s += seconds

    def call(self, seconds: float, items: int = 0) -> None:
        """A call; items > 0 when the call itself produced the items."""
        self.calls.append((len(self.refs) - 1, seconds))
        if items:
            self.items += items
            self.item_s += seconds
            self.item_spans.append((len(self.refs) - 1, seconds))
        self.busy_s += seconds

    def in_ref(self, final_ref_s: float) -> tuple[float, list[float]]:
        """(item time, call latencies) in reference units; final_ref_s is
        the reference measured after the last pass."""
        refs = self.refs + [final_ref_s]
        scale = [2.0 / (refs[i] + refs[i + 1]) for i in range(len(self.refs))]
        item_ref = sum(t * scale[i] for i, t in self.item_spans)
        return item_ref, [t * scale[i] for i, t in self.calls]


def _rng(seed: int, index: int, salt: str) -> random.Random:
    return random.Random("%s:%d:%d" % (salt, seed, index))


def _phi_table(n: int) -> list[int]:
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def _exact_weighted_sum(sg, point, arrangements, mode="lenient") -> float:
    """Reference for one report record: sum of eps_j * lambda_{j,v}(P),
    each term from the exact one-point routine."""
    terms = []
    for place, targets in arrangements:
        for t in targets:
            eps = sg.seshadri_constant(t).value
            terms.append(float(eps) * sg.local_weil(point, t, place, mode).value)
    return math.fsum(terms)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SUM_TOLERANCE * max(1.0, abs(a), abs(b))


def _strict_family(sg, rng, n: int, l: int, hi: int = 3, max_tries: int = 400):
    """(forms, variety): l+1 forms strictly l-subgeneral on a dim-n X.

    Same recipe as the test generator: for l == n a general-position family
    on P^n; for l > n, X = {x_{n+1} = 0} in P^{n+1}, l-n+1 forms
    x0 + c*x_{n+1} that agree on X and pin the level, plus n seeded forms.
    Seeded coefficients lie in [-hi, hi].
    """
    if l == n:
        variety = sg.projective_space(n)
        for _ in range(max_tries):
            forms = [_rand_linear(sg, rng, n, hi) for _ in range(n + 1)]
            if sg.check_general(forms, variety, verdict_only=True).verdict:
                rng.shuffle(forms)
                return forms, variety
        raise RuntimeError("no general-position family after %d tries" % max_tries)
    ambient = n + 1
    axis = sg.LinearForm(tuple([0] * ambient + [1]))
    variety = sg.LinearSubvariety(ambient, (axis,))
    for _ in range(max_tries):
        block = []
        for c in rng.sample(range(0, 3 * l + 4), l - n + 1):
            coeffs = [0] * (ambient + 1)
            coeffs[0], coeffs[ambient] = 1, c
            block.append(sg.LinearForm(tuple(coeffs)))
        forms = block + [_rand_linear(sg, rng, ambient, hi) for _ in range(n)]
        if sg.violations_at(forms, variety, l) or not sg.violations_at(
            forms, variety, l - 1
        ):
            continue
        rng.shuffle(forms)
        return forms, variety
    raise RuntimeError("no strict arrangement after %d tries" % max_tries)


def _rand_linear(sg, rng, dim: int, hi: int):
    while True:
        coeffs = tuple(rng.randint(-hi, hi) for _ in range(dim + 1))
        if any(coeffs):
            return sg.LinearForm(coeffs)


class FreshFamilies:
    """Strict families that no earlier draw of the run has produced.

    Coefficients start in [-3, 3].  Some classes have few families there
    ((n, l) = (1, 1) has 120), so after WIDEN_AFTER repeats in a row the
    class's coefficient range grows by one for the rest of the run: the
    stream never runs dry, however many passes a fast program gets through,
    and a class that is not running low keeps its [-3, 3] inputs.
    """

    WIDEN_AFTER = 16
    MAX_REPEATS = 1000

    def __init__(self, sg):
        self.sg = sg
        self.seen = set()
        self.width: dict[tuple[int, int], int] = {}

    def draw(self, rng, n: int, l: int):
        hi = self.width.get((n, l), 3)
        for repeat in range(1, self.MAX_REPEATS + 1):
            forms, variety = _strict_family(self.sg, rng, n, l, hi)
            key = (variety.ambient_dim, tuple(sorted(f.coeffs for f in forms)))
            if key not in self.seen:
                self.seen.add(key)
                self.width[(n, l)] = hi
                return forms, variety
            if repeat % self.WIDEN_AFTER == 0:
                hi += 1
        raise RuntimeError(
            "no fresh (n, l) = (%d, %d) family in %d draws" % (n, l, self.MAX_REPEATS)
        )


# ---------------------------------------------------------------------------
# experiment workloads, run through the CLI in-process


class _ExperimentWorkload:
    """One pass is one `subgeneral experiment run` call writing its report."""

    fmt = "json"

    def __init__(self, sg, seed: int, workdir):
        self.sg = sg
        self.seed = seed
        self.workdir = workdir
        self.index = 0

    def run(self, inp, rec: Recorder):
        config, arrangements = inp
        out_path = str(self.workdir / ("report-%d.%s" % (self.index, self.fmt)))
        self.index += 1
        argv = ["experiment", "run", "--config", config, "--format", self.fmt, "--out", out_path]
        t0 = time.perf_counter()
        rc = self.sg.cli.main(argv)
        elapsed = time.perf_counter() - t0
        with open(out_path, "rb") as fh:
            data = fh.read()
        records = self._records(data)
        rec.call(elapsed, items=len(records))
        rec.attempted += 1
        return rc, data, records

    def report_bytes(self, out) -> bytes:
        return out[1]

    def gate(self, inp, out) -> list[str]:
        config, arrangements = inp
        rc, data, records = out
        errors = []
        if rc != 0:
            errors.append("experiment run exited %d" % rc)
        errors += self._gate_report(inp, data, records)
        rng = _rng(self.seed, len(records), "subsample")
        for point, reported in rng.sample(records, min(12, len(records))):
            ref = _exact_weighted_sum(self.sg, self.sg.ProjPoint.parse(point), arrangements)
            if not _close(reported, ref):
                errors.append("weighted sum at %s: %r vs exact %r" % (point, reported, ref))
                break
        # one report is one operation: its failed checks count once
        return ["; ".join(errors)] if errors else []


class CurveExhaustive(_ExperimentWorkload):
    """P^1 with places inf, p=2, p=3, p=5, l = 2, exhaustive sweep, JSON report.

    Pass i replaces the third target by x0 + a*x1 at inf and p=2 and by
    x0 - b*x1 at p=3 and p=5.  The pairs (a, b) run through seeded shuffles
    of successive 30 x 30 blocks, (1..30)^2, (31..60)^2, ..., so no pair
    repeats and the stream never ends.
    """

    name = "curve_exhaustive"
    max_height = 80
    coeff_range = 30
    tail_cap = 75.0
    trace_passes = 16

    def __init__(self, sg, seed, workdir):
        super().__init__(sg, seed, workdir)
        self.pairs = self._pairs()

    def _pairs(self):
        r = self.coeff_range
        for block in itertools.count():
            base = block * r
            pairs = [(base + a, base + b) for a in range(1, r + 1) for b in range(1, r + 1)]
            _rng(self.seed, block, "curve").shuffle(pairs)
            yield from pairs

    def next_inputs(self):
        a, b = next(self.pairs)
        sg = self.sg
        plus = [[1, 0], [0, 1], [1, a]]
        minus = [[1, 0], [0, 1], [1, -b]]
        arr_json = {"inf": plus, "p=2": plus, "p=3": minus, "p=5": minus}
        config = {
            "x": {"ambient_dim": 1, "forms": []},
            "arrangements": {
                k: [[str(c) for c in f] for f in forms] for k, forms in arr_json.items()
            },
            "l": 2,
            "epsilon": "1/10",
            "height_window": [0.0, math.log(self.max_height)],
            "sample_count": None,
            "seed": self.seed,
        }
        arrangements = [
            (sg.parse_place(k), [sg.LinearForm(tuple(f)) for f in forms])
            for k, forms in arr_json.items()
        ]
        return json.dumps(config), arrangements

    @staticmethod
    def _records(data: bytes):
        return [(r[0], r[2]) for r in json.loads(data)["records"]]

    def _gate_report(self, inp, data, records) -> list[str]:
        _, arrangements = inp
        report = json.loads(data)
        # canonical points with max coordinate m number 4*phi(m) for m >= 2;
        # zeros of the targets inside the window are excluded supports
        phi = _phi_table(self.max_height)
        zeros = set()
        for _, targets in arrangements:
            for t in targets:
                a0, a1 = t.coeffs
                z = self.sg.ProjPoint((a1, -a0))
                if 2 <= max(abs(c) for c in z.coords) <= self.max_height:
                    zeros.add(z.coords)
        expected = 4 * sum(phi[2:]) - len(zeros)
        errors = []
        if report["n_points"] != expected:
            errors.append("n_points %d, closed form %d" % (report["n_points"], expected))
        if len(records) != report["n_points"]:
            errors.append("%d records for %d points" % (len(records), report["n_points"]))
        return errors


class SurfaceSampled(_ExperimentWorkload):
    """X = {x3 = 0} in P^3 (n = 2), a strictly 4-subgeneral family of five
    forms per place at inf, p=2, p=3, seeded draws, two workers, CSV report."""

    name = "surface_sampled"
    fmt = "csv"
    level = 4
    max_height = 70
    sample_count = 4000
    workers = 2
    tail_cap = 75.0
    trace_passes = 16

    def __init__(self, sg, seed, workdir):
        super().__init__(sg, seed, workdir)
        self.families = FreshFamilies(sg)
        self.pass_index = 0

    def next_inputs(self):
        sg = self.sg
        i = self.pass_index
        self.pass_index += 1
        rng = _rng(self.seed, i, "surface")
        arrangements = []
        for name in THREE_PLACES:
            forms, variety = self.families.draw(rng, 2, self.level)
            arrangements.append((sg.parse_place(name), forms))
        config = {
            "x": variety.to_json(),
            "arrangements": {str(v): [f.to_json() for f in forms] for v, forms in arrangements},
            "l": self.level,
            "epsilon": "1/10",
            "height_window": [0.0, math.log(self.max_height)],
            "sample_count": self.sample_count,
            "seed": rng.randrange(2**31),
            "workers": self.workers,
        }
        return json.dumps(config), arrangements

    @staticmethod
    def _records(data: bytes):
        rows = list(csv.reader(io.StringIO(data.decode("ascii"))))
        return [(r[0], float(r[2])) for r in rows[1:]]

    def _gate_report(self, inp, data, records) -> list[str]:
        rows = list(csv.reader(io.StringIO(data.decode("ascii"))))
        errors = []
        if rows[0] != ["point", "height", "weighted_sum", "ratio", "violator"]:
            errors.append("CSV header %r" % (rows[0],))
        bound = float(Fraction((self.level - 2 + 1) * 3) + Fraction(1, 10))
        rng = _rng(self.seed, len(rows), "rows")
        for point, h, s, r, flag in rng.sample(rows[1:], min(200, len(rows) - 1)):
            pt = self.sg.ProjPoint.parse(point)
            if float(h) != math.log(max(abs(c) for c in pt.coords)):
                errors.append("height of %s" % point)
                break
            if float(r) != float(s) / float(h) or flag != str(int(float(r) > bound)):
                errors.append("ratio or violator flag of %s" % point)
                break
        if not 0.9 * self.sample_count <= len(records) <= self.sample_count:
            errors.append("%d points for %d draws" % (len(records), self.sample_count))
        return errors


# ---------------------------------------------------------------------------
# certificates and chain checks, called directly


class ChainCertify:
    """A stream of distinct strict arrangements cycling (n, l) over
    n in {1, 2, 3}, l in [n, 6].  A pass certifies eight arrangements cold
    (quang_combine + verify_soundness) and chain-checks the first at inf,
    p=2, p=3 on a strict-mode sample up to height log 30.

    Eight certificates per pass give the certificate tail enough samples;
    eight is prime to the 15 classes, so the chain-checked arrangement still
    cycles through every class.
    """

    name = "chain_certify"
    classes = tuple((n, l) for n in (1, 2, 3) for l in range(n, 7))
    certs_per_pass = 8
    points_per_pass = 200
    max_height = 30
    tail_cap = 90.0
    item_tail_cap = 99.9
    trace_passes = 3 * len(classes)  # odd cycle: both halves see every class

    def __init__(self, sg, seed, workdir):
        self.sg = sg
        self.seed = seed
        self.families = FreshFamilies(sg)
        self.pass_index = 0
        self.places = tuple(sg.parse_place(s) for s in THREE_PLACES)

    def next_inputs(self):
        sg = self.sg
        i = self.pass_index
        self.pass_index += 1
        rng = _rng(self.seed, i, "chain")
        families = []
        for j in range(self.certs_per_pass):
            n, l = self.classes[(i * self.certs_per_pass + j) % len(self.classes)]
            families.append(self.families.draw(rng, n, l))
        forms, variety = families[0]
        sample = sg.sample_points(
            variety,
            0.0,
            math.log(self.max_height),
            self.points_per_pass,
            rng.randrange(2**31),
            excluded=tuple(forms),
            mode="strict",
        )
        return families, sample.points

    def run(self, inp, rec: Recorder):
        sg = self.sg
        families, points = inp
        certs = []
        for forms, variety in families:
            t0 = time.perf_counter()
            cert = sg.quang_combine(forms, variety, constant_places=self.places)
            sound = cert.verify_soundness()
            rec.call(time.perf_counter() - t0)
            certs.append((cert, sound))
        cert = certs[0][0]
        checks = []
        clock = time.perf_counter
        support_error = sg.SupportError
        chain_check = sg.chain_check
        for pt in points:
            for place in self.places:
                t0 = clock()
                try:
                    record = chain_check(pt, place, cert)
                except support_error:
                    record = None
                dt = clock() - t0
                rec.item_times.append(dt)
                rec.item(1, dt)
                checks.append((pt, place, record))
        rec.attempted += len(certs) + len(checks)
        return certs, checks

    def report_bytes(self, out) -> bytes:
        certs, checks = out
        doc = {
            "certificates": [
                {"certificate": c.to_json_dict(), "sound": sound} for c, sound in certs
            ],
            "checks": [
                r.to_json_dict() if r else {"point": str(p), "place": str(v), "skipped": "support"}
                for p, v, r in checks
            ],
        }
        return self.sg.jsonio.stable_dumps(doc).encode()

    def gate(self, inp, out) -> list[str]:
        families, _ = inp
        certs, checks = out
        errors = []
        for (cert, sound), (_, variety) in zip(certs, families):
            if not sound:
                errors.append("certificate failed verify_soundness")
            if not self.sg.check_general(list(cert.outputs), variety).verdict:
                errors.append("certificate outputs not in general position")
        for pt, place, record in checks:
            if record is not None and not record.passed:
                errors.append("chain inequality failed at %s, %s" % (pt, place))
        return errors


# ---------------------------------------------------------------------------
# local Weil rows and product-formula ledgers, called directly


class WeilLedger:
    """weil_batch on a seeded manifest (the `weil --manifest` path) and
    product_formula_residual on seeded rationals (the `norm --ledger` path).

    Points of P^3 with coordinates up to 10^4; ten targets: four hyperplanes,
    four hypersurfaces of degree 2 or 3, two subschemes; five places.
    Rationals have numerator and denominator up to 10^12.
    """

    name = "weil_ledger"
    points_per_pass = 20
    ledgers_per_pass = 100
    coord_bound = 10**4
    ratio_bound = 10**12
    tail_cap = 99.0
    trace_passes = 60

    def __init__(self, sg, seed, workdir):
        self.sg = sg
        self.seed = seed
        self.pass_index = 0
        rng = _rng(seed, 0, "weil-targets")
        lin = [_rand_linear(sg, rng, 3, 5) for _ in range(4)]
        hyp = [self._rand_hom(rng, d) for d in (2, 2, 3, 3)]
        subs = [
            sg.SubschemeSpec((lin[0], _rand_linear(sg, rng, 3, 5)), label="line"),
            sg.SubschemeSpec((_rand_linear(sg, rng, 3, 5), hyp[0]), label="conic"),
        ]
        self.targets = lin + hyp + subs
        self.targets_json = [sg.target_to_json(t) for t in self.targets]

    def _rand_hom(self, rng, degree):
        sg = self.sg
        nmono = len(sg.monomials(4, degree))
        while True:
            coeffs = tuple(rng.randint(-4, 4) for _ in range(nmono))
            if any(coeffs):
                return sg.HomForm(3, degree, coeffs)

    def next_inputs(self):
        i = self.pass_index
        self.pass_index += 1
        rng = _rng(self.seed, i, "weil")
        b = self.coord_bound
        points = []
        while len(points) < self.points_per_pass:
            coords = [rng.randint(-b, b) for _ in range(4)]
            if any(coords):
                points.append([str(c) for c in coords])
        manifest = {
            "points": points,
            "targets": self.targets_json,
            "places": list(FIVE_PLACES),
            "mode": "lenient",
        }
        r = self.ratio_bound
        rationals = [
            Fraction(rng.randint(1, r) * rng.choice((1, -1)), rng.randint(1, r))
            for _ in range(self.ledgers_per_pass)
        ]
        return manifest, rationals

    def run(self, inp, rec: Recorder):
        sg = self.sg
        manifest, rationals = inp
        t0 = time.perf_counter()
        rows = sg.weil_batch(manifest)
        rec.item(len(rows), time.perf_counter() - t0)
        ledgers = []
        clock = time.perf_counter
        residual = sg.product_formula_residual
        for x in rationals:
            t0 = clock()
            ledgers.append(residual(x))
            rec.call(clock() - t0)
        rec.attempted += 1 + len(ledgers)
        return rows, ledgers

    def report_bytes(self, out) -> bytes:
        rows, ledgers = out
        doc = {"rows": rows, "ledgers": [led.to_json_dict() for led in ledgers]}
        return self.sg.jsonio.stable_dumps(doc).encode()

    def gate(self, inp, out) -> list[str]:
        manifest, rationals = inp
        rows, ledgers = out
        errors = []
        expected = len(manifest["points"]) * len(self.targets) * len(FIVE_PLACES)
        if len(rows) != expected:
            errors.append("%d rows, expected %d" % (len(rows), expected))
        errors += [
            "product formula residual nonzero for %s" % x
            for x, led in zip(rationals, ledgers)
            if led.x != x or not led.residual_is_zero()
        ]
        # hyperplane rows against an independent evaluation
        lin = {str(t): t.coeffs for t in self.targets if isinstance(t, self.sg.LinearForm)}
        for row in rows:
            coeffs = lin.get(row["target"])
            if coeffs is None or row["value"] is None:
                continue
            x = [int(c) for c in row["point"][1:-1].split(":")]
            val = sum(a * c for a, c in zip(coeffs, x))
            if row["place"] == "inf":
                q = Fraction(max(map(abs, x)) * max(map(abs, coeffs)), abs(val))
                ref = math.log(q.numerator) - math.log(q.denominator)
            else:
                p = int(row["place"][2:])
                e = 0
                while val % p == 0:
                    val //= p
                    e += 1
                ref = e * math.log(p)
            if not _close(row["value"], ref):
                errors.append("weil row %s %s %s" % (row["point"], row["target"], row["place"]))
                break
        return errors


WORKLOADS = {
    w.name: w for w in (CurveExhaustive, SurfaceSampled, ChainCertify, WeilLedger)
}
