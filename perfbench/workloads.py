"""Seeded inputs, timed operations and oracles for the benchmark workloads.

Each workload is a class whose constructor is the set-up phase (it
validates the workload's fixed systems) and whose ``ops`` method yields
an endless, seed-determined stream of operations.  An operation holds
its generated inputs; ``run`` makes the library calls that are timed,
``check`` verifies the result by an independent route and raises
``OracleError`` on a mismatch, and ``outcome`` classifies the result.

Inputs follow a fixed rotation of slot kinds, each slot drawing fresh
random values from the seed.  Fixing the rotation keeps the mix of
input classes the same in every run, so run-to-run spread comes from
the values alone and stays small enough to compare commits.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator

import digsys as ds


class OracleError(AssertionError):
    """An output disagreed with its independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


@dataclass
class Outcome:
    label: str  # verdict or orbit class, counted in the input shares
    decided: bool  # a definitive answer; unknown and cap hits are undecided
    size: int = 0  # steps, closure size or output length, compared across passes
    overshoot: int | None = None  # closure elements beyond the cap, when capped


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    outcome: Callable[[Any], Outcome]
    info: dict = field(default_factory=dict)


def _big(rng: random.Random, digits: int) -> int:
    """A random integer with exactly ``digits`` decimal digits and random sign."""
    return rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10**digits)


# -- oracles shared by several workloads ---------------------------------------


def check_transition(system, a, b, digit_set):
    """a = e + X*b for a digit e, so T(a) = b, checked by multiplying back;
    returns the digit e."""
    e = a - system.qring.mul_x(b)
    require(e in digit_set, f"{system.qring.format(a)} does not map to {system.qring.format(b)}")
    return e


def check_finite_digits(system, start, digits) -> None:
    digit_set = set(system.digits)
    require(all(d in digit_set for d in digits), "a digit lies outside the digit set")
    require(system.evaluate(digits) == start, "the digits do not evaluate to the start")


def check_sequence(system, start, seq) -> None:
    """Check a DigitSequence.  Horner evaluation proves start = sum d_i X^i +
    X^n r for r = T^n(start), which pins every digit; then a cycle must
    return to its entry point and avoid 0, and a capped walk must never
    hit 0 or repeat."""
    if seq.kind == "finite":
        require(len(seq.digits) == seq.steps, "finite digit count differs from steps")
        check_finite_digits(system, start, seq.digits)
        return
    n = seq.preperiod if seq.kind == "eventually-periodic" else len(seq.digits)
    path = [start]
    for _ in range(n):
        path.append(system.step(path[-1]))
    head = seq.digits[:n]
    digit_set = set(system.digits)
    require(all(d in digit_set for d in head), "a digit lies outside the digit set")
    require(system.evaluate(head + (path[-1],)) == start, "the digits do not evaluate to the start")
    require(not any(v.is_zero for v in path), "the orbit reaches 0 before the reported end")
    if seq.kind == "eventually-periodic":
        require(n + seq.period == len(seq.digits), "cycle length mismatch")
        entry = path[-1]
        check_cycle_walk(system, entry, seq.digits[n:])
    else:
        require(seq.kind == "unknown" and n == seq.cap, "unexpected class")
        require(len(set(path)) == len(path), "a capped orbit repeats")


def check_cycle_walk(system, entry, digits) -> None:
    """From ``entry`` the digits lead back to ``entry`` without meeting 0."""
    digit_set = set(system.digits)
    cur = entry
    for d in digits:
        require(not cur.is_zero, "the cycle contains 0")
        nxt = system.step(cur)
        require(check_transition(system, cur, nxt, digit_set) == d, "a cycle digit is wrong")
        cur = nxt
    require(cur == entry, "the cycle does not return to its start")


def check_cycle(system, cycle) -> None:
    digit_set = set(system.digits)
    require(len(cycle) > 0, "empty cycle certificate")
    for i, v in enumerate(cycle):
        require(not v.is_zero, "the cycle certificate contains 0")
        check_transition(system, v, cycle[(i + 1) % len(cycle)], digit_set)


def check_orbit_steps(system, orbit_steps) -> None:
    digit_set = set(system.digits)
    for v, steps in orbit_steps.items():
        cur = v
        for _ in range(steps):
            require(not cur.is_zero, "an orbit reaches 0 sooner than certified")
            nxt = system.step(cur)
            check_transition(system, cur, nxt, digit_set)
            cur = nxt
        require(cur.is_zero, "an orbit does not reach 0 in the certified steps")


def check_verdicts(system, fep, pep) -> None:
    require((fep.answer == "unknown") == (pep.answer == "unknown"), "fep/pep caps disagree")
    if fep.answer == "no":
        check_cycle(system, fep.certificate["cycle"])
    elif fep.answer == "yes":
        check_orbit_steps(system, fep.certificate["orbit_steps"])
    if fep.answer != "unknown":
        require(pep.answer == "yes", "a stabilised closure must give pep yes")


def verdict_outcome(fep, pep, cap: int) -> Outcome:
    overshoot = None if fep.stabilized else max(fep.witnesses - cap, 0)
    return Outcome(
        f"{fep.answer}/{pep.answer}", fep.answer != "unknown", fep.witnesses or 0, overshoot
    )


# -- expand: long single orbit walks --------------------------------------------


class Expand:
    """Long orbit walks over Z and Z[i] plus two-factor product streams."""

    START_DIGITS = 150  # decimal digits of each start coefficient
    STEP_CAP = 100_000
    DIVERGENT_CAP = 2000
    PRODUCT_DEGREE = 12
    PRODUCT_DIGITS = 500
    # one round of the rotation; every kind but "capped" ends within the cap
    ROTATION = ("z_finite", "z_cycle", "zi_finite", "product", "capped")

    def __init__(self) -> None:
        self.z = ds.validate_system(ds.Z, ds.parse_poly(ds.Z, "3x^2-2x+5"), range(5))
        # a 5-cycle avoiding 0 traps most large starts
        self.z_cycle = ds.validate_system(ds.Z, ds.parse_poly(ds.Z, "3x^2-2x+4"), range(4))
        self.zi = ds.validate_system(ds.ZI, ds.parse_poly(ds.ZI, "(1+i)x+(1+2i)"), range(5))
        # not expanding: every orbit grows, so each walk runs to the cap
        self.divergent = ds.validate_system(ds.Z, ds.parse_poly(ds.Z, "3x+2"), [0, 1])
        self.product = ds.product_digit_set(
            ds.Z, ds.parse_poly(ds.Z, "x+2"), [0, 1], ds.parse_poly(ds.Z, "x+3"), [0, 1, 2]
        )

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        while True:
            for kind in self.ROTATION:
                yield getattr(self, "_" + kind)(rng)

    def _walk(self, kind: str, system, start, cap: int) -> Op:
        def outcome(seq):
            label = {"eventually-periodic": "periodic", "unknown": "capped"}.get(seq.kind, seq.kind)
            return Outcome(label, seq.kind != "unknown", len(seq.digits))

        return Op(
            kind,
            lambda: system.digit_sequence(start, cap),
            lambda seq: check_sequence(system, start, seq),
            outcome,
        )

    def _z_finite(self, rng):
        start = self.z.qring.from_const(_big(rng, self.START_DIGITS))
        system = self.z

        def check(exp):
            require(exp.status == "finite", "example 1 has finite expansions")
            check_finite_digits(system, start, exp.digits)

        return Op(
            "z_finite",
            lambda: system.expand(start, self.STEP_CAP),
            check,
            lambda exp: Outcome("finite", True, exp.steps),
        )

    def _z_cycle(self, rng):
        start = self.z_cycle.qring.from_const(_big(rng, self.START_DIGITS))
        return self._walk("z_cycle", self.z_cycle, start, self.STEP_CAP)

    def _zi_finite(self, rng):
        n = self.START_DIGITS
        start = self.zi.qring.from_const(ds.GaussianInt(_big(rng, n), _big(rng, n)))
        return self._walk("zi_finite", self.zi, start, self.STEP_CAP)

    def _capped(self, rng):
        q = self.divergent.qring
        start = q.normalize(ds.Poly.make(ds.Z, [rng.randint(1, 99), rng.randint(1, 9)]))
        return self._walk("capped", self.divergent, start, self.DIVERGENT_CAP)

    def _product(self, rng):
        psys = self.product
        coeffs = [_big(rng, self.PRODUCT_DIGITS) for _ in range(self.PRODUCT_DEGREE + 1)]
        element = ds.Poly.make(ds.Z, coeffs)
        combined = psys.combined

        def check(pe):
            seq = combined.digit_sequence(combined.qring.normalize(element), self.STEP_CAP)
            require(pe.digits == seq.digits, "product digits differ from the generic walk")
            require(pe.status == seq.kind, "product class differs from the generic walk")

        return Op(
            "product",
            lambda: ds.product_expand(psys, element, cap=self.STEP_CAP),
            check,
            lambda pe: Outcome(pe.status, pe.status != "unknown", len(pe.digits)),
        )


# -- decide_int: many small decisions over Z and Z[i] ---------------------------


class DecideInt:
    """Fresh validation plus fep and pep decisions on small systems."""

    CLOSURE_CAP = 100
    # Cheap kinds (dominant, srs) fill 12 of 20 slots, so the median op lies
    # inside their cluster rather than on the edge between clusters; the
    # wide-lead Gaussian bases, whose ring set-up enumerates N(lead)^2
    # residues, fill 1 slot.
    ROTATION = (
        "dominant", "srs", "gauss", "dominant", "srs", "euclid_no", "dominant", "srs", "gauss",
        "gauss_wide", "dominant", "srs", "gauss", "dominant", "srs", "euclid_no", "dominant",
        "srs", "gauss", "gauss",
    )

    def ops(self, seed: int) -> Iterator[Op]:
        # no fixed systems: every op validates its own
        rng = random.Random(seed)
        while True:
            for kind in self.ROTATION:
                yield getattr(self, "_" + kind)(rng)

    def _decision(self, kind, ring, modulus, digits, extra_check=None, early=False) -> Op:
        cap = self.CLOSURE_CAP

        def run():
            system = ds.validate_system(ring, modulus, digits)
            fep = ds.decide_fep(system, closure_cap=cap)
            pep = ds.decide_pep(system, closure_cap=cap)
            euclid = ds.euclidean_necessary_check(system) if early else None
            return system, fep, pep, euclid

        def check(res):
            system, fep, pep, euclid = res
            check_verdicts(system, fep, pep)
            if extra_check is not None:
                extra_check(fep, euclid)

        return Op(
            kind,
            run,
            check,
            lambda res: verdict_outcome(res[1], res[2], cap),
            {"modulus": str(modulus)},
        )

    def _dominant(self, rng):
        # monotone positive chains p0 > p1 >= ... >= pd > 0 decide yes
        d = rng.randint(1, 3)
        p0 = rng.randint(2, 6)
        rest = sorted((rng.randint(1, p0 - 1) for _ in range(d)), reverse=True)
        modulus = ds.Poly.make(ds.Z, [p0] + rest)

        def extra(fep, _):
            require(ds.dominant_condition(modulus), "generator left the dominant family")
            require(fep.answer == "yes", "a dominant chain must decide yes")

        return self._decision("dominant", ds.Z, modulus, range(p0), extra)

    def _euclid_no(self, rng):
        # a leading coefficient at least |p0| with small digits rules fep out
        d = rng.randint(1, 3)
        a0 = rng.randint(2, 5) * rng.choice((1, -1))
        lead = rng.randint(abs(a0), abs(a0) + 3) * rng.choice((1, -1))
        mid = [rng.randint(-4, 4) for _ in range(d - 1)]
        modulus = ds.Poly.make(ds.Z, [a0] + mid + [lead])
        digits = [0] + [c if rng.random() < 0.5 else c - abs(a0) for c in range(1, abs(a0))]

        def extra(fep, euclid):
            require(euclid is not None and euclid.answer == "no", "Euclidean check missed")
            require(fep.answer != "yes", "a Euclidean-necessary system decided yes")

        return self._decision("euclid_no", ds.Z, modulus, digits, extra, early=True)

    @staticmethod
    def _gauss_int(rng, bound, lo, hi):
        while True:
            g = ds.GaussianInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
            if lo <= g.norm() <= hi:
                return g

    def _gauss(self, rng):
        d = rng.randint(1, 2)
        p0 = self._gauss_int(rng, 4, 5, 20)
        mid = [self._gauss_int(rng, 2, 0, 8) for _ in range(d - 1)]
        lead = self._gauss_int(rng, 1, 1, 2)
        modulus = ds.Poly.make(ds.ZI, [p0] + mid + [lead])
        return self._decision("gauss", ds.ZI, modulus, ds.ZI.residues(p0))

    def _gauss_wide(self, rng):
        # a non-unit leading coefficient of norm 50..100: not expanding,
        # so the closure runs into the cap
        p0 = self._gauss_int(rng, 4, 5, 20)
        lead = self._gauss_int(rng, 10, 50, 100)
        modulus = ds.Poly.make(ds.ZI, [p0, lead])
        return self._decision("gauss_wide", ds.ZI, modulus, ds.ZI.residues(p0))

    def _srs(self, rng):
        d = rng.randint(1, 2)
        r = []
        for i in range(d):
            q = rng.randint(2, 7)
            lo = 1 if i == 0 else 0  # a zero leading entry is stripped by srs_classify
            num = rng.randint(lo, q - 1) * (rng.choice((1, -1)) if i else 1)
            r.append(Fraction(num, q))
        eps = rng.choice((Fraction(0), Fraction(1, 2)))
        params = ds.SrsParams(tuple(r), eps)
        probes = [tuple(rng.randint(-20, 20) for _ in range(d)) for _ in range(3)]
        cap = self.CLOSURE_CAP

        def check(v):
            if v.tau_cycle:
                cyc = v.tau_cycle
                for i, z in enumerate(cyc):
                    require(any(z), "the tau cycle contains the zero vector")
                    require(ds.tau_step(params, z) == cyc[(i + 1) % len(cyc)], "tau cycle breaks")
            if v.in_d0 == "yes":
                require(v.in_d == "yes", "in D0 but not in D")
                for z in probes:
                    for _ in range(10_000):
                        if not any(z):
                            break
                        z = ds.tau_step(params, z)
                    require(not any(z), "an orbit of a D0 parameter does not reach 0")
            if v.in_d0 == "no":
                require(bool(v.tau_cycle), "a no without a tau cycle")

        return Op(
            "srs",
            lambda: ds.srs_classify(params, closure_cap=cap),
            check,
            lambda v: Outcome(
                f"{v.in_d0}/{v.in_d}",
                v.in_d0 != "unknown",
                v.fep.witnesses if v.fep and v.fep.witnesses else 0,
                None if v.fep is None or v.fep.stabilized else max(v.fep.witnesses - cap, 0),
            ),
            {"r": [str(x) for x in r], "eps": str(eps)},
        )


# -- decide_ff: canonical-digit systems over F2[y] and F3[y] ---------------------

# (p, deg_x, deg_y p0, class, top, slots): the criterion-5 generator's
# share of each cell, allocated to an 80-slot block by largest remainder.
# Class U fails both degree tests (its closure never stabilises), N passes
# only the periodicity test and Y passes both.  U cells also fix the top
# y-degree of the other coefficients, which sets how fast the closure's
# elements grow.
FF_BLOCK = (
    (2, 1, 1, "N", None, 2), (2, 1, 1, "Y", None, 2), (2, 1, 2, "N", None, 1),
    (2, 1, 2, "Y", None, 3), (2, 1, 3, "Y", None, 3), (2, 2, 1, "N", None, 1),
    (2, 2, 1, "Y", None, 1), (2, 2, 2, "N", None, 1), (2, 2, 2, "Y", None, 2),
    (2, 2, 3, "N", None, 1), (2, 2, 3, "Y", None, 2), (2, 3, 1, "N", None, 1),
    (2, 3, 1, "Y", None, 1), (2, 3, 2, "N", None, 2), (2, 3, 2, "Y", None, 2),
    (2, 3, 3, "N", None, 1), (2, 3, 3, "Y", None, 2), (3, 1, 1, "N", None, 1),
    (3, 1, 1, "Y", None, 1), (3, 1, 2, "N", None, 1), (3, 1, 2, "Y", None, 3),
    (3, 1, 3, "N", None, 1), (3, 1, 3, "Y", None, 3), (3, 2, 1, "N", None, 1),
    (3, 2, 1, "Y", None, 1), (3, 2, 2, "N", None, 2), (3, 2, 2, "Y", None, 2),
    (3, 2, 3, "N", None, 1), (3, 2, 3, "Y", None, 2), (3, 3, 1, "N", None, 1),
    (3, 3, 2, "N", None, 2), (3, 3, 2, "Y", None, 1), (3, 3, 3, "N", None, 1),
    (3, 3, 3, "Y", None, 2),
    (2, 1, 1, "U", 2, 1), (2, 1, 1, "U", 3, 1), (2, 1, 2, "U", 3, 1), (2, 2, 1, "U", 2, 2),
    (2, 2, 1, "U", 3, 1), (2, 2, 2, "U", 3, 1), (2, 3, 1, "U", 2, 2), (2, 3, 1, "U", 3, 2),
    (2, 3, 2, "U", 3, 2), (3, 1, 1, "U", 2, 1), (3, 1, 1, "U", 3, 1), (3, 1, 2, "U", 3, 1),
    (3, 2, 1, "U", 2, 2), (3, 2, 1, "U", 3, 1), (3, 2, 2, "U", 3, 1), (3, 3, 1, "U", 2, 2),
    (3, 3, 1, "U", 3, 2), (3, 3, 2, "U", 3, 2),
)


def ff_class(crit) -> str:
    return "Y" if crit.fep else ("N" if crit.pep else "U")


def random_ff_modulus(rng, ring, dx: int, d0: int, cls: str, top: int | None = None):
    """The criterion-5 generator (deg_x <= 3, deg_y <= 3) conditioned on
    deg_x, deg_y p0, the degree-criterion class and, if given, the top
    y-degree of the other coefficients."""
    p = ring.p

    def rand_c(min_len=0, max_len=4):
        return ds.FpPoly.make(p, [rng.randrange(p) for _ in range(rng.randint(min_len, max_len))])

    while True:
        p0 = ds.FpPoly.make(p, [rng.randrange(p) for _ in range(d0)] + [rng.randrange(1, p)])
        lead = rand_c(1)
        while not lead:
            lead = rand_c(1)
        modulus = ds.Poly.make(ring, [p0] + [rand_c() for _ in range(dx - 1)] + [lead])
        crit = ds.ff_criterion(modulus)
        if ff_class(crit) == cls and top in (None, crit.max_degree):
            return modulus


class DecideFf:
    """Witness decisions on canonical digit sets over F_p[y], plus the
    zero-cycle proof and expansion conversion for digit sets without 0."""

    CLOSURE_CAP = 200
    PROVE_EVERY = 10  # one zero-cycle proof per ten decisions
    WINDOW_LIMIT = 4096  # windows the proof enumerates: |digits|^(zero period - 1)
    PROVE_CAP = 300

    def __init__(self) -> None:
        self.rings = {2: ds.Fp(2), 3: ds.Fp(3)}
        self.slots = [cell[:5] for cell in FF_BLOCK for _ in range(cell[5])]

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        while True:
            block = list(self.slots)
            rng.shuffle(block)
            for i, (p, dx, d0, cls, top) in enumerate(block):
                ring = self.rings[p]
                yield self._decide(ring, random_ff_modulus(rng, ring, dx, d0, cls, top))
                if i % self.PROVE_EVERY == self.PROVE_EVERY - 1:
                    yield self._prove(rng)

    def _decide(self, ring, modulus) -> Op:
        cap = self.CLOSURE_CAP

        def run():
            system = ds.validate_system(ring, modulus, ds.canonical_ff_digits(modulus))
            return system, ds.decide_fep(system, closure_cap=cap)

        def check(res):
            system, v = res
            if v.answer == "unknown":
                return
            require((v.answer == "yes") == ds.ff_criterion(modulus).fep, "verdict != criterion")
            if v.answer == "no":
                check_cycle(system, v.certificate["cycle"])

        def outcome(res):
            v = res[1]
            over = None if v.stabilized else max(v.witnesses - cap, 0)
            return Outcome(v.answer, v.answer != "unknown", v.witnesses or 0, over)

        return Op("decide", run, check, outcome, {"modulus": str(modulus)})

    def _prove(self, rng) -> Op:
        """A Y-class system whose 0 digit is replaced by a nonzero multiple of p0."""
        cap = self.PROVE_CAP
        while True:
            ring = self.rings[rng.choice((2, 3))]
            modulus = random_ff_modulus(rng, ring, rng.randint(1, 3), rng.randint(1, 3), "Y")
            canonical = ds.canonical_ff_digits(modulus)
            p = ring.p
            mult = ds.FpPoly.make(p, [rng.randrange(p), rng.randrange(1, p)])
            digits = [d for d in canonical if d] + [modulus.constant * mult]
            system = ds.validate_system(ring, modulus, digits)
            zc = system.zero_cycle(cap)
            if zc is not None and len(canonical) ** (zc.period - 1) <= self.WINDOW_LIMIT:
                break
        element = ds.Poly.make(
            ring, [ds.FpPoly.make(p, [rng.randrange(p) for _ in range(6)]) for _ in range(4)]
        )

        def run():
            target = ds.validate_system(ring, modulus, digits)
            verdict = ds.prove_fep_via_zero_cycle(target, canonical, cap=cap)
            conv = ds.convert_expansion(target, element, canonical, cap=cap)
            return target, verdict, conv

        def check(res):
            target, verdict, conv = res
            zero_digits = [target.qring.from_const(z) for z in verdict.zero_cycle]
            if zero_digits:
                require(target.evaluate(zero_digits).is_zero, "zero cycle does not sum to 0")
            if verdict.answer == "no":
                cyc = verdict.cycle
                for i, w in enumerate(cyc):
                    nxt = ds.phi_window_map(target, verdict.zero_cycle, w)
                    require(nxt == cyc[(i + 1) % len(cyc)], "window cycle breaks")
            if conv.status == "finite":
                check_finite_digits(target, target.qring.normalize(element), conv.digits)

        return Op(
            "prove",
            run,
            check,
            lambda res: Outcome(res[1].answer, res[1].answer != "unknown", len(res[2].digits)),
            {"modulus": str(modulus)},
        )


# -- cli: every subcommand through cli.main --------------------------------------


class Cli:
    """In-process ``cli.main([..., "--json"])`` over all seven subcommands.

    The argument lists are drawn once from the seed and then cycled: the
    first run of each is checked against the library, every repeat must
    print byte-identical output."""

    VARIANTS = 4  # argument lists per subcommand
    WITNESS_CAP = "2000"
    STEP_CAP = "100000"

    def __init__(self, out_dir: Path) -> None:
        # only this workload pays for the cli import in its set-up
        from digsys import cli

        self.cli = cli
        self.out_dir = out_dir
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.first: dict[int, tuple] = {}

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        self.first = {}
        makers = (
            self._expand, self._decide, self._zero_cycle, self._witness,
            self._srs, self._product, self._ff,
        )
        argvs = [(make.__name__[1:], *make(rng, v)) for v in range(self.VARIANTS) for make in makers]
        while True:
            for index, (kind, argv, expected, dot) in enumerate(argvs):
                yield self._op(index, kind, argv, expected, dot)

    def _op(self, index, kind, argv, expected, dot) -> Op:
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            dot_text = dot.read_text(encoding="utf-8") if dot is not None else None
            return code, out.getvalue(), dot_text

        def check(res):
            code, text, dot_text = res
            require(code in (0, 2), f"exit code {code}: {' '.join(argv)}")
            seen = self.first.get(index)
            if seen is not None:
                require(seen == res, f"output differs on a repeat: {' '.join(argv)}")
                return
            report = json.loads(text)
            for key, want in expected().items():
                got = report
                for part in key.split("."):
                    got = got[part]
                require(got == want, f"{kind}: {key} is {got!r}, library gives {want!r}")
            self.first[index] = res

        return Op(
            kind,
            run,
            check,
            lambda res: Outcome(f"exit{res[0]}", res[0] == 0, len(res[1])),
        )

    # each maker returns (argv, expected-fields thunk, dot path or None)

    def _expand(self, rng, v):
        ring, name, poly, digits = ds.Z, "Z", "3x^2-2x+5", "0,1,2,3,4"
        element = str(_big(rng, 60))
        argv = ["expand", "--ring", name, "--poly", poly, "--digits", digits,
                "--element", element, "--cap", self.STEP_CAP, "--json"]

        def expected():
            system = ds.validate_system(ring, ds.parse_poly(ring, poly), [ring.parse(t) for t in digits.split(",")])
            seq = system.digit_sequence(system.qring.parse(element), int(self.STEP_CAP))
            fmt = system.qring.format
            return {"result.digits": [fmt(d) for d in seq.digits], "result.class": seq.kind}

        return argv, expected, None

    def _dominant_poly(self, rng):
        d = rng.randint(1, 3)
        p0 = rng.randint(3, 9)
        rest = sorted((rng.randint(1, p0 - 1) for _ in range(d)), reverse=True)
        return ds.Poly.make(ds.Z, [p0] + rest), p0

    def _decide(self, rng, v):
        modulus, p0 = self._dominant_poly(rng)
        digits = ",".join(str(k) for k in range(p0))
        argv = ["decide", "--ring", "Z", "--poly", str(modulus), "--digits", digits,
                "--witness-cap", self.WITNESS_CAP, "--json"]

        def expected():
            system = ds.validate_system(ds.Z, modulus, range(p0))
            cap = int(self.WITNESS_CAP)
            fep = ds.decide_fep(system, closure_cap=cap)
            pep = ds.decide_pep(system, closure_cap=cap)
            return {
                "result.fep.answer": fep.answer,
                "result.fep.witnesses": fep.witnesses,
                "result.pep.answer": pep.answer,
            }

        return argv, expected, None

    def _zero_cycle(self, rng, v):
        ring = ds.Fp(2)
        while True:
            modulus = random_ff_modulus(rng, ring, 2, 2, "Y")
            canonical = ds.canonical_ff_digits(modulus)
            digits = [d for d in canonical if d] + [modulus.constant * ds.FpPoly.make(2, [0, 1])]
            system = ds.validate_system(ring, modulus, digits)
            if system.zero_cycle(int(self.STEP_CAP)) is not None:
                break
        digit_text = ",".join(ring.format(d) for d in digits)
        argv = ["zero-cycle", "--ring", "Fp:2", "--poly", str(modulus), "--digits", digit_text,
                "--cap", self.STEP_CAP, "--json"]

        def expected():
            zc = system.zero_cycle(int(self.STEP_CAP))
            return {"result.digits": [system.qring.format(d) for d in zc.digits]}

        return argv, expected, None

    def _witness(self, rng, v):
        p0 = DecideInt._gauss_int(rng, 3, 5, 10)
        lead = DecideInt._gauss_int(rng, 1, 1, 2)
        modulus = ds.Poly.make(ds.ZI, [p0, lead])
        digits = ds.ZI.residues(p0)
        dot = self.out_dir / f"witness{v}.dot"
        argv = ["witness", "--ring", "Zi", "--poly", str(modulus),
                "--digits", ",".join(ds.ZI.format(d) for d in digits),
                "--witness-cap", self.WITNESS_CAP, "--dot", str(dot), "--json"]

        def expected():
            system = ds.validate_system(ds.ZI, modulus, digits)
            seeds = ds.seed_witnesses(system, "brunotte")
            closure = ds.witness_closure(system, seeds, int(self.WITNESS_CAP))
            fmt = system.qring.format
            out = {
                "result.closure_size": len(closure),
                "result.stabilized": closure.stabilized,
                "result.elements": sorted(fmt(e) for e in closure.elements),
            }
            if closure.stabilized:
                graph = ds.orbit_graph(system, closure.elements)
                require(dot.read_text(encoding="utf-8") == graph.to_dot(), "DOT output differs")
            return out

        return argv, expected, dot

    def _srs(self, rng, v):
        q = rng.randint(3, 9)
        r = (Fraction(rng.randint(1, q - 1), q), Fraction(rng.randint(-q + 1, q - 1), q))
        eps = rng.choice(("0", "1/2"))
        argv = ["srs", "--r", ",".join(str(x) for x in r), "--eps", eps,
                "--witness-cap", self.WITNESS_CAP, "--json"]

        def expected():
            verdict = ds.srs_classify(ds.SrsParams(r, Fraction(eps)), int(self.WITNESS_CAP))
            cycle = [list(z) for z in verdict.tau_cycle] if verdict.tau_cycle else None
            return {
                "result.in_D0": verdict.in_d0,
                "result.in_D": verdict.in_d,
                "result.tau_cycle": cycle,
            }

        return argv, expected, None

    def _product(self, rng, v):
        factors = "x+2:0,1;x+3:0,1,2"
        element = ds.Poly.make(ds.Z, [_big(rng, 30) for _ in range(4)])
        argv = ["product", "--factors", factors, "--element", str(element),
                "--cap", self.STEP_CAP, "--witness-cap", self.WITNESS_CAP, "--json"]

        def expected():
            psys = ds.product_digit_set(
                ds.Z, ds.parse_poly(ds.Z, "x+2"), [0, 1], ds.parse_poly(ds.Z, "x+3"), [0, 1, 2]
            )
            combined = psys.combined
            seq = combined.digit_sequence(combined.qring.normalize(element), int(self.STEP_CAP))
            return {
                "result.expansion.digits": [combined.qring.format(d) for d in seq.digits],
                "result.expansion.status": seq.kind,
                "result.fep_propagated": psys.fep_propagated,
            }

        return argv, expected, None

    def _ff(self, rng, v):
        # systems whose zero-cycle proof succeeds, so that --convert runs
        ring = ds.Fp(2)
        cap = DecideFf.PROVE_CAP
        while True:
            modulus = random_ff_modulus(rng, ring, rng.randint(1, 2), 2, "Y")
            canonical = ds.canonical_ff_digits(modulus)
            digits = [d for d in canonical if d] + [modulus.constant * ds.FpPoly.make(2, [1, 1])]
            system = ds.validate_system(ring, modulus, digits)
            zc = system.zero_cycle(cap)
            if zc is None or len(canonical) ** (zc.period - 1) > DecideFf.WINDOW_LIMIT:
                continue
            if ds.prove_fep_via_zero_cycle(system, canonical, cap=cap).answer == "yes":
                break
        element = str(ds.Poly.make(ring, [ds.FpPoly.make(2, [rng.randrange(2) for _ in range(4)]) for _ in range(3)]))
        argv = ["ff", "--p", "2", "--poly", str(modulus),
                "--digits", ",".join(ring.format(d) for d in digits),
                "--prove-fep", "--convert", element, "--cap", str(cap), "--json"]

        def expected():
            crit = ds.ff_criterion(modulus)
            verdict = ds.prove_fep_via_zero_cycle(system, canonical, cap=cap)
            target = system.qring.normalize(ds.parse_poly(ring, element))
            conv = ds.convert_expansion(system, target, canonical, cap=cap)
            return {
                "result.criterion.fep": crit.fep,
                "result.criterion.pep": crit.pep,
                "result.prove_fep.answer": verdict.answer,
                "result.convert.status": conv.status,
                "result.convert.digits": [system.qring.format(d) for d in conv.digits],
            }

        return argv, expected, None


WORKLOADS = ("expand", "decide_int", "decide_ff", "cli")


def make(name: str, out_dir: Path):
    """Set-up phase of a workload: validates its fixed systems."""
    if name == "expand":
        return Expand()
    if name == "decide_int":
        return DecideInt()
    if name == "decide_ff":
        return DecideFf()
    if name == "cli":
        return Cli(out_dir)
    raise ValueError(f"unknown workload {name!r}")
