"""The root stage of the witness decisions, and the single pass behind
the orbit statuses.

Over Z and Z[i], E(p0) < E(p_d) puts a root of P inside the unit circle,
and ``decide_fep``/``decide_pep`` then answer "unknown" without building
a closure.  On a seeded grid of such bases the raw search never
stabilises, and for d = 1, where the root -p0/p1 is rational over Q(i),
an orbit stepped by element arithmetic has values at the root that grow
exactly.  Bases with E(p0) >= E(p_d) keep the verdicts of the raw
search.  Last, ``witness._orbit_statuses`` against the walk-based route
it replaced (``support.walk_orbit_statuses``)."""

import itertools
import math
import random

import pytest

from digsys import (
    Fp,
    FpPoly,
    GaussianInt,
    Poly,
    Z,
    ZI,
    decide_fep,
    decide_pep,
    seed_witnesses,
    validate_system,
    witness,
    witness_closure,
)
from digsys.ffds import canonical_ff_digits

from support import (
    element_orbit_statuses,
    evaluate_at,
    gauss_example,
    gaussian_rational,
    modulus_sq,
    rand_ff_modulus,
    walk_orbit_statuses,
)

# a closure that crosses this cap has more members than every smaller cap
# lets it hold, so it stabilises at none of the caps 0..RAW_CAP
RAW_CAP = 2000
CAP = 300  # the verdicts compared with the raw search
STEPS = 30  # steps of each divergent orbit
DIGIT_KINDS = ("residues", "without 0", "negated", "non-constant")
F2, F3 = Fp(2), Fp(3)


def value(ring, c):
    """The Euclidean value: |c| over Z, the norm over Z[i]."""
    return abs(c) if ring == Z else c.norm()


def coefficient(rng, ring, lo, hi):
    """A random coefficient of Euclidean value in [lo, hi]."""
    if ring == Z:
        return rng.randint(lo, hi) * rng.choice((1, -1))
    bound = math.isqrt(hi)
    while True:
        g = GaussianInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if lo <= g.norm() <= hi:
            return g


def digits(rng, ring, p0, kind):
    """One digit per residue of p0: the residues themselves, the residues
    with 0 replaced by a unit times p0, the negated residues, or the
    residues plus x*g for small g, some nonzero."""
    residues = list(ring.residues(p0))
    if kind == "residues":
        return residues
    if kind == "negated":
        return [-r for r in residues]
    units = [1, -1] if ring == Z else [GaussianInt(*u) for u in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    if kind == "without 0":
        unit = rng.choice(units)
        return [r if r else unit * p0 for r in residues]
    # the first digit always moves with x, so the set is not constant
    slopes = [
        rng.choice(units) if i == 0 or rng.random() < 0.5 else 0
        for i in range(len(residues))
    ]
    return [Poly.make(ring, [r, g]) for r, g in zip(residues, slopes)]


def modes(system):
    return ("brunotte", "power") if system.digits_constant else ("power",)


def sample(rng, ring, degree, lead_values):
    """(kind, system) pairs on one random base of the given degree whose
    p0 has Euclidean value 2..5 (Z) or 2..8 (Z[i]) and whose lead has a
    value in ``lead_values(value of p0)``, one per digit kind."""
    p0 = coefficient(rng, ring, 2, 5 if ring == Z else 8)
    lo, hi = lead_values(value(ring, p0))
    lead = coefficient(rng, ring, lo, hi)
    mid = [coefficient(rng, ring, 0, 4) for _ in range(degree - 1)]
    modulus = Poly.make(ring, [p0, *mid, lead])
    return [
        (kind, validate_system(ring, modulus, digits(rng, ring, p0, kind))) for kind in DIGIT_KINDS
    ]


@pytest.fixture(scope="module")
def inside():
    """Per ring Z, Z[i] and degree 1..3, two bases with E(p0) < E(p_d),
    each with every digit kind."""
    rng = random.Random(20261020)
    out = []
    for ring, degree, _ in itertools.product((Z, ZI), (1, 2, 3), range(2)):
        span = 3 if ring == Z else 10
        out += sample(rng, ring, degree, lambda v: (v + 1, v + span))
    return out


def test_raw_search_never_stabilises(inside):
    for _, system in inside:
        mode = witness.default_mode(system)
        closure = witness_closure(system, seed_witnesses(system, mode), RAW_CAP)
        assert not closure.stabilized and len(closure) == RAW_CAP + 1, system


def test_stage_builds_no_closure(inside, monkeypatch):
    def no_closure(*args):
        raise AssertionError("a closure was built")

    monkeypatch.setattr(witness, "_closure", no_closure)
    seen = {kind: 0 for kind in DIGIT_KINDS}
    for kind, system in inside:
        q, ring = system.qring, system.ring
        values = {"value_p0": value(ring, q.p0), "value_pd": value(ring, q.pd)}
        assert values["value_p0"] < values["value_pd"]
        for mode, cap in itertools.product(modes(system) + (None,), (0, 100, RAW_CAP)):
            for decide, prop in ((decide_fep, "fep"), (decide_pep, "pep")):
                verdict = decide(system, cap, mode)
                assert (verdict.prop, verdict.answer) == (prop, "unknown")
                # an int, as for a capped closure: callers subtract the cap
                assert verdict.witnesses == 0 and verdict.stabilized is False
                assert verdict.certificate == {
                    "cap": cap,
                    "mode": mode or witness.default_mode(system),
                    "root_inside": values,
                }
                assert "reduction theorem" in verdict.reason
        seen[kind] += 1
    assert min(seen.values()) == 12, seen


def test_divergent_orbits_at_the_root(inside):
    """From A = n with n (1 - r) > M, where alpha = -p0/p1, r = |alpha| and
    M bounds |e(alpha)| over the digits, every step A = e + X*T(A), checked
    in element arithmetic, strictly raises |A(alpha)|, evaluated in Q(i)."""
    walked = 0
    for _, system in inside:
        q = system.qring
        if q.d != 1:
            continue
        (a, b), (c, d) = gaussian_rational(q.p0), gaussian_rational(q.pd)
        norm = c * c + d * d
        alpha = (-(a * c + b * d) / norm, -(b * c - a * d) / norm)
        r_sq = modulus_sq(alpha)
        assert r_sq < 1
        m_sq = max(modulus_sq(evaluate_at(e, alpha)) for e in system.digits)
        bound = math.isqrt(math.ceil(m_sq)) + 1  # an integer above M
        n = bound + 1
        while (n - bound) ** 2 <= n * n * r_sq:
            n *= 2
        digit_set = set(system.digits)
        cur = q.from_const(n)
        here = evaluate_at(cur, alpha)
        sizes = [modulus_sq(here)]
        for _ in range(STEPS):
            nxt = system.step(cur)
            e = cur - q.mul_x(nxt)
            assert e in digit_set, system
            there, digit = evaluate_at(nxt, alpha), evaluate_at(e, alpha)
            # A(alpha) = e(alpha) + alpha * T(A)(alpha): evaluation is a ring map
            assert here == (
                digit[0] + alpha[0] * there[0] - alpha[1] * there[1],
                digit[1] + alpha[0] * there[1] + alpha[1] * there[0],
            )
            sizes.append(modulus_sq(there))
            cur, here = nxt, there
        assert all(s < t for s, t in zip(sizes, sizes[1:])), system
        walked += 1
    assert walked == 16


def test_other_bases_keep_the_raw_verdicts():
    """E(p0) >= E(p_d), monic and equal values included: the verdicts are
    those of the raw search, witness counts and reasons included."""
    rng = random.Random(20261021)
    systems = []
    for ring, degree, _ in itertools.product((Z, ZI), (1, 2, 3), range(2)):
        systems += sample(rng, ring, degree, lambda v: (1, v))
    # chains p0 > p1 >= ... >= p_d > 0 with the digits 0..p0-1, and the
    # paper's Gaussian example, have finite expansions
    for degree in (1, 2, 3):
        p0 = rng.randint(2, 6)
        chain = sorted((rng.randint(1, p0 - 1) for _ in range(degree)), reverse=True)
        systems.append(("residues", validate_system(Z, Poly.make(Z, [p0, *chain]), range(p0))))
    systems.append(("residues", gauss_example()))
    seen = {"equal": 0, "capped": 0, "yes": 0, "no": 0}
    for _, system in systems:
        q, ring = system.qring, system.ring
        seen["equal"] += value(ring, q.p0) == value(ring, q.pd)
        for mode in modes(system):
            closure = witness_closure(system, seed_witnesses(system, mode), CAP)
            fep, pep = decide_fep(system, CAP, mode), decide_pep(system, CAP, mode)
            for verdict in (fep, pep):
                assert (verdict.witnesses, verdict.stabilized) == (len(closure), closure.stabilized)
            if not closure.stabilized:
                seen["capped"] += 1
                assert fep.answer == pep.answer == "unknown", system
                assert fep.reason == pep.reason == f"witness closure exceeded {CAP} elements"
                assert fep.certificate == pep.certificate == {"cap": CAP, "mode": mode}
                continue
            assert pep.answer == "yes" and pep.certificate["rounds"] == closure.rounds
            _, cycles = element_orbit_statuses(system, closure.elements)
            assert fep.answer == ("no" if cycles else "yes"), system
            if cycles:
                assert fep.certificate["cycle"] == min(cycles, key=lambda c: q.sort_key(c[0]))
            seen[fep.answer] += 1
    assert min(seen.values()) >= 4, seen


def ff_digits(rng, modulus, kind):
    """The canonical digits of an F_p[y] base, or them with 0 replaced by
    k*p0 for a random nonzero k of y-degree at most 1."""
    canonical = list(canonical_ff_digits(modulus))
    if kind == "residues":
        return canonical
    p = modulus.ring.p
    k = FpPoly.make(p, [rng.randrange(p), rng.randrange(1, p)][: rng.randint(1, 2)])
    while not k:
        k = FpPoly.make(p, [rng.randrange(p)])
    return [r if r else k * modulus.constant for r in canonical]


def test_single_pass_statuses_match_the_walk():
    """Statuses and rotated cycles, in the order found, on seeded stabilised
    closures over Z (d = 1..3), Z[i] and F_p[y], with and without 0 in the
    digit set."""
    rng = random.Random(20261022)
    systems = []
    for ring, degree, _ in itertools.product((Z, ZI), (1, 2, 3), range(3)):
        # p_d a unit or of the least value: most such bases are expanding
        systems += [s for _, s in sample(rng, ring, degree, lambda v: (1, 2))]
    for ring, _ in itertools.product((F2, F3), range(12)):
        modulus = rand_ff_modulus(rng, ring, max_dx=2, max_dy=2)
        for kind in ("residues", "without 0"):
            systems.append(validate_system(ring, modulus, ff_digits(rng, modulus, kind)))
    seen = {"Z": 0, "Z[i]": 0, "F_p[y]": 0, "without 0": 0, "cycles": 0, "residue parts": 0}
    for system in systems:
        q, ring = system.qring, system.ring
        for mode in modes(system):
            closure = witness_closure(system, seed_witnesses(system, mode), RAW_CAP)
            if not closure.stabilized:
                continue
            got = witness._orbit_statuses(system, closure)
            assert got == walk_orbit_statuses(system, closure), system
            seen["Z" if ring == Z else "Z[i]" if ring == ZI else "F_p[y]"] += 1
            seen["without 0"] += q.zero not in system.digits
            seen["cycles"] += len(got[1])
            seen["residue parts"] += any(len(v) > q.d for v in closure.atoms)
    assert min(seen.values()) >= 10, seen
