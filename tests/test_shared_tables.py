"""The process-wide tables of the dynamics: constant digit sets interned
per (ring, p0, digits) with the closure rows they share, and F_p[y]
dividers shared per modulus.  A warm table must change nothing: every
system, validation error, closure and verdict is compared with the one
built after the tables were emptied."""

import functools
import random
import sys
import threading
from collections.abc import Mapping

import pytest

from digsys import (
    Fp,
    FpPoly,
    GaussianInt,
    Poly,
    ValidationError,
    Z,
    ZI,
    canonical_ff_digits,
    decide_fep,
    decide_pep,
    parse_poly,
    validate_system,
    witness,
    witness_closure,
)
from digsys.fppoly import SHARED_DIVIDERS, SHARED_PRIMES, _divider, _plane, _width
from digsys.rings import (
    _DIGIT_SETS,
    _is_prime,
    SHARED_DIGIT_SETS,
    SHARED_ENTRIES,
    _clear_shared,
    _DigitSets,
)

from support import images_of, tuple_divmod

F2, F3 = Fp(2), Fp(3)
CAP = 150
# digits of x^2+5x+6 that are not constant in x
LISTED = ("0", "1", "x+2", "x+3", "2x+4", "2x+5")


def _coeffs(rng, p, n):
    """n random coefficients mod p, the last nonzero."""
    return tuple(rng.randrange(p) for _ in range(n - 1)) + (rng.randrange(1, p),) if n else ()


def _z_groups(rng):
    """(ring, p0, digits, d range) per group: canonical and scattered digits."""
    groups = []
    for p0 in (3, -4, 5):
        n = abs(p0)
        groups.append((Z, p0, list(range(n)), (1, 3)))
        groups.append((Z, p0, [r + n * rng.randint(-2, 2) for r in range(n)], (1, 3)))
    return groups


def _zi_groups(rng):
    groups = []
    for p0 in (GaussianInt(2, 1), GaussianInt(1, -2), GaussianInt(3, 1)):
        residues = ZI.residues(p0)
        groups.append((ZI, p0, residues, (1, 2)))
        shifted = [r + p0 * GaussianInt(rng.randint(-1, 1), rng.randint(-1, 1)) for r in residues]
        groups.append((ZI, p0, shifted, (1, 2)))
    return groups


def _middle(rng, ring):
    if ring == Z:
        return rng.randint(-6, 6)
    if ring == ZI:
        return GaussianInt(rng.randint(-3, 3), rng.randint(-3, 3))
    return FpPoly.make(ring.p, [rng.randrange(ring.p) for _ in range(rng.randint(0, 3))])


def _lead(rng, ring):
    if ring == Z:
        return rng.choice((1, -1, 2, 3))
    if ring == ZI:
        return rng.choice((GaussianInt(1, 0), GaussianInt(0, 1), GaussianInt(1, 1)))
    return FpPoly.make(ring.p, [rng.randrange(1, ring.p)] + [rng.randrange(ring.p)])


def grid(seed=31, per_group=4):
    """Systems that share (p0, digits) in groups and differ in p_1..p_d:
    Z with d = 1-3, Z[i] with d = 1-2, F2[y] and F3[y] with canonical digits.
    Returns a list of (ring, coefficients, digits) and the number of groups."""
    rng = random.Random(seed)
    groups = _z_groups(rng) + _zi_groups(rng)
    for ring, p0 in ((F2, F2.parse("y^2+1")), (F2, F2.parse("y^3+y+1")), (F3, F3.parse("y^2+y+2"))):
        groups.append((ring, p0, None, (1, 3)))
    out = []
    for ring, p0, digits, (lo, hi) in groups:
        for _ in range(per_group):
            d = rng.randint(lo, hi)
            coeffs = [p0] + [_middle(rng, ring) for _ in range(d - 1)] + [_lead(rng, ring)]
            out.append((ring, coeffs, digits))
    return out, len(groups)


def build(ring, coeffs, digits):
    modulus = Poly.make(ring, coeffs)
    if digits is None:
        digits = canonical_ff_digits(modulus)
    return validate_system(ring, modulus, digits)


def _certificate(verdict):
    return {k: dict(v) if isinstance(v, Mapping) else v for k, v in verdict.certificate.items()}


def summary(system):
    """Everything a closure and its verdicts show, in comparable form."""
    out = []
    for mode in ("brunotte", "power") if system.digits_constant else ("power",):
        closure = witness_closure(system, witness._seed_atoms(system, mode), CAP, atoms=True)
        out.append(
            (closure.atoms, list(closure.atom_succ.items()), closure.rounds, closure.stabilized)
        )
    for decide in (decide_fep, decide_pep):
        v = decide(system, closure_cap=CAP)
        out.append((v.prop, v.answer, v.reason, v.witnesses, v.stabilized, _certificate(v)))
    return out


def cold(spec):
    """The summary of a system built and closed with the shared tables emptied."""
    _clear_shared()
    return summary(build(*spec))


def assert_counted():
    """The table's entry count is that of the digit sets and rows it holds."""
    with _DIGIT_SETS._lock:
        held = list(_DIGIT_SETS._table.values())
    for digit_set, n in held:
        rows = digit_set.rows.values()
        assert n == len(digit_set.constants) + sum(len(row) + 1 for row in rows)
    assert _DIGIT_SETS.size() == (len(held), sum(n for _, n in held))


def in_threads(run, orders):
    """``run(order)`` in four threads, two per order, switching often, then
    the table's count checked: a lost update would break it."""
    threads = [threading.Thread(target=run, args=(orders[k % 2],)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert_counted()


def invalid_specs():
    """Digit sets that fail the residue check over Z, Z[i] and F3[y]: a wrong
    count, a repeated residue class, and both at once."""
    g = GaussianInt
    y2 = F3.parse("y^2+y+2")
    canonical = list(canonical_ff_digits(Poly.make(F3, [y2, F3.one])))
    zi = ZI.residues(g(2, 1))
    return [
        (Z, [5, 1, 2], [0, 1, 2, 3]),
        (Z, [5, -2, 3], [0, 1, 2, 3, 8]),
        (Z, [5, 1, 2], [0, 1, 6]),
        (ZI, [g(2, 1), g(1, 1)], zi[:4]),
        (ZI, [g(2, 1), g(0, 1), g(1, 0)], zi[:4] + [zi[0] + g(2, 1)]),
        (ZI, [g(2, 1), g(1, 1)], zi[:2] + [zi[1] + g(-1, 2)]),
        (F3, [y2, F3.one], canonical[:8]),
        (F3, [y2, F3.parse("y"), F3.one], canonical[:8] + [canonical[1] + y2]),
        (F3, [y2, F3.one], canonical[:3] + [canonical[0] + y2]),
    ]


def attributes(spec):
    """What validation gives: the error texts, or every attribute of the system."""
    try:
        system = build(*spec)
    except ValidationError as e:
        return "error", e.violations
    q, ring = system.qring, system.ring
    ints = [s * n for n in range(1, 21) for s in (1, -1)]
    return (
        system.digits,
        system.digits_constant,
        system.k,
        system.constant_digits() if system.digits_constant else None,
        [system.digit_of(q.from_const(ring.coerce(n))) for n in ints],
        system.zero_cycle(cap=300),
    )


class TestColdAndWarm:
    """Validation gives the same systems and errors whatever the table holds."""

    def specs(self):
        specs, _ = grid(seed=33, per_group=2)
        # the invalid sets share their keys' p0 with valid ones around them
        return specs + invalid_specs()

    def test_error_texts(self):
        texts = [attributes(spec) for spec in invalid_specs()]
        assert all(t[0] == "error" for t in texts)
        assert texts[2][1] == [
            "the digit set has 3 elements but the residue ring modulo 5 has 5",
            "digits 1 and 6 lie in the same residue class (constant coefficients "
            "congruent to 1 mod 5)",
        ]
        # a wrong count, a repeated class, both: one, one and two violations
        assert [len(t[1]) for t in texts] == [1, 1, 2] * 3
        # each repeat names the first digit of its class, past earlier repeats
        assert attributes((Z, [5, 1], [0, 5, 1, 6, 2, 3]))[1][1:] == [
            "digits 0 and 5 lie in the same residue class (constant coefficients "
            "congruent to 0 mod 5)",
            "digits 1 and 6 lie in the same residue class (constant coefficients "
            "congruent to 1 mod 5)",
        ]

    def test_attributes_match_cold_tables(self):
        specs = self.specs()
        want = []
        for spec in specs:
            _clear_shared()
            want.append(attributes(spec))
        for order in (list(range(len(specs))), list(reversed(range(len(specs))))):
            _clear_shared()
            for _ in range(2):  # the second pass validates every set warm
                for i in order:
                    assert attributes(specs[i]) == want[i], specs[i]

    def test_threads_validate_one_grid(self):
        specs = self.specs()
        want = []
        for spec in specs:
            _clear_shared()
            want.append(attributes(spec))
        _clear_shared()
        errors = []

        def run(order):
            try:
                for i in order:
                    if attributes(specs[i]) != want[i]:
                        errors.append(specs[i])
            except Exception as e:  # pragma: no cover - reported below
                errors.append(e)

        in_threads(run, [list(range(len(specs))), list(reversed(range(len(specs))))])
        assert not errors


class TestSharedRows:
    def test_closures_match_cold_tables(self):
        specs, groups = grid()
        want = [cold(spec) for spec in specs]
        capped = stabilized = 0
        for order in (list(range(len(specs))), list(reversed(range(len(specs))))):
            _clear_shared()
            for i in order:
                got = summary(build(*specs[i]))
                assert got == want[i], specs[i]
                capped += not got[0][3]
                stabilized += got[0][3]
            # one digit set per (ring, p0, digits), whatever p_1..p_d
            assert _DIGIT_SETS.size()[0] == groups
            assert_counted()
        assert capped >= 20 and stabilized >= 20

    def test_one_digit_set_per_key(self):
        _clear_shared()
        first = validate_system(Z, Poly.make(Z, [5, 1, 2]), range(5))
        for middle in range(-3, 4):
            system = validate_system(Z, Poly.make(Z, [5, middle, 3]), list(range(5)))
            assert system.digit_set is first.digit_set
        assert validate_system(Z, Poly.make(Z, [5, 1]), range(-2, 3)).digit_set is not (
            first.digit_set
        )
        assert _DIGIT_SETS.size() == (2, 10)
        # a failing set and a set that is not constant are not held
        with pytest.raises(ValidationError):
            validate_system(Z, Poly.make(Z, [5, 1]), [0, 1, 2, 3, 8])
        validate_system(Z, parse_poly(Z, "x^2+5x+6"), [parse_poly(Z, t) for t in LISTED])
        assert _DIGIT_SETS.size() == (2, 10)

    def test_shared_key_with_a_set_that_is_not_constant(self):
        # x^2+5x+6 with the listed digits has the key (Z, 6, 0..5) of
        # x^2+x+6 with range(6); neither may read the other's rows
        listed = [parse_poly(Z, t) for t in LISTED]
        specs = [(Z, [6, 5, 1], listed), (Z, [6, 1, 1], list(range(6)))]
        qring = build(*specs[0]).qring
        seed = [qring.from_coords((a, b)) for a in range(-3, 4) for b in range(-3, 4)]

        def view(system):
            q, atoms = system.qring, system.ring.atoms
            images = functools.partial(images_of, system)
            points = [atoms(q.coords(q.from_coords((a, b)))) for a in range(-5, 6) for b in (-2, 3)]
            closure = witness_closure(system, seed if system.qring == qring else [], CAP)
            return [images(v) for v in points], closure.atoms, summary(system)

        want = []
        for spec in specs:
            _clear_shared()
            want.append(view(build(*spec)))
        assert want[0][0] != want[1][0]
        for order in ((0, 1), (1, 0)):
            _clear_shared()
            for _ in range(2):
                for i in order:
                    assert view(build(*specs[i])) == want[i], specs[i]

    def test_threads_share_rows(self):
        specs, _ = grid(seed=32, per_group=1)
        want = [cold(spec) for spec in specs]
        _clear_shared()
        errors = []

        def run(order):
            try:
                for i in order:
                    if summary(build(*specs[i])) != want[i]:
                        errors.append(specs[i])
            except Exception as e:  # pragma: no cover - reported below
                errors.append(e)

        in_threads(run, [list(range(len(specs))), list(reversed(range(len(specs))))])
        assert not errors

    def test_digit_set_bound(self):
        # 300 digit sets of p0 = 2: {0, 1 + 2k}
        _clear_shared()
        modulus = Poly.make(Z, [2, 1, 1])
        for k in range(300):
            system = validate_system(Z, modulus, [0, 1 + 2 * k])
            witness_closure(system, witness._seed_atoms(system, "brunotte"), 20, atoms=True)
            sets, entries = _DIGIT_SETS.size()
            assert sets <= SHARED_DIGIT_SETS and entries <= SHARED_ENTRIES
        assert _DIGIT_SETS.size()[0] == SHARED_DIGIT_SETS
        assert_counted()

    def test_entry_bound(self):
        # p0 = 300 with digits r + 300*k_r for scattered k_r: each of the 300
        # rows holds nearly 300 distinct deltas, so one digit set alone is
        # past the bound; it leaves the table, and its system keeps the rows
        rng = random.Random(7)
        n = 300
        digits = [r + n * rng.randint(-(10**6), 10**6) for r in range(n)]
        _clear_shared()
        system = validate_system(Z, Poly.make(Z, [n, 1]), digits)
        assert _DIGIT_SETS.size() == (1, n)
        shifts = [e for e in system.digits if not e.is_zero]
        qring, atoms = system.qring, system.ring.atoms
        images = functools.partial(images_of, system)
        for q in range(n):
            got = images((q,))
            sets, entries = _DIGIT_SETS.size()
            assert sets <= SHARED_DIGIT_SETS and entries <= SHARED_ENTRIES
            if q % 37 == 0:
                x = qring.from_coords((q,))
                want = [system.step(x)] + [system.step(x + e) for e in shifts]
                assert got == list(dict.fromkeys(atoms(qring.coords(w)) for w in want))
        assert _DIGIT_SETS.size() == (0, 0) and len(system.digit_set.rows) == n

    def test_least_recently_used_out_first(self):
        table = _DigitSets(sets=2, entries=20)
        a = table.get(Z, 3, (0, 1, 2), str)  # 3 entries, one per digit
        b = table.get(Z, 3, (0, 1, 5), str)
        table.store(a, 0, (1, 2))  # 3 entries
        assert table.size() == (2, 9)
        assert table.get(Z, 3, (0, 1, 2), str) is a  # "a" is used again, so "b" is the oldest
        c = table.get(Z, 7, tuple(range(7)), str)  # a third digit set evicts "b"
        assert table.size() == (2, 13)
        table.store(c, 0, (1,) * 6)  # 20 entries in all: within the bound
        table.store(c, 0, (2,))  # a residue's row is stored once
        assert table.size() == (2, 20) and c.rows[0] == (1,) * 6
        table.store(c, 1, ())  # one more evicts the oldest, "a"
        assert table.size() == (1, 15) and table.get(Z, 7, tuple(range(7)), str) is c
        # a digit set past the bound by itself leaves the table, and its rows
        # stay with the systems that hold it
        table.store(c, 2, (1,) * 10)
        assert table.size() == (0, 0) and c.rows[2] == (1,) * 10
        assert table.get(Z, 7, tuple(range(7)), str) is not c
        assert table.get(Z, 3, (0, 1, 5), str) is not b

    def test_empty_row_is_counted_once(self):
        # every empty tuple is the one object (), so a second store of an
        # empty row at the same residue must be told apart by the residue
        table = _DigitSets(sets=4, entries=100)
        a = table.get(Z, 5, tuple(range(5)), str)
        assert table.size() == (1, 5)
        table.store(a, 0, ())
        table.store(a, 0, ())
        assert table.size() == (1, 6) and a.rows == {0: ()}


class TestSharedDividers:
    def test_one_divider_per_modulus(self):
        _clear_shared()
        p0, one = F2.parse("y^2+y+1"), F2.one
        build(F2, [p0, F2.parse("y"), one], None)
        assert _divider(2, p0[1]) is _divider(2, p0[1])
        built = _divider.cache_info().currsize
        # a second base with the same p0 and lead builds no divider
        build(F2, [p0, F2.parse("y+1"), F2.zero, one], None)
        assert _divider.cache_info().currsize == built

    def test_divider_bound(self):
        _clear_shared()
        for k in range(2, 2 + SHARED_DIVIDERS + 50):
            m = FpPoly(2, tuple(int(b) for b in bin(k)[:1:-1]))
            F2.divider(m)(FpPoly(2, (1,) * 12))
            assert _divider.cache_info().currsize <= SHARED_DIVIDERS
        assert _divider.cache_info().currsize == SHARED_DIVIDERS

    def test_per_prime_caches_bound(self):
        # many characteristics keep at most the bound of rings, slot widths
        # and byte planes; an evicted ring is rebuilt equal to the old one
        first = Fp(1_000_003)
        primes = [p for p in range(1_000_003, 1_100_000, 2) if _is_prime(p)][:2000]
        assert len(primes) == 2000
        for p in primes:
            ring = Fp(p)
            r, q = ring.divider(ring.parse("y+1"))(ring.parse("y^3+2"))
            assert (r, q) == (ring.one, ring.parse(f"y^2+{p - 1}y+1"))
        for cache in (Fp, _width, _plane):
            assert cache.cache_info().currsize <= SHARED_PRIMES
        again = Fp(1_000_003)
        assert again is not first and again == first and hash(again) == hash(first)
        assert Fp(1_000_003) == Fp(1_000_003)
        assert first.parse("y+2") * first.parse("y") == again.parse("y^2+2y")

    def test_extended_series_divides_as_a_fresh_one(self):
        rng = random.Random(41)
        for p in (2, 3, 131):
            m = tuple(rng.randrange(p) for _ in range(3)) + (rng.randrange(1, p),)
            packed = FpPoly(p, m)[1]
            shared = _divider(p, packed)
            # a long dividend extends the shared series first
            long = FpPoly(p, _coeffs(rng, p, 900))[1]
            assert shared(long) == _divider.__wrapped__(p, packed)(long)
            for length in (0, 1, 3, 4, 5, 9, 40, 300, 1200):
                a = _coeffs(rng, p, length)
                q, r = tuple_divmod(p, a, m)
                fresh = _divider.__wrapped__(p, packed)
                got = shared(FpPoly(p, a)[1])
                assert got == fresh(FpPoly(p, a)[1]) == (FpPoly(p, r)[1], FpPoly(p, q)[1])
