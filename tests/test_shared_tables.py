"""The process-wide tables of the dynamics: closure rows shared by the
constant digit sets with one (ring, p0, digits) key, and F_p[y] dividers
shared per modulus.  A warm table must change nothing: every closure and
verdict is compared with the one built after the tables were emptied."""

import random
import threading
from collections.abc import Mapping

from digsys import (
    Fp,
    FpPoly,
    GaussianInt,
    Poly,
    Z,
    ZI,
    canonical_ff_digits,
    decide_fep,
    decide_pep,
    validate_system,
    witness,
    witness_closure,
)
from digsys.fppoly import SHARED_DIVIDERS, _divider
from digsys.rings import SHARED_ROW_ENTRIES, SHARED_ROW_SETS, _ROWS, _clear_shared, _RowTable

from support import tuple_divmod

F2, F3 = Fp(2), Fp(3)
CAP = 150


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
    for mode in ("brunotte", "power"):
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
            # one shared table per (ring, p0, digits), whatever p_1..p_d
            assert _ROWS.size()[0] == groups
        assert capped >= 20 and stabilized >= 20

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

        orders = [list(range(len(specs))), list(reversed(range(len(specs))))]
        threads = [threading.Thread(target=run, args=(orders[k % 2],)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_digit_set_bound(self):
        # 300 digit sets of p0 = 2: {0, 1 + 2k}
        _clear_shared()
        modulus = Poly.make(Z, [2, 1, 1])
        for k in range(300):
            system = validate_system(Z, modulus, [0, 1 + 2 * k])
            witness_closure(system, witness._seed_atoms(system, "brunotte"), 20, atoms=True)
            sets, entries = _ROWS.size()
            assert sets <= SHARED_ROW_SETS and entries <= SHARED_ROW_ENTRIES
        assert _ROWS.size()[0] == SHARED_ROW_SETS

    def test_entry_bound(self):
        # p0 = 300 with digits r + 300*k_r for scattered k_r: each of the 300
        # rows holds nearly 300 distinct deltas, so one digit set alone is
        # past the bound; it leaves the table, and its closure keeps the rows
        rng = random.Random(7)
        n = 300
        digits = [r + n * rng.randint(-(10**6), 10**6) for r in range(n)]
        system = validate_system(Z, Poly.make(Z, [n, 1]), digits)
        shifts = [e for e in system.digits if not e.is_zero]
        qring, atoms = system.qring, system.ring.atoms
        _clear_shared()
        images = witness._coordinate_images(system)
        for q in range(n):
            got = images((q,))
            sets, entries = _ROWS.size()
            assert sets <= SHARED_ROW_SETS and entries <= SHARED_ROW_ENTRIES
            if q % 37 == 0:
                x = qring.from_coords((q,))
                want = [system.step(x)] + [system.step(x + e) for e in shifts]
                assert got == list(dict.fromkeys(atoms(qring.coords(w)) for w in want))
        assert _ROWS.size() == (0, 0)

    def test_least_recently_used_out_first(self):
        table = _RowTable(sets=2, entries=10)
        a, b = table.rows("a"), table.rows("b")
        table.store("a", a, 0, (1, 2))  # 3 entries
        table.store("b", b, 0, (1,))  # 2 entries
        assert table.size() == (2, 5)
        assert table.rows("a") is a  # "a" is used again, so "b" is the oldest
        c = table.rows("c")  # a third digit set evicts "b"
        assert table.size() == (2, 3)
        table.store("c", c, 0, (1,) * 6)  # 10 entries in all: within the bound
        assert table.size() == (2, 10)
        table.store("c", c, 1, ())  # one more evicts the oldest, "a"
        assert table.size() == (1, 8) and table.rows("c") is c
        # a digit set past the bound by itself leaves the table, and its rows
        # stay with the closure that holds them
        table.store("c", c, 2, (1,) * 20)
        assert table.size() == (0, 0) and c[2] == (1,) * 20
        assert table.rows("c") is not c and table.rows("b") is not b


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
