"""Shared helpers for the test suite: example systems and samplers."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from digsys import (
    Fp, FpPoly, GaussianInt, Poly, Z, ZI, parse_poly, seed_witnesses, validate_system, witness,
    witness_closure,
)
from digsys.digits import DigitSequence, PeriodicSetReport, ZeroCycle, rotate, walk
from digsys.product import ProductExpansion, ProductSystem

F2 = Fp(2)
F3 = Fp(3)


def example1():
    """Integers, P = 3x^2 - 2x + 5, digits {0..4}."""
    return validate_system(Z, parse_poly(Z, "3x^2-2x+5"), range(5))


def example1_symmetric():
    """Same base with digits {-2..2}."""
    return validate_system(Z, parse_poly(Z, "3x^2-2x+5"), range(-2, 3))


def example2():
    """F2[y], P = (y+1)x^2 + yx + (y^2+1), digits {1, y, y+1, y^3+y}."""
    digits = [F2.parse(t) for t in ("1", "y", "y+1", "y^3+y")]
    return validate_system(F2, parse_poly(F2, "(y+1)x^2+y*x+(y^2+1)"), digits)


def gauss_example():
    """Gaussian integers, P = (1+i)x + (1+2i), digits {0..4}."""
    return validate_system(ZI, parse_poly(ZI, "(1+i)x+(1+2i)"), range(5))


def gauss_paper_witnesses(system):
    """The displayed 13-element witness set {0, +-1+-i, +-2, +-(3-i),
    +-(4-2i), +-(2-2i)}."""
    pts = [(0, 0)]
    for a, b in [(1, 1), (1, -1), (2, 0), (3, -1), (4, -2), (2, -2)]:
        pts.append((a, b))
        pts.append((-a, -b))
    return {system.qring.from_const(GaussianInt(a, b)) for a, b in pts}


def residue_oracle(ring, a, m) -> tuple:
    """(r, q) with a = r + q*m by the formulas ``canonical_residue`` used
    before ``Ring.divider`` existed, kept as an independent oracle:
    r = a mod |m| over Z; q = a*conj(m)/N(m) rounded half down over Z[i];
    polynomial long division on coefficient tuples over F_p[y]."""
    if ring == Z:
        r = a % abs(m)
        return r, (a - r) // m
    if ring == ZI:
        num = a * m.conjugate()
        n = m.norm()
        q = GaussianInt((2 * num.re + n - 1) // (2 * n), (2 * num.im + n - 1) // (2 * n))
        return a - q * m, q
    q, r = tuple_divmod(a.p, a.coeffs, m.coeffs)
    return FpPoly(a.p, r), FpPoly(a.p, q)


def gaussian_residues_box(m) -> list:
    """The residue system mod m as ``GaussianIntegerRing.residues`` listed
    it before its O(N) scan: the box [0, N) x [0, N) with N = norm(m)
    meets every residue class, since N and N*i both lie in (m), so its
    distinct remainders, sorted by (re, im), form a complete system.  The
    remainders use ``residue_oracle``'s rounding, on plain ints."""
    mr, mi, n = m.re, m.im, m.norm()
    seen = set()
    for a in range(n):
        for b in range(n):
            qr = (2 * (a * mr + b * mi) + n - 1) // (2 * n)
            qi = (2 * (b * mr - a * mi) + n - 1) // (2 * n)
            seen.add((a - qr * mr + qi * mi, b - qr * mi - qi * mr))
    return [GaussianInt(re, im) for re, im in sorted(seen)]


@dataclass(frozen=True)
class DataclassGaussian:
    """``GaussianInt`` as the frozen dataclass it was before it became a
    pair of ints, kept as the oracle for the tuple-backed operators."""

    re: int
    im: int

    def __add__(self, other):
        return DataclassGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return DataclassGaussian(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return DataclassGaussian(-self.re, -self.im)

    def __mul__(self, other):
        return DataclassGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def conjugate(self):
        return DataclassGaussian(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im


def unit_inverse(ring, u):
    """u^-1 for a unit u: u itself over Z, conj(u) over Z[i], the inverse
    constant over F_p[y]."""
    if ring == Z:
        return u
    if ring == ZI:
        return u.conjugate()
    return FpPoly(u.p, (pow(u.coeffs[0], -1, u.p),))


def normalize_oracle(qring, f: Poly) -> tuple:
    """(low, tail) of the canonical form of f mod P by the loops
    ``QuotRing.normalize`` ran before ``Ring.divider`` accepted units:
    for a unit p_d, each coefficient at degree >= d is cleared with
    p_d^-1 times the whole of P; otherwise it keeps its
    ``residue_oracle`` residue mod p_d and passes the quotient down."""
    ring, d, pd, pc = qring.ring, qring.d, qring.pd, qring.modulus.coeffs
    inv = unit_inverse(ring, pd) if ring.is_unit(pd) else None
    coeffs = list(f.coeffs)
    for i in range(len(coeffs) - 1, d - 1, -1):
        if inv is not None:
            q = coeffs[i] * inv
            for j in range(d + 1):
                coeffs[i - d + j] = coeffs[i - d + j] - q * pc[j]
        else:
            r, q = residue_oracle(ring, coeffs[i], pd)
            for j in range(d):
                coeffs[i - d + j] = coeffs[i - d + j] - q * pc[j]
            coeffs[i] = r
    low, tail = coeffs[:d], coeffs[d:]
    for part in (low, tail):
        while part and not part[-1]:
            part.pop()
    return tuple(low), tuple(tail)


def divide_by_x_oracle(qring, a):
    """The (low, tail) of B with X*B = a, through ``residue_oracle`` and
    ``normalize_oracle``; None when p0 does not divide the constant."""
    f = qring.to_poly(a)
    r, q = residue_oracle(qring.ring, f.constant, qring.p0)
    if r:
        return None
    f = f - qring.modulus.scale(q)
    return normalize_oracle(qring, Poly.make(qring.ring, f.coeffs[1:]))


# Coefficient-tuple arithmetic over F_p (index = degree, no trailing
# zeros): the loops FpPoly used before it stored packed integers, kept as
# the oracle for the packed kernels and for ``Fp(p).divider``.


def _trim(out: list) -> tuple:
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def tuple_add(p: int, a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


def tuple_neg(p: int, a: tuple) -> tuple:
    return tuple((-c) % p for c in a)


def tuple_sub(p: int, a: tuple, b: tuple) -> tuple:
    return tuple_add(p, a, tuple_neg(p, b))


def tuple_mul(p: int, a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        for j, bv in enumerate(b):
            out[i + j] += av * bv
    return _trim([c % p for c in out])


def tuple_divmod(p: int, a: tuple, b: tuple) -> tuple:
    """(quotient, remainder) by schoolbook long division; b nonzero."""
    lb = len(b)
    rem = list(a)
    if len(rem) < lb:
        return (), tuple(a)
    inv = pow(b[-1], -1, p)
    quo = [0] * (len(rem) - lb + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + lb - 1] % p
        if c:
            q = (c * inv) % p
            quo[i] = q
            for j in range(lb):
                rem[i + j] -= q * b[j]
    return tuple(quo), _trim([c % p for c in rem[: lb - 1]])


def rand_ring_elem(rng: random.Random, ring, size: int = 20):
    if ring == Z:
        return rng.randint(-size, size)
    if ring == ZI:
        return GaussianInt(rng.randint(-size, size), rng.randint(-size, size))
    return FpPoly.make(ring.p, [rng.randrange(ring.p) for _ in range(rng.randint(0, 4))])


def rand_poly(rng: random.Random, ring, max_degree: int, size: int = 20) -> Poly:
    deg = rng.randint(0, max_degree)
    return Poly.make(ring, [rand_ring_elem(rng, ring, size) for _ in range(deg + 1)])


def rand_quot(rng: random.Random, system, extra_degree: int = 3, size: int = 20):
    f = rand_poly(rng, system.ring, system.qring.d + extra_degree, size)
    return system.qring.normalize(f)


def rand_ff_modulus(rng: random.Random, ring, max_dx: int = 3, max_dy: int = 3) -> Poly:
    """Random base polynomial over F_p[y]: deg_x in [1, max_dx], every
    coefficient of y-degree <= max_dy, p0 a non-unit and p_d nonzero."""

    def rand_c(min_len=0, max_len=max_dy + 1):
        return FpPoly.make(
            ring.p, [rng.randrange(ring.p) for _ in range(rng.randint(min_len, max_len))]
        )

    d = rng.randint(1, max_dx)
    p0 = rand_c(2)
    while p0.degree < 1:
        p0 = rand_c(2)
    coeffs = [p0]
    for _ in range(d - 1):
        coeffs.append(rand_c())
    lead = rand_c(1)
    while not lead:
        lead = rand_c(1)
    coeffs.append(lead)
    return Poly.make(ring, coeffs)


# Element-stepping oracles: every orbit walk and closure of the library
# runs on flat coordinates, and these recompute them with system.step.


def element_sequence(system, a, cap):
    """digit_sequence recomputed by stepping elements with system.step."""
    seen = {}
    digits = []
    cur = a
    n = 0
    while True:
        if cur.is_zero:
            return DigitSequence(tuple(digits), "finite", steps=n)
        if cur in seen:
            return DigitSequence(
                tuple(digits), "eventually-periodic", preperiod=seen[cur], period=n - seen[cur]
            )
        if n == cap:
            return DigitSequence(tuple(digits), "unknown", cap=cap)
        seen[cur] = n
        digits.append(system.digit_of(cur))
        cur = system.step(cur)
        n += 1


def element_zero_cycle(system, cap):
    """zero_cycle recomputed by stepping elements from 0 with system.step."""
    seen = {}
    digits = []
    cur = system.qring.zero
    for _ in range(cap):
        digits.append(system.digit_of(cur))
        cur = system.step(cur)
        if cur.is_zero:
            return ZeroCycle(tuple(digits))
        if cur in seen:
            return None
        seen[cur] = True
    return None


def element_periodic_set(system, seeds, cap):
    """periodic_set recomputed by walking elements with system.step: the
    element route ``DigitSystem.periodic_set`` took before it walked the
    atoms of flat coordinates."""
    if cap < 0:
        raise ValueError("cap must be at least 0")
    resolved = set()
    cycles = []
    capped = False
    for seed in sorted(seeds, key=system.qring.sort_key):
        kind, path, hit = walk(seed, system.step, resolved, cap)
        if kind == "cap":
            capped = True
            continue
        if kind == "cycle":
            cycles.append(rotate(list(path)[hit:], system.qring.sort_key))
        resolved.update(path)
    cycles.sort(key=lambda c: system.qring.sort_key(c[0]))
    zero = system.qring.zero
    return PeriodicSetReport(
        elements=frozenset(v for c in cycles for v in c),
        orbits=tuple(cycles),
        contains_zero=any(zero in c for c in cycles),
        capped=capped,
    )


def bfs_closure(system, seed, cap):
    """Breadth-first closure under v -> T(v + e), e in N and e = 0, on
    elements through system.step, with the cap checked between rounds:
    the oracle for witness_closure.  Returns (elements, rounds, stabilized);
    ``elements`` holds the whole levels up to ``rounds``."""
    shifts = set(system.digits) | {system.qring.zero}
    elements = set(seed)
    frontier = set(seed)
    rounds = 0
    while frontier:
        if len(elements) > cap:
            return elements, rounds, False
        frontier = {system.step(v + e) for v in frontier for e in shifts} - elements
        elements |= frontier
        rounds += 1
    return elements, rounds, len(elements) <= cap


def full_row_closure(system, seed, cap):
    """``witness_closure`` on the atoms ``seed`` as it ran while every closure
    row held one image per digit: the same breadth-first loop over the image
    lists [T(x)] + [T(x + e) for the nonzero digits e in digit order] of each
    member x, duplicates kept, stepped as elements with system.step.
    Returns (atoms, atom_succ, rounds, stabilized)."""
    qring, ring = system.qring, system.ring
    shifts = [e for e in system.digits if not e.is_zero]

    def images(v):
        x = qring.from_coords(ring.values(v))
        return [ring.atoms(qring.coords(system.step(y))) for y in [x] + [x + e for e in shifts]]

    frontier = sorted(set(seed))
    elements = set(seed)
    succ = {}
    rounds = 0
    while frontier and len(elements) <= cap:
        new = []
        for v in frontier:
            if len(elements) > cap:
                break
            found = images(v)
            succ[v] = found[0]
            for w in found:
                if w not in elements:
                    elements.add(w)
                    new.append(w)
                    if len(elements) > cap:
                        break
        frontier = new
        rounds += 1
    return frozenset(elements), succ, rounds, not frontier


def assert_closure_matches_full_rows(system, seed, cap):
    """``witness_closure`` of the atoms ``seed`` against ``full_row_closure``:
    the same members, rounds and stabilisation, and the same T-map with its
    members expanded in the same order.  Returns the closure."""
    closure = witness_closure(system, seed, cap, atoms=True)
    atoms, succ, rounds, stabilized = full_row_closure(system, seed, cap)
    got = (closure.atoms, closure.rounds, closure.stabilized)
    assert got == (atoms, rounds, stabilized), system
    assert list(closure.atom_succ.items()) == list(succ.items()), system
    return closure


def images_of(system, v) -> list:
    """The images of the member ``v`` (atoms) that a closure adds: the round
    of ``witness._grow`` on the frontier [v] with no members, so T(v), then
    each distinct T(v + e) != T(v) for the nonzero digits e in digit order."""
    return witness._grow(system)([v], set(), {}, len(system.digits) + 1)


def assert_closure_matches_bfs(system, seed, cap, closure):
    """``closure`` (``witness_closure(system, seed, cap)``) against
    ``bfs_closure``: a stabilised closure is the oracle's, found in as many
    rounds; a capped one stopped inside the round where the oracle crossed
    the cap, at the member that crossed it, so it holds cap + 1 of the
    oracle's members (all the seeds when they are more)."""
    elements, rounds, stabilized = bfs_closure(system, seed, cap)
    assert (closure.rounds, closure.stabilized) == (rounds, stabilized), system
    if stabilized:
        assert closure.elements == elements, system
    else:
        assert len(closure) == max(cap + 1, len(set(seed))), system
        assert closure.elements <= elements, system
    assert len(closure) == len(closure.elements)


def assert_seed_atoms_match(system, mode):
    """The atoms ``decide_fep`` seeds its closure with are those of the
    coordinates of ``seed_witnesses``; the basis seeds are built directly,
    so they are also compared with the converted elements, and every seed
    converts back to its element through ``from_coords``."""
    q, ring = system.qring, system.ring
    seeds, got = seed_witnesses(system, mode), witness._seed_atoms(system, mode)
    if mode == "brunotte":
        assert set(got) == {ring.atoms(q.coords(g)) for g in seeds}, system
    assert len(set(got)) == len(seeds), system
    assert {q.from_coords(ring.values(v)) for v in got} == seeds, system


def element_orbit_statuses(system, elements):
    """Orbit statuses by stepping elements with system.step: the oracle
    for the statuses that decide_fep reads from the closure's T-images."""
    qring = system.qring
    status: dict = {}
    cycles: list[tuple] = []
    for v in sorted(elements, key=qring.sort_key):
        path = []
        index = {}
        cur = v
        while True:
            if cur.is_zero:
                status.setdefault(cur, (True, 0))
                steps = 0
                for u in reversed(path):
                    steps += 1
                    status[u] = (True, steps)
                break
            if cur in status:
                reaches, steps = status[cur]
                for offset, u in enumerate(reversed(path), start=1):
                    status[u] = (reaches, steps + offset if reaches else steps)
                break
            if cur in index:
                cyc = path[index[cur] :]
                start = min(range(len(cyc)), key=lambda i: qring.sort_key(cyc[i]))
                cycles.append(tuple(cyc[start:] + cyc[:start]))
                for u in cyc:
                    status[u] = (False, len(cyc))
                for u in path[: index[cur]]:
                    status[u] = (False, len(cyc))
                break
            index[cur] = len(path)
            path.append(cur)
            cur = system.step(cur)
    return status, cycles


def walk_orbit_statuses(system, closure):
    """``witness._orbit_statuses`` as it ran before its single pass: one
    ``digits.walk`` of ``closure.atom_succ``, with a fresh path dict, from
    every member whose status is not yet known; kept as its oracle."""
    qring, ring = system.qring, system.ring
    zero = ring.atoms((ring.zero,) * qring.d)
    step = closure.atom_succ.__getitem__
    status: dict = {zero: (True, 0)}
    cycles: list[tuple] = []
    for v in closure.atoms:
        if v in status:
            continue
        kind, path, hit = walk(v, step, status)
        if kind == "cycle":
            cyc = list(path)[hit:]
            cycles.append(rotate([qring.from_coords(ring.values(u)) for u in cyc], qring.sort_key))
            reaches, steps = False, len(cyc)
        else:
            reaches, steps = status[hit]
        n = len(path)
        for u, i in path.items():
            status[u] = (reaches, steps + n - i if reaches else steps)
    return status, cycles


def gaussian_rational(c) -> tuple:
    """An int or a GaussianInt as a (re, im) pair of Fractions."""
    if isinstance(c, GaussianInt):
        return Fraction(c.re), Fraction(c.im)
    return Fraction(c), Fraction(0)


def evaluate_at(element, alpha: tuple) -> tuple:
    """The value at ``alpha``, a (re, im) pair of Fractions, of the
    polynomial that represents a Z or Z[i] element: its coefficients
    below deg P, then its tail from x^d on, by Horner's rule."""
    d = element.qring.d
    coeffs = list(element.low) + [0] * (d - len(element.low)) + list(element.tail)
    re, im = Fraction(0), Fraction(0)
    a, b = alpha
    for c in reversed(coeffs):
        cr, ci = gaussian_rational(c)
        re, im = re * a - im * b + cr, re * b + im * a + ci
    return re, im


def modulus_sq(z: tuple) -> Fraction:
    return z[0] * z[0] + z[1] * z[1]


def coupled_product_expand(
    psys: ProductSystem, element: Poly, cap: int = 10**6
) -> ProductExpansion:
    """Coupled-recurrence expansion of a raw polynomial in the
    two-factor combined system, as ``product_expand`` computed it before
    it walked T of the combined system; kept as its independent oracle.

    Repeatedly splits the running constant terms a0 = d + k*p0 and
    b0 + k = e + l*p0', emits the combined digit d + e*P1, and shifts
    both coefficient streams down with carries -k*p_{i+1} and
    -l*p'_{i+1}.  Terminates when both streams vanish; a repeated
    (a, b) state proves the digit stream eventually periodic.
    """
    if len(psys.factors) != 2:
        raise ValueError("the coupled recurrence works on two-factor systems")
    (p1, n1, sys1), (p2, n2, sys2) = psys.factors
    ring = psys.combined.ring
    if element.ring != ring:
        raise ValueError("element over the wrong ring")

    p = p1.coeffs
    pp = p2.coeffs
    divide1 = ring.divider(p1.constant)
    divide2 = ring.divider(p2.constant)
    # residue r -> (digit v = r + c*p0, c): a = r + q*p0 carries (a - v)/p0 = q - c
    lookup1 = {r: (v, c) for v in n1 for r, c in [divide1(v)]}
    lookup2 = {r: (v, c) for v in n2 for r, c in [divide2(v)]}
    combined_digit = {}
    qring = psys.combined.qring
    for dv in n1:
        for ev in n2:
            poly = Poly.make(ring, [dv]) + p1.scale(ev)
            combined_digit[(dv, ev)] = qring.normalize(poly)

    def shift(coeffs: tuple, carry, mod_coeffs) -> tuple:
        top = max(len(coeffs) - 1, len(mod_coeffs) - 1)
        out = []
        for i in range(top):
            val = coeffs[i + 1] if i + 1 < len(coeffs) else ring.zero
            if carry and i + 1 < len(mod_coeffs):
                val = val - carry * mod_coeffs[i + 1]
            out.append(val)
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    digits: list = []

    def step(state: tuple) -> tuple:
        a, b = state
        r, q = divide1(a[0] if a else ring.zero)
        d, c = lookup1[r]
        k = q - c
        r, q = divide2((b[0] if b else ring.zero) + k)
        e, c = lookup2[r]
        l = q - c
        digits.append(combined_digit[(d, e)])
        return shift(a, k, p), shift(b, l, pp)

    kind, path, hit = walk((tuple(element.coeffs), ()), step, (((), ()),), cap)
    if kind == "known":
        return ProductExpansion("finite", tuple(digits), steps=len(path))
    if kind == "cycle":
        n = len(path)
        return ProductExpansion(
            "eventually-periodic", tuple(digits), steps=n, preperiod=hit, period=n - hit
        )
    return ProductExpansion("unknown", tuple(digits), steps=cap)
