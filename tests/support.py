"""Shared helpers for the test suite: example systems and samplers."""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from digsys import (
    Fp, FpPoly, GaussianInt, ParseError, Poly, Z, ZI, parse_poly, seed_witnesses,
    validate_system, witness, witness_closure,
)
from digsys.digits import DigitSequence, PeriodicSetReport, ZeroCycle, rotate
from digsys.ffds import ConvertResult
from digsys.product import ProductExpansion, ProductSystem
from digsys.rings import MAX_EXPONENT

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


# ``digits.walk``, the per-orbit walker the library used before one
# ``digits.orbit_statuses`` pass settled every orbit of a finite map; kept
# verbatim on purpose as the oracle of that pass and of the routes below.


def walk(start, step, known, cap: int | None = None) -> tuple:
    """Follow ``start`` under ``step`` until a state lies in ``known``,
    repeats, or ``cap`` steps were taken (None: no cap), checked in that
    order at every state, the one reached after ``cap`` steps included;
    a negative ``cap`` raises ValueError.

    Returns ``(kind, path, hit)``: ``path`` maps the ``len(path)`` states
    stepped from to their step index, in order; ``kind`` is "known" (``hit``
    the known state), "cycle" (``hit`` the index where the cycle starts)
    or "cap" (``hit`` None)."""
    if cap is not None and cap < 0:
        raise ValueError("cap must be at least 0")
    path: dict = {}
    limit = -1 if cap is None else cap
    state = start
    n = 0
    while state not in known:
        # one lookup both detects a repeat and records a new state
        hit = path.setdefault(state, n)
        if hit != n:
            return "cycle", path, hit
        if n == limit:
            path.popitem()
            return "cap", path, None
        state = step(state)
        n += 1
    return "known", path, state


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


def rescanning_convert(system, element, aux_digits, cap):
    """``ffds.convert_expansion`` as it searched for each lowest zero digit
    from position 0 after every rewrite, quadratic in the expansion's
    length: the oracle for the search that resumes at the last rewrite."""
    ring = system.ring
    aux = tuple(ring.coerce(a) for a in aux_digits)
    aux_system = validate_system(ring, system.modulus, aux)
    if isinstance(element, Poly):
        element = system.qring.normalize(element)
    if element.is_zero:
        return ConvertResult("finite", (), 0)
    zc = system.zero_cycle(cap)
    if zc is None:
        return ConvertResult("unknown", (), 0, f"no zero cycle found within {cap} steps")
    zc_consts = tuple(d.constant for d in zc.digits)
    alphabet = set(system.constant_digits()) | {ring.zero}
    base = aux_system.expand(element, cap)
    if base.status != "finite":
        return ConvertResult(
            "unknown", (), 0, f"auxiliary expansion did not terminate: {base.status}"
        )
    b = [d.constant for d in base.digits]
    rounds = 0
    while True:
        try:
            i = next(j for j, v in enumerate(b) if not v)
        except StopIteration:
            break
        if rounds >= cap:
            return ConvertResult("unknown", (), rounds, "rewriting cap exceeded")
        if len(b) < i + len(zc_consts):
            b.extend([ring.zero] * (i + len(zc_consts) - len(b)))
        for j, z in enumerate(zc_consts):
            s = b[i + j] + z
            if s not in alphabet:
                return ConvertResult(
                    "unknown", (), rounds, f"sum {ring.format(s)} leaves the digit alphabet"
                )
            b[i + j] = s
        while b and not b[-1]:
            b.pop()
        rounds += 1
    return ConvertResult("finite", tuple(system.qring.from_const(v) for v in b), rounds)


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
    ``walk`` of ``closure.atom_succ``, with a fresh path dict, from
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


# Root counts about the unit circle in exact Q(i) arithmetic: the route
# ``expanding_check`` took before it computed the status on plain ints
# (``digsys.unitcircle``), kept as its oracle.  A polynomial is split
# into square-free factors by Yun's algorithm, and each factor s is
# mapped by the Cayley transform z = (w - i)/(w + i) to q(w) = sum_k s_k
# (w - i)^k (w + i)^(n - k).  With its leading coefficient made real, q =
# P + iQ, and gcd(P, Q) carries the real roots of q (roots of s on the
# circle) and its pairs of conjugate roots (pairs z, 1/conj(z) of roots
# of s); dividing it out leaves a quotient whose roots in the upper
# half-plane (|z| < 1) are counted by the Cauchy index of Q/P, and real
# roots are counted by Sturm sequences.  Polynomials are coefficient
# lists, lowest degree first, with no trailing zero; [] is the zero
# polynomial.


class GaussRational:
    """An exact element re + im*i of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other: GaussRational) -> GaussRational:
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussRational) -> GaussRational:
        return GaussRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussRational:
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other: GaussRational) -> GaussRational:
        return GaussRational(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    def __truediv__(self, other: GaussRational) -> GaussRational:
        n = other.re * other.re + other.im * other.im
        return self * GaussRational(other.re / n, -other.im / n)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def conjugate(self) -> GaussRational:
        return GaussRational(self.re, -self.im)


def _qi_trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _qi_sub(p: list, q: list) -> list:
    zero = GaussRational()
    n = max(len(p), len(q))
    p, q = p + [zero] * (n - len(p)), q + [zero] * (n - len(q))
    return _qi_trim([a - b for a, b in zip(p, q)])


def _qi_mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [GaussRational()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _qi_divmod(p: list, q: list) -> tuple[list, list]:
    rem = list(p)
    inv = GaussRational(1) / q[-1]
    quo = [GaussRational()] * max(len(p) - len(q) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(q) - 1] * inv
        quo[k] = c
        for j, b in enumerate(q):
            rem[k + j] = rem[k + j] - c * b
    return _qi_trim(quo), _qi_trim(rem[: len(q) - 1])


def _qi_monic(p: list) -> list:
    inv = GaussRational(1) / p[-1]
    return [c * inv for c in p]


def _qi_gcd(p: list, q: list) -> list:
    while q:
        p, q = q, _qi_divmod(p, q)[1]
    return _qi_monic(p)


def _qi_derivative(p: list) -> list:
    return _qi_trim([c * GaussRational(k) for k, c in enumerate(p)][1:])


def squarefree_factors(f: list) -> list[tuple[list, int]]:
    """Yun's decomposition of a nonzero f: pairs (s, k) of monic,
    square-free, pairwise coprime s of degree >= 1 with f = lead(f) *
    prod s^k."""
    df = _qi_derivative(f)
    g = _qi_gcd(f, df)
    b, c = _qi_divmod(f, g)[0], _qi_divmod(df, g)[0]
    out = []
    k = 1
    while len(b) > 1:
        d = _qi_sub(c, _qi_derivative(b))
        a = _qi_gcd(b, d)
        b, c = _qi_divmod(b, a)[0], _qi_divmod(d, a)[0]
        if len(a) > 1:
            out.append((a, k))
        k += 1
    return out


def _qi_cauchy_index(p: list, q: list) -> int:
    """Cauchy index of q/p over the real line, for real p != 0: sign
    variations of the signed remainder sequence at -inf minus at +inf."""
    leads = []
    while q:
        leads.append((p[-1].re, len(p) - 1))
        p, q = q, [-c for c in _qi_divmod(p, q)[1]]
    leads.append((p[-1].re, len(p) - 1))

    def variations(at_minus_inf: bool) -> int:
        signs = [(c > 0) != (at_minus_inf and deg % 2 == 1) for c, deg in leads]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(True) - variations(False)


@functools.cache
def _cayley_terms(n: int) -> tuple:
    """(w - i)^k (w + i)^(n - k) for k = 0, ..., n, built once per n and
    shared by every factor of degree n (the values are never mutated)."""
    minus, plus = [[GaussRational(1)]], [[GaussRational(1)]]
    for _ in range(n):
        minus.append(_qi_mul(minus[-1], [GaussRational(0, -1), GaussRational(1)]))
        plus.append(_qi_mul(plus[-1], [GaussRational(0, 1), GaussRational(1)]))
    return tuple(tuple(_qi_mul(minus[k], plus[n - k])) for k in range(n + 1))


def circle_counts(s: list) -> tuple[int, int, int]:
    """Roots of a square-free s inside, on and outside the unit circle."""
    degree = len(s) - 1
    on = 0
    if not sum(s, GaussRational()):  # s(1) = 0: z = 1 has no Cayley image
        s = _qi_divmod(s, [GaussRational(-1), GaussRational(1)])[0]
        on = 1
    n = len(s) - 1
    # deg q = n, since its leading coefficient is s(1) != 0
    q = [GaussRational()] * (n + 1)
    for a, term in zip(s, _cayley_terms(n)):
        for j, c in enumerate(term):
            q[j] = q[j] + a * c
    rot = q[-1].conjugate()
    q = [c * rot for c in q]
    re = _qi_trim([GaussRational(c.re) for c in q])
    im = _qi_trim([GaussRational(c.im) for c in q])
    common = _qi_gcd(re, im)
    real = _qi_cauchy_index(common, _qi_derivative(common))
    re, im = _qi_divmod(re, common)[0], _qi_divmod(im, common)[0]
    pairs = (len(common) - 1 - real) // 2
    upper = (len(re) - 1 - _qi_cauchy_index(re, im)) // 2
    on += real
    return pairs + upper, on, degree - pairs - upper - on


def circle_counts_oracle(modulus: Poly) -> tuple[int, int, int]:
    """Roots of a Z or Z[i] polynomial of degree >= 1 inside, on and
    outside the unit circle, with multiplicity."""
    coeffs = [GaussRational(*gaussian_rational(c)) for c in modulus.coeffs]
    counts = [0, 0, 0]
    for factor, k in squarefree_factors(coeffs):
        for j, n in enumerate(circle_counts(factor)):
            counts[j] += k * n
    return tuple(counts)


def expanding_status_oracle(modulus: Poly) -> str:
    """``expanding_check``'s status from ``circle_counts_oracle``."""
    inside, on, _ = circle_counts_oracle(modulus)
    return "borderline" if on else "not-expanding" if inside else "expanding"


# -- the two-technique parser, kept as the oracle of the one grammar -------
# ``parse_poly`` split its text at top-level '+'/'-' by tracking the
# parenthesis depth by hand (``_split_terms``) and passed each coefficient
# to the value parser of its ring, each of which wrote its own signed-term
# loop.  Kept unchanged apart from names; ``oracle_parse`` dispatches to the
# three ring loops.


class _OracleScanner:
    """Whitespace-skipping cursor over a source string."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.skip()

    def skip(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        self.skip()
        return ch

    def done(self) -> bool:
        return self.pos >= len(self.text)

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def integer(self) -> int:
        at = self.pos
        m = re.compile(r"-?\d+").match(self.text, at)
        if not m:
            raise self.error("expected an integer")
        self.pos = m.end()
        self.skip()
        return self._int(m.group(), at)

    def digits(self) -> str:
        m = re.compile(r"\d+").match(self.text, self.pos)
        if not m:
            raise self.error("expected digits")
        self.pos = m.end()
        self.skip()
        return m.group()

    def unsigned(self) -> int:
        at = self.pos
        return self._int(self.digits(), at)

    def _int(self, literal: str, at: int) -> int:
        # int() refuses literals beyond the interpreter's digit limit
        # (sys.get_int_max_str_digits)
        try:
            return int(literal)
        except ValueError:
            raise ParseError(
                f"integer literal of {len(literal)} characters is too long", self.text, at
            ) from None

    def sign(self, first: bool) -> int:
        """1 or -1 for a '+' or '-' taken; 1 with no sign only before the
        first term, since terms must be joined by '+' or '-'."""
        if self.peek() == "+":
            self.take()
            return 1
        if self.peek() == "-":
            self.take()
            return -1
        if not first:
            raise self.error("expected '+' or '-'")
        return 1


def _oracle_parse_z(text: str):
    sc = _OracleScanner(text)
    value = sc.integer()
    if not sc.done():
        raise sc.error("trailing characters after integer")
    return value


def _oracle_parse_zi(text: str):
    sc = _OracleScanner(text)
    total = GaussianInt(0, 0)
    first = True
    while True:
        if sc.done():
            if first:
                raise sc.error("empty Gaussian integer")
            break
        sign = sc.sign(first)
        if sc.peek() == "i":
            sc.take()
            total = total + GaussianInt(0, sign)
        else:
            mag = sc.unsigned() if sc.peek().isdigit() else None
            if mag is None:
                raise sc.error("expected digits or 'i'")
            if sc.peek() == "i":
                sc.take()
                total = total + GaussianInt(0, sign * mag)
            else:
                total = total + GaussianInt(sign * mag, 0)
        first = False
    return total


def _oracle_parse_fp(self, text: str):
    sc = _OracleScanner(text)
    total = self.zero
    first = True
    while True:
        if sc.done():
            if first:
                raise sc.error("empty polynomial")
            break
        sign = sc.sign(first)
        coeff = 1
        have_coeff = False
        if sc.peek().isdigit():
            at = sc.pos
            coeff = sc.unsigned()
            have_coeff = True
            if coeff >= self.p:
                raise ParseError(
                    f"coefficient {coeff} out of range for F_{self.p}", sc.text, at
                )
            if sc.peek() == "*":
                sc.take()
        if sc.peek() == "y":
            sc.take()
            k = 1
            if sc.peek() == "^":
                sc.take()
                at = sc.pos
                k = bounded_exponent(sc.digits(), sc.text, at)
            term = FpPoly.make(self.p, [0] * k + [coeff])
        elif have_coeff:
            term = FpPoly.make(self.p, (coeff,))
        else:
            raise sc.error("expected a coefficient or 'y'")
        total = total + term if sign > 0 else total - term
        first = False
    return total


def bounded_exponent(digits: str, text: str, pos: int) -> int:
    """The value of a decimal exponent; ParseError above MAX_EXPONENT."""
    value = digits.lstrip("0") or "0"
    if len(value) > len(str(MAX_EXPONENT)) or int(value) > MAX_EXPONENT:
        raise ParseError(f"exponent above the maximum {MAX_EXPONENT}", text, pos)
    return int(value)


def oracle_parse(ring, text: str):
    """A ring value by the ring's own parser of the two-technique era."""
    if ring == Z:
        return _oracle_parse_z(text)
    if ring == ZI:
        return _oracle_parse_zi(text)
    return _oracle_parse_fp(ring, text)


def _split_terms(text: str) -> list[tuple[int, str, int]]:
    """Split at top-level +/- into (sign, term, start_pos) triples."""
    out = []
    depth = 0
    sign = 1
    start = 0
    cur_set = False
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses", text, i)
        elif depth == 0 and ch in "+-":
            prev = text[:i].rstrip()
            if prev and prev[-1] not in "+-*^(":
                out.append((sign, text[start:i], start))
                sign = 1 if ch == "+" else -1
                start = i + 1
                i += 1
                continue
            if not prev and not cur_set:
                sign = 1 if ch == "+" else -1
                start = i + 1
                cur_set = True
                i += 1
                continue
        i += 1
    if depth != 0:
        raise ParseError("unbalanced parentheses", text, len(text))
    out.append((sign, text[start:], start))
    return out


def oracle_parse_poly(ring, text: str) -> Poly:
    """Parse a polynomial in x (or X) with coefficients in the ring."""
    if not text.strip():
        raise ParseError("empty polynomial", text, 0)
    coeffs: dict[int, object] = {}
    for sign, term, offset in _split_terms(text):
        body = term.strip()
        if not body:
            raise ParseError("empty term", text, offset)
        # locate the variable at paren depth 0
        depth = 0
        var_at = None
        for i, ch in enumerate(term):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif depth == 0 and ch in "xX":
                var_at = i
                break
        if var_at is None:
            k = 0
            coef_src = term
        else:
            rest = term[var_at + 1 :].strip()
            if rest.startswith("^"):
                m = rest[1:].strip()
                if not (m.isascii() and m.isdigit()):
                    raise ParseError("expected an exponent", text, offset + var_at + 1)
                k = bounded_exponent(m, text, offset + var_at + 1)
            elif rest:
                raise ParseError("unexpected text after the variable", text, offset + var_at + 1)
            else:
                k = 1
            coef_src = term[:var_at].strip()
            if coef_src.endswith("*"):
                coef_src = coef_src[:-1]
        # absolute start of the coefficient, for errors inside it
        coef_at = offset + len(term) - len(term.lstrip())
        coef_src = coef_src.strip()
        if not coef_src:
            c = ring.one
        else:
            if coef_src.startswith("(") and coef_src.endswith(")"):
                coef_src = coef_src[1:-1]
                coef_at += 1
            try:
                c = oracle_parse(ring, coef_src)
            except ParseError as exc:
                raise ParseError(exc.message, text, coef_at + exc.pos) from None
        if sign < 0:
            c = -c
        if k in coeffs:
            coeffs[k] = coeffs[k] + c
        else:
            coeffs[k] = c
    top = max(coeffs) if coeffs else 0
    dense = [coeffs.get(i, ring.zero) for i in range(top + 1)]
    return Poly.make(ring, dense)
