"""Digit systems on E[x]/(P1*P2) assembled from systems on the factors.

Given digit systems with constant digit sets on the factors, the
combined digit set is {d + e*P1 : d in N1, e in N2} (and, for more
factors, d1 + d2*P1 + d3*P1*P2 + ...).  Expansion in the combined
system can be driven by a coupled pair of backward divisions on the
factor coefficient streams; the digit stream it emits coincides with
the generic dynamics on the combined system because digit strings are
unique.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import witness
from .digits import DigitSystem, validate_system, walk
from .polyquot import Poly
from .rings import Ring


@dataclass(frozen=True)
class ProductSystem:
    factors: tuple  # ((P_i, digit values, DigitSystem), ...)
    combined: DigitSystem
    fep_propagated: str  # "yes" | "unknown" (conjunction of factor verdicts)


@dataclass(frozen=True)
class ProductExpansion:
    status: str  # "finite" | "eventually-periodic" | "unknown"
    digits: tuple
    steps: int
    preperiod: int | None = None
    period: int | None = None


def _constant_values(ring: Ring, digit_values) -> tuple:
    out = []
    for v in digit_values:
        try:
            out.append(ring.coerce(v))
        except TypeError as exc:
            raise ValueError(f"product factors need constant digit sets: {exc}") from exc
    return tuple(out)


def product_digit_set(ring: Ring, p1: Poly, n1, p2: Poly, n2) -> ProductSystem:
    """Two-factor combined system over P1*P2 with digits d + e*P1."""
    return multi_product_digit_set(ring, [(p1, n1), (p2, n2)])


def multi_product_digit_set(
    ring: Ring, factors, closure_cap: int = witness.DEFAULT_CLOSURE_CAP
) -> ProductSystem:
    """k-factor combined system with digits d1 + d2*P1 + ... + dk*P1...P(k-1).

    The finite-expansion flag is propagated only when every factor
    passes the witness decision and 0 is a digit of each factor but
    possibly the last; the factor order matters, permutations give
    different digit sets.
    """
    if len(factors) < 2:
        raise ValueError("need at least two factors")
    built = []
    for modulus, digit_values in factors:
        values = _constant_values(ring, digit_values)
        system = validate_system(ring, modulus, values)
        built.append((modulus, values, system))

    combined_modulus = built[0][0]
    for modulus, _, _ in built[1:]:
        combined_modulus = combined_modulus * modulus

    # digits d1 + d2*P1 + d3*P1*P2 + ...; the first factor varies fastest
    prefix = Poly.make(ring, [ring.one])
    digit_polys = [Poly.make(ring, [ring.zero])]
    for modulus, values, _ in built:
        digit_polys = [
            base + prefix.scale(v) for v in values for base in digit_polys
        ]
        prefix = prefix * modulus
    combined = validate_system(ring, combined_modulus, digit_polys)

    zero_ok = not any(all(values) for _, values, _ in built[:-1])
    flag = "unknown"
    if zero_ok:
        verdicts = [
            witness.decide_fep(system, closure_cap=closure_cap)
            for _, _, system in built
        ]
        if all(v.answer == "yes" for v in verdicts):
            flag = "yes"
    return ProductSystem(tuple(built), combined, flag)


def product_expand(
    psys: ProductSystem, element: Poly, cap: int = 10**6
) -> ProductExpansion:
    """Coupled-recurrence expansion of a raw polynomial in the
    two-factor combined system.

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
