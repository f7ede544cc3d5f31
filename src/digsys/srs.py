"""Shift radix dynamics over exact rationals and the bridge to digit
systems over the integers.

The map acts on integer vectors by a left shift whose new last entry
is -floor(r.z + eps), computed with exact rational arithmetic.  A
rational parameter vector corresponds to an integer base polynomial
via r = (p_d/p_0, ..., p_1/p_0) with the digit set of |p_0| consecutive
integers starting at -eps*|p_0|; membership questions for the
ultimately-zero and ultimately-periodic parameter regions are thereby
delegated to the witness machinery on the digit-system side.

Parameters are restricted to rationals so that every answer is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import witness
from .digits import orbit_statuses, rotate, validate_system
from .polyquot import Poly
from .rings import MAX_ENUMERATION, Z


@dataclass(frozen=True)
class SrsParams:
    r: tuple[Fraction, ...]
    eps: Fraction = Fraction(0)

    def __post_init__(self):
        if not all(isinstance(x, Fraction) for x in self.r):
            object.__setattr__(self, "r", tuple(Fraction(x) for x in self.r))
        if not isinstance(self.eps, Fraction):
            object.__setattr__(self, "eps", Fraction(self.eps))
        if len(self.r) < 1:
            raise ValueError("the parameter vector must have dimension at least 1")
        if not 0 <= self.eps < 1:
            raise ValueError("eps must lie in [0, 1)")

    @property
    def d(self) -> int:
        return len(self.r)


@dataclass
class SrsVerdict:
    in_d0: str  # "yes" | "no" | "unknown"
    in_d: str  # "yes" | "unknown"
    fep: witness.Verdict | None = None
    pep: witness.Verdict | None = None
    modulus: Poly | None = None
    digits: tuple | None = None
    tau_cycle: tuple | None = None  # integer-vector cycle certifying "no"
    note: str = ""


def tau_step(params: SrsParams, z) -> tuple[int, ...]:
    """One shift step: (z_1, ..., z_{d-1}, -floor(r.z + eps))."""
    if len(z) != params.d:
        raise ValueError(f"expected a vector of length {params.d}")
    s = sum((ri * zi for ri, zi in zip(params.r, z)), start=params.eps)
    return tuple(list(z[1:]) + [-math.floor(s)])


def tau_orbit(params: SrsParams, z, cap: int = 10**6) -> tuple[str, tuple]:
    """Classify one orbit: ("zero", steps) / ("cycle", cycle) / ("unknown", ())."""
    start = tuple(z)
    status = {(0,) * len(start): (True, 0)}
    cycles = orbit_statuses((start,), lambda v: tau_step(params, v), status, cap)
    if cycles:
        return "cycle", rotate(cycles[0])
    if start in status:
        return "zero", (status[start][1],)
    return "unknown", ()


def cns_to_srs(modulus: Poly) -> tuple[Fraction, ...]:
    """r = (p_d/p_0, p_{d-1}/p_0, ..., p_1/p_0) for an integer polynomial."""
    if modulus.ring != Z:
        raise ValueError("the bridge is defined for integer polynomials")
    if modulus.degree < 1 or modulus.constant == 0:
        raise ValueError("need degree >= 1 and a nonzero constant coefficient")
    p0 = modulus.constant
    return tuple(Fraction(modulus.coeffs[i], p0) for i in range(modulus.degree, 0, -1))


def srs_to_cns(params: SrsParams) -> tuple[Poly, tuple[int, ...]]:
    """The integer polynomial and digit set matching the parameters.

    p_0 is the least common positive denominator; the digit set is the
    |p_0| consecutive integers in [-eps*|p_0|, (1-eps)*|p_0|); ValueError,
    before any digit is built, when p_0 is above ``MAX_ENUMERATION``.
    """
    if all(x == 0 for x in params.r):
        raise ValueError("the zero parameter vector has no polynomial counterpart")
    if params.r[0] == 0:
        raise ValueError("a zero leading entry gives a degenerate polynomial")
    p0 = math.lcm(*(x.denominator for x in params.r))
    if p0 > MAX_ENUMERATION:
        raise ValueError(f"p0 = {p0} digits are above the enumeration limit {MAX_ENUMERATION}")
    d = params.d
    coeffs = [0] * (d + 1)
    coeffs[0] = p0
    # the entries are (p_d, p_{d-1}, ..., p_1) divided by p_0
    for i, ri in enumerate(params.r):
        coeffs[d - i] = ri.numerator * (p0 // ri.denominator)
    return Poly.make(Z, coeffs), epsilon_digit_set(p0, params.eps)


def epsilon_digit_set(p0: int, eps: Fraction) -> tuple[int, ...]:
    """The |p0| consecutive integers in [-eps*|p0|, (1-eps)*|p0|)."""
    n = abs(p0)
    start = -(eps.numerator * n // eps.denominator)  # ceil(-eps*n)
    return tuple(range(start, start + n))


def dominant_condition(modulus: Poly) -> bool:
    """Monotone positive coefficient chain guaranteeing the finite
    expansion property with digits {0, ..., p0-1}.

    Requires p0 >= 2 and p0 > p1 >= p2 >= ... >= pd > 0.  The first
    inequality is strict: with p1 = p0 the corresponding parameter
    vector ends in 1, where orbits such as 1 -> -1 -> 1 cycle forever.
    """
    if modulus.ring != Z or modulus.degree < 1:
        return False
    cs = modulus.coeffs
    d = modulus.degree
    if cs[0] < 2 or cs[d] <= 0:
        return False
    for i in range(1, d):
        if cs[i] < cs[i + 1]:
            return False
    return cs[1] < cs[0]


def srs_classify(
    params: SrsParams, closure_cap: int = witness.DEFAULT_CLOSURE_CAP
) -> SrsVerdict:
    """Membership semi-decision for the ultimately-zero region (via the
    finite-expansion verdict of the bridged digit system) and the
    ultimately-periodic region (via stabilisation)."""
    r = params.r
    # leading zero entries never influence the new coordinate; strip them
    lead = 0
    while lead < len(r) and r[lead] == 0:
        lead += 1
    if lead == len(r):
        return SrsVerdict(
            in_d0="yes",
            in_d="yes",
            note="zero parameters: every vector maps to 0 after d steps",
        )
    if lead:
        inner = srs_classify(SrsParams(r[lead:], params.eps), closure_cap)
        inner.note = (
            f"reduced by dropping {lead} leading zero parameter(s); " + inner.note
        )
        return inner
    if all(x.denominator == 1 for x in r):
        # the bridge would need p0 = 1, a unit, so no digit system exists
        return SrsVerdict(
            in_d0="no",
            in_d="unknown",
            note="integer parameters: eps < 1 drops out of the floor, so tau is the "
            "linear map z -> (z_2, ..., z_d, -r.z), whose determinant +-r_1 is "
            "nonzero; it is injective and no nonzero vector reaches 0",
        )

    modulus, digit_values = srs_to_cns(params)
    system = validate_system(Z, modulus, digit_values)
    fep = witness.decide_fep(system, closure_cap=closure_cap, mode="brunotte")
    pep = witness.decide_pep(system, closure_cap=closure_cap, mode="brunotte")
    verdict = SrsVerdict(
        in_d0=fep.answer,
        in_d="yes" if pep.answer == "yes" else "unknown",
        fep=fep,
        pep=pep,
        modulus=modulus,
        digits=digit_values,
    )
    if fep.answer == "no":
        cycle = fep.certificate.get("cycle", ())
        coords = [system.qring.coords(v) for v in cycle]
        verdict.tau_cycle = tuple(coords)
    return verdict
