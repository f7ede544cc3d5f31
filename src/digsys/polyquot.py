"""Polynomials over a coefficient ring and the quotient R = E[x]/(P).

``P`` need not be monic.  Elements of R are kept in a unique canonical
form: a head polynomial of degree < deg(P) plus a tail of coefficients
at degrees >= deg(P), each tail entry drawn from a fixed residue system
modulo the leading coefficient of P, with the highest tail entry
nonzero.  Two elements are equal in R exactly when their canonical
forms coincide, which is the sole equality test used everywhere.

The module also builds the shifted-coefficient basis w_0 = p_d,
w_k = X*w_{k-1} + p_{d-k} and the unique decomposition of any element
into basis coordinates plus a residue polynomial.

Everything here is an immutable value; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .rings import Ring, bounded_exponent


@dataclass(frozen=True)
class Poly:
    """Dense polynomial in x over a coefficient ring; coeffs[i] at x^i."""

    ring: Ring
    coeffs: tuple

    @staticmethod
    def make(ring: Ring, coeffs) -> Poly:
        cs = [ring.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return Poly(ring, tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def constant(self):
        return self.coeffs[0] if self.coeffs else self.ring.zero

    @property
    def lead(self):
        if not self.coeffs:
            return self.ring.zero
        return self.coeffs[-1]

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.zero

    def _check(self, other: Poly) -> None:
        if self.ring != other.ring:
            raise ValueError("polynomials over different rings")

    def __add__(self, other: Poly) -> Poly:
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.make(self.ring, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: Poly) -> Poly:
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.make(self.ring, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> Poly:
        return Poly(self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, other: Poly) -> Poly:
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly(self.ring, ())
        ring = self.ring
        out = [ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly.make(ring, out)

    def scale(self, c) -> Poly:
        c = self.ring.coerce(c)
        return Poly.make(self.ring, [c * a for a in self.coeffs])

    def shift(self, k: int) -> Poly:
        if self.is_zero:
            return self
        return Poly(self.ring, (self.ring.zero,) * k + self.coeffs)

    def __str__(self) -> str:
        return format_poly(self.ring, self.coeffs, var="x")


@dataclass(frozen=True)
class QuotElem:
    """Canonical representative of an element of E[x]/(P).

    ``low`` holds the coefficients below deg(P) (trailing zeros
    trimmed); ``tail`` holds the residue-normalised coefficients at
    degrees deg(P), deg(P)+1, ... with a nonzero last entry.
    """

    qring: "QuotRing"
    low: tuple
    tail: tuple

    @property
    def is_zero(self) -> bool:
        return not self.low and not self.tail

    @property
    def constant(self):
        return self.low[0] if self.low else self.qring.ring.zero

    @property
    def x_degree(self) -> int:
        """Degree of the minimal representative (-1 for zero)."""
        if self.tail:
            return self.qring.d + len(self.tail) - 1
        return len(self.low) - 1

    def __add__(self, other: QuotElem) -> QuotElem:
        return self.qring.add(self, other)

    def __sub__(self, other: QuotElem) -> QuotElem:
        return self.qring.add(self, self.qring.neg(other))

    def __neg__(self) -> QuotElem:
        return self.qring.neg(self)

    def __mul__(self, other):
        if isinstance(other, QuotElem):
            return self.qring.mul(self, other)
        return self.qring.scale(self, other)

    def __rmul__(self, other):
        return self.qring.scale(self, other)

    def __str__(self) -> str:
        return self.qring.format(self)


@dataclass(frozen=True)
class StandardRep:
    """Unique decomposition A = sum q_i w_i + sum r_i X^i.

    ``q`` are the d basis coordinates; ``residue`` lists r_0..r_k
    (members of the residue system mod p_d, trailing zeros trimmed).
    """

    q: tuple
    residue: tuple


class QuotRing:
    """The quotient ring E[x]/(P) for a fixed valid modulus P."""

    def __init__(self, modulus: Poly):
        ring = modulus.ring
        violation = base_violation(modulus)
        if violation:
            raise ValidationError([violation])
        self.ring = ring
        self.modulus = modulus
        self.d = modulus.degree
        self.p0 = modulus.constant
        self.pd = modulus.lead
        # all division is by these two: p0 for T, p_d (possibly a unit) for
        # the canonical forms
        self._divide_p0 = ring.divider(self.p0)
        self._divide_pd = ring.divider(self.pd)
        self._basis = None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, QuotRing)
            and other.ring == self.ring
            and other.modulus.coeffs == self.modulus.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.modulus.coeffs))

    def __repr__(self) -> str:  # pragma: no cover
        return f"QuotRing({self.ring.name}[x]/({self.modulus}))"

    # -- construction ------------------------------------------------------

    @property
    def zero(self) -> QuotElem:
        return QuotElem(self, (), ())

    @property
    def one(self) -> QuotElem:
        return QuotElem(self, (self.ring.one,), ())

    @property
    def x(self) -> QuotElem:
        return self.normalize(Poly.make(self.ring, [self.ring.zero, self.ring.one]))

    def from_const(self, c) -> QuotElem:
        c = self.ring.coerce(c)
        if not c:
            return self.zero
        return QuotElem(self, (c,), ())

    def normalize(self, f: Poly) -> QuotElem:
        """Canonical form of f mod P; constant on cosets of (P)."""
        if f.ring != self.ring:
            raise ValueError("polynomial over the wrong ring")
        d = self.d
        coeffs = list(f.coeffs)
        # each coefficient at degree >= d keeps its residue mod p_d (0 for
        # a unit p_d) and passes quotient * (P - p_d x^d) down
        pc = self.modulus.coeffs
        divide = self._divide_pd
        for i in range(len(coeffs) - 1, d - 1, -1):
            r, q = divide(coeffs[i])
            if q:
                for j in range(d):
                    coeffs[i - d + j] = coeffs[i - d + j] - q * pc[j]
            coeffs[i] = r
        tail = coeffs[d:]
        while tail and not tail[-1]:
            tail.pop()
        low = coeffs[:d]
        while low and not low[-1]:
            low.pop()
        return QuotElem(self, tuple(low), tuple(tail))

    def to_poly(self, a: QuotElem) -> Poly:
        """The canonical (minimal-degree) representative in E[x]."""
        if not a.tail:
            return Poly(self.ring, a.low)
        coeffs = list(a.low) + [self.ring.zero] * (self.d - len(a.low)) + list(a.tail)
        return Poly(self.ring, tuple(coeffs))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, a: QuotElem) -> None:
        if a.qring is not self and a.qring != self:
            raise ValueError("element from a different quotient ring")

    def add(self, a: QuotElem, b: QuotElem) -> QuotElem:
        self._check(a)
        self._check(b)
        return self.normalize(self.to_poly(a) + self.to_poly(b))

    def neg(self, a: QuotElem) -> QuotElem:
        self._check(a)
        return self.normalize(-self.to_poly(a))

    def mul(self, a: QuotElem, b: QuotElem) -> QuotElem:
        self._check(a)
        self._check(b)
        return self.normalize(self.to_poly(a) * self.to_poly(b))

    def scale(self, a: QuotElem, c) -> QuotElem:
        self._check(a)
        return self.normalize(self.to_poly(a).scale(c))

    def mul_x(self, a: QuotElem) -> QuotElem:
        self._check(a)
        return self.normalize(self.to_poly(a).shift(1))

    def divide_by_x(self, a: QuotElem) -> QuotElem:
        """The unique B with X*B = a; requires p0 | constant term."""
        self._check(a)
        f = self.to_poly(a)
        r, q = self._divide_p0(f.constant)
        if r:
            raise ValueError(
                f"element {self.format(a)} is not divisible by the base: constant "
                f"coefficient {self.ring.format(f.constant)} is not a multiple of "
                f"{self.ring.format(self.p0)}"
            )
        if q:
            f = f - self.modulus.scale(q)
        return self.normalize(Poly.make(self.ring, f.coeffs[1:]))

    # -- basis and standard representation ------------------------------------

    def brunotte_basis(self) -> tuple:
        """w_0 = p_d, w_k = X*w_{k-1} + p_{d-k}; upper triangular over p_d."""
        if self._basis is None:
            w = [self.from_const(self.pd)]
            for k in range(1, self.d):
                w.append(self.mul_x(w[-1]) + self.from_const(self.modulus.coeffs[self.d - k]))
            self._basis = tuple(w)
        return self._basis

    def standard_representation(self, a: QuotElem) -> StandardRep:
        self._check(a)
        ring = self.ring
        d = self.d
        pc = self.modulus.coeffs
        divide = self._divide_pd
        low = list(a.low) + [ring.zero] * (d - len(a.low))
        q = [ring.zero] * d
        for i in range(d - 1, -1, -1):
            r, qi = divide(low[i])
            q[i] = qi
            if qi:
                # subtract qi * w_i; w_i has coefficient p_{d-i+j} at x^j
                for j in range(i):
                    low[j] = low[j] - qi * pc[d - i + j]
            low[i] = r
        residue = low + list(a.tail)
        while residue and not residue[-1]:
            residue.pop()
        return StandardRep(tuple(q), tuple(residue))

    def reconstruct(self, rep: StandardRep) -> QuotElem:
        """Inverse of standard_representation."""
        return self.from_coords(rep.q + rep.residue)

    def coords(self, a: QuotElem) -> tuple:
        """The standard representation as one flat tuple
        (q_0, ..., q_{d-1}, r_0, r_1, ...): d basis coordinates, then the
        residue part, empty for elements of the basis module."""
        rep = self.standard_representation(a)
        return rep.q + rep.residue

    def from_coords(self, coords) -> QuotElem:
        """Inverse of ``coords``: sum q_i w_i + sum r_i X^i for a flat tuple
        of at least d entries, whose residue part need not be reduced."""
        d = self.d
        if len(coords) < d:
            raise ValueError(f"expected at least {d} coordinates")
        # basis element i carries coefficient p_{d-i+j} at x^j for j <= i
        ring = self.ring
        pc = self.modulus.coeffs
        low = [ring.zero] * max(d, len(coords) - d)
        for i, a in enumerate(coords[:d]):
            a = ring.coerce(a)
            if a:
                for j in range(i + 1):
                    low[j] = low[j] + a * pc[d - i + j]
        if len(coords) > d:
            for i, r in enumerate(coords[d:]):
                low[i] = low[i] + ring.coerce(r)
            return self.normalize(Poly.make(ring, low))
        # the basis combination stays below degree d, hence canonical
        while low and not low[-1]:
            low.pop()
        return QuotElem(self, tuple(low), ())

    # -- text ------------------------------------------------------------------

    def format(self, a: QuotElem) -> str:
        coeffs = self.to_poly(a).coeffs
        return format_poly(self.ring, coeffs, var="X")

    def parse(self, text: str) -> QuotElem:
        return self.normalize(parse_poly(self.ring, text))

    def sort_key(self, a: QuotElem) -> tuple:
        ring = self.ring
        return (
            len(a.tail),
            len(a.low),
            tuple(ring.sort_key(c) for c in a.low),
            tuple(ring.sort_key(c) for c in a.tail),
        )


def base_violation(modulus: Poly) -> str | None:
    """Why ``modulus`` cannot be a base (a degree below 1, a zero or unit
    p0, a zero leading coefficient), or None."""
    if modulus.degree < 1:
        return "the base polynomial must have degree at least 1"
    if not modulus.lead:
        return "the leading coefficient of the base polynomial is zero"
    return p0_violation(modulus.ring, modulus.constant)


def p0_violation(ring: Ring, p0) -> str | None:
    """Why ``p0`` cannot be the constant coefficient of a base, or None."""
    if not p0:
        return "the constant coefficient p0 of the base polynomial is zero"
    if ring.is_unit(p0):
        return (
            f"p0 = {ring.format(p0)} is a unit: the residue ring modulo the base is "
            "trivial, so the digit set degenerates to a single digit"
        )
    return None


# -- polynomial text format ------------------------------------------------


def format_poly(ring: Ring, coeffs, var: str = "x") -> str:
    """Deterministic print, highest degree first, e.g. ``3*X - 2``."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        text = ring.format(c)
        negative = False
        if isinstance(c, int):
            # integers fold their sign into the join
            negative = c < 0
            if negative:
                text = ring.format(-c)
        compound = "+" in text or "-" in text
        if k == 0:
            body = f"({text})" if compound and terms else text
        else:
            xpart = var if k == 1 else f"{var}^{k}"
            if text == "1":
                body = xpart
            else:
                if compound:
                    text = f"({text})"
                body = f"{text}*{xpart}"
        if not terms:
            terms.append(f"-{body}" if negative else body)
        else:
            terms.append(f" - {body}" if negative else f" + {body}")
    if not terms:
        return "0"
    return "".join(terms)


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


def parse_poly(ring: Ring, text: str) -> Poly:
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
                c = ring.parse(coef_src)
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
