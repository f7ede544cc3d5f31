"""Exact arithmetic in the supported coefficient rings.

Three rings are available: the rational integers ``Z``, the Gaussian
integers ``ZI`` and the polynomial rings ``Fp(p)`` over a prime field
in the variable ``y``.  All three are Euclidean domains, so "nonzero"
and "not a zero divisor" coincide.  Every ring supplies

* canonical element values (arbitrary-precision ``int``,
  :class:`GaussianInt`, :class:`FpPoly`) whose equality is ring
  equality,
* exact division, a Euclidean value function with value ``-inf`` at 0,
* complete residue systems and canonical division with remainder for
  nonzero non-unit moduli, deterministic across runs,
* a whitespace-insensitive text grammar with ``parse``/``format``
  round-tripping.

``Ring.divider(m)`` checks a modulus once and returns ``a -> (r, q)``,
so loops that divide by one modulus (a base's p0 or leading
coefficient) skip that check, and ``Z[i]`` rounds on plain ints.
``canonical_residue(a, m)`` is ``divider(m)(a)``: one formula per ring.

Polynomials over F_p are multiplied by Kronecker substitution (Harvey
2009): both coefficient tuples are packed into integers with byte slots
wide enough that no slot of the product carries into the next, one
integer product is taken, and its slots are reduced mod p.  Addition,
subtraction and division stay coefficient loops; the divisors met in
practice are base coefficients with a few terms, so division is linear
in the dividend.

All values are immutable and all operations are pure, so they may be
shared freely between threads.
"""

from __future__ import annotations

import functools
import re as _re
from dataclasses import dataclass

from .errors import ParseError

NEG_INF = float("-inf")

# largest exponent a literal may write; parsers build dense coefficient
# lists up to it, so larger ones are rejected before anything is allocated
MAX_EXPONENT = 10**5

# the first 13 primes; as Miller-Rabin bases they decide primality of
# every n below _MR_LIMIT (Sorenson and Webster 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} cannot be decided exactly (limit {_MR_LIMIT})")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def bounded_exponent(digits: str, text: str, pos: int) -> int:
    """The value of a decimal exponent; ParseError above MAX_EXPONENT."""
    value = digits.lstrip("0") or "0"
    if len(value) > len(str(MAX_EXPONENT)) or int(value) > MAX_EXPONENT:
        raise ParseError(f"exponent above the maximum {MAX_EXPONENT}", text, pos)
    return int(value)


@dataclass(frozen=True)
class GaussianInt:
    """A Gaussian integer re + im*i."""

    re: int
    im: int

    def __add__(self, other: GaussianInt) -> GaussianInt:
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussianInt) -> GaussianInt:
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussianInt:
        return GaussianInt(-self.re, -self.im)

    def __mul__(self, other: GaussianInt) -> GaussianInt:
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def conjugate(self) -> GaussianInt:
        return GaussianInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def __str__(self) -> str:
        return _format_gaussian(self)

    def __repr__(self) -> str:
        return f"GaussianInt({self.re}, {self.im})"


def _format_gaussian(a: GaussianInt) -> str:
    if a.im == 0:
        return str(a.re)
    if a.im == 1:
        ipart = "i"
    elif a.im == -1:
        ipart = "-i"
    else:
        ipart = f"{a.im}i"
    if a.re == 0:
        return ipart
    if a.im > 0:
        return f"{a.re}+{ipart}"
    return f"{a.re}{ipart}"


@dataclass(frozen=True)
class FpPoly:
    """A polynomial over F_p in y, coefficients in [0, p), index = degree.

    The empty coefficient tuple is the zero polynomial; otherwise the
    last coefficient is nonzero.
    """

    p: int
    coeffs: tuple[int, ...]

    @classmethod
    def make(cls, p: int, coeffs) -> FpPoly:
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(p, tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _check(self, other: FpPoly) -> None:
        if self.p != other.p:
            raise ValueError("mixed characteristics")

    def __add__(self, other: FpPoly) -> FpPoly:
        self._check(other)
        p = self.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        while out and out[-1] == 0:
            out.pop()
        return FpPoly(p, tuple(out))

    def __sub__(self, other: FpPoly) -> FpPoly:
        self._check(other)
        p = self.p
        a, b = self.coeffs, other.coeffs
        if len(a) >= len(b):
            out = list(a)
            for i, c in enumerate(b):
                out[i] = (out[i] - c) % p
        else:
            out = [(-c) % p for c in b]
            for i, c in enumerate(a):
                out[i] = (out[i] + c) % p
        while out and out[-1] == 0:
            out.pop()
        return FpPoly(p, tuple(out))

    def __neg__(self) -> FpPoly:
        # (-c) % p vanishes only at c = 0, so the trim is preserved
        p = self.p
        return FpPoly(p, tuple((-c) % p for c in self.coeffs))

    def __mul__(self, other: FpPoly) -> FpPoly:
        # Kronecker substitution: each coefficient of the integer product
        # is at most (p-1)^2 * min(la, lb), so k-byte slots of that width
        # never carry into each other
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FpPoly(self.p, ())
        p = self.p
        k = (((p - 1) ** 2 * min(len(a), len(b))).bit_length() + 7) >> 3
        n = len(a) + len(b) - 1
        if k == 1:
            prod = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
            out = tuple(prod.to_bytes(n, "little").translate(_mod_table(p)))
        else:
            prod = _pack(a, k) * _pack(b, k)
            raw = prod.to_bytes(n * k, "little")
            out = tuple(int.from_bytes(raw[i : i + k], "little") % p for i in range(0, n * k, k))
        # the leading entry is a product of nonzero residues mod a prime
        return FpPoly(p, out)

    def __divmod__(self, other: FpPoly) -> tuple[FpPoly, FpPoly]:
        self._check(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        b = other.coeffs
        lb = len(b)
        rem = list(self.coeffs)
        if len(rem) < lb:
            return FpPoly(p, ()), self
        inv = pow(b[-1], -1, p)
        quo = [0] * (len(rem) - lb + 1)
        for i in range(len(quo) - 1, -1, -1):
            c = rem[i + lb - 1] % p
            if c:
                q = (c * inv) % p
                quo[i] = q
                for j in range(lb):
                    rem[i + j] -= q * b[j]
        out = [c % p for c in rem[: lb - 1]]
        while out and out[-1] == 0:
            out.pop()
        return FpPoly(p, tuple(quo)), FpPoly(p, tuple(out))

    def __str__(self) -> str:
        return _format_fp(self)

    def __repr__(self) -> str:
        return f"FpPoly({self.p}, {self.coeffs})"


@functools.lru_cache(maxsize=None)
def _mod_table(p: int) -> bytes:
    # byte -> byte mod p; used only when one-byte slots suffice, so p < 16
    return bytes(i % p for i in range(256))


def _pack(coeffs: tuple, k: int) -> int:
    """The integer with coefficient i in little-endian byte slot i of width k."""
    return int.from_bytes(b"".join(c.to_bytes(k, "little") for c in coeffs), "little")


def _format_fp(a: FpPoly) -> str:
    if not a:
        return "0"
    terms = []
    for k in range(a.degree, -1, -1):
        c = a.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            ypart = "y" if k == 1 else f"y^{k}"
            terms.append(ypart if c == 1 else f"{c}{ypart}")
    return "+".join(terms)


class _Scanner:
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
        m = _re.compile(r"-?\d+").match(self.text, at)
        if not m:
            raise self.error("expected an integer")
        self.pos = m.end()
        self.skip()
        return self._int(m.group(), at)

    def digits(self) -> str:
        m = _re.compile(r"\d+").match(self.text, self.pos)
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

    def sign(self) -> int:
        if self.peek() == "+":
            self.take()
            return 1
        if self.peek() == "-":
            self.take()
            return -1
        return 1


class Ring:
    """Interface shared by the three coefficient rings."""

    name: str

    # -- canonical values ------------------------------------------------
    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def coerce(self, x):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    # -- arithmetic ------------------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def exact_div(self, a, b):
        """The exact quotient a/b, or None when b does not divide a."""
        raise NotImplementedError

    def euclid_value(self, a):
        """Euclidean value function; -inf at 0."""
        raise NotImplementedError

    # -- residue systems -------------------------------------------------
    def check_modulus(self, m) -> None:
        if self.is_zero(m):
            raise ValueError("zero modulus: the quotient ring is infinite")
        if self.is_unit(m):
            raise ValueError("unit modulus: the quotient ring is trivial")

    def quotient_size(self, m) -> int:
        raise NotImplementedError

    def residues(self, m) -> list:
        """A complete duplicate-free residue system mod m, in a fixed order."""
        raise NotImplementedError

    def divider(self, m):
        """Division by the fixed modulus m: checks m once (ValueError for a
        zero or unit m) and returns a -> (r, q) with a = r + q*m and r the
        member of residues(m) congruent to a."""
        raise NotImplementedError

    def canonical_residue(self, a, m) -> tuple:
        """(r, q) with a = r + q*m and r the member of residues(m) congruent to a."""
        raise NotImplementedError

    # -- text ------------------------------------------------------------
    def parse(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def sort_key(self, a) -> tuple:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return self.name


class IntegerRing(Ring):
    name = "Z"

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerRing)

    def __hash__(self) -> int:
        return hash(self.name)

    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return int(x)
        raise TypeError(f"cannot interpret {x!r} as an integer")

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def exact_div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        q, r = divmod(a, b)
        return q if r == 0 else None

    def euclid_value(self, a):
        return NEG_INF if a == 0 else abs(a)

    def quotient_size(self, m) -> int:
        self.check_modulus(m)
        return abs(m)

    def residues(self, m) -> list:
        self.check_modulus(m)
        return list(range(abs(m)))

    def divider(self, m):
        self.check_modulus(m)
        n = abs(m)

        def divide(a):
            r = a % n
            return r, (a - r) // m

        return divide

    def canonical_residue(self, a, m) -> tuple:
        return self.divider(m)(a)

    def parse(self, text: str):
        sc = _Scanner(text)
        value = sc.integer()
        if not sc.done():
            raise sc.error("trailing characters after integer")
        return value

    def format(self, a) -> str:
        return str(a)

    def sort_key(self, a) -> tuple:
        return (a,)


class GaussianIntegerRing(Ring):
    name = "Z[i]"

    def __eq__(self, other) -> bool:
        return isinstance(other, GaussianIntegerRing)

    def __hash__(self) -> int:
        return hash(self.name)

    zero = GaussianInt(0, 0)
    one = GaussianInt(1, 0)

    def coerce(self, x):
        if isinstance(x, GaussianInt):
            return x
        if isinstance(x, int):
            return GaussianInt(int(x), 0)
        raise TypeError(f"cannot interpret {x!r} as a Gaussian integer")

    def is_zero(self, a) -> bool:
        return not a

    def is_unit(self, a) -> bool:
        return a.norm() == 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def exact_div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        num = a * b.conjugate()
        n = b.norm()
        if num.re % n or num.im % n:
            return None
        return GaussianInt(num.re // n, num.im // n)

    def euclid_value(self, a):
        return NEG_INF if not a else a.norm()

    def quotient_size(self, m) -> int:
        self.check_modulus(m)
        return m.norm()

    def residues(self, m) -> list:
        # The box [0, N) x [0, N) with N = norm(m) meets every residue
        # class, since N and N*i both lie in (m); canonicalising and
        # deduplicating it therefore yields a complete system.
        divide = self.divider(m)
        n = m.norm()
        seen = set()
        for a in range(n):
            for b in range(n):
                seen.add(divide(GaussianInt(a, b))[0])
        out = sorted(seen, key=lambda g: (g.re, g.im))
        if len(out) != n:
            raise AssertionError("residue enumeration is incomplete")
        return out

    def divider(self, m):
        # q is a*conj(m)/N(m) with both parts rounded to the nearest
        # integer, ties toward -infinity: floor((2x + N - 1) / 2N)
        self.check_modulus(m)
        mr, mi, n = m.re, m.im, m.norm()

        def divide(a):
            ar, ai = a.re, a.im
            qr = (2 * (ar * mr + ai * mi) + n - 1) // (2 * n)
            qi = (2 * (ai * mr - ar * mi) + n - 1) // (2 * n)
            r = GaussianInt(ar - qr * mr + qi * mi, ai - qr * mi - qi * mr)
            return r, GaussianInt(qr, qi)

        return divide

    def canonical_residue(self, a, m) -> tuple:
        return self.divider(m)(a)

    def parse(self, text: str):
        sc = _Scanner(text)
        total = GaussianInt(0, 0)
        first = True
        while True:
            if sc.done():
                if first:
                    raise sc.error("empty Gaussian integer")
                break
            sign = sc.sign()
            if not first and sign == 1 and sc.peek() not in "0123456789i":
                raise sc.error("expected '+' or '-'")
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

    def format(self, a) -> str:
        return _format_gaussian(a)

    def sort_key(self, a) -> tuple:
        return (a.re, a.im)


class FpPolynomialRing(Ring):
    """Polynomials over the prime field F_p in the variable y."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}[y]"

    def __eq__(self, other) -> bool:
        return isinstance(other, FpPolynomialRing) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    @property
    def zero(self):
        return FpPoly(self.p, ())

    @property
    def one(self):
        return FpPoly(self.p, (1,))

    def coerce(self, x):
        if isinstance(x, FpPoly):
            if x.p != self.p:
                raise TypeError("mixed characteristics")
            return x
        if isinstance(x, int):
            return FpPoly.make(self.p, (x,))
        raise TypeError(f"cannot interpret {x!r} as a polynomial over F_{self.p}")

    def is_zero(self, a) -> bool:
        return not a

    def is_unit(self, a) -> bool:
        return a.degree == 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def exact_div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        q, r = divmod(a, b)
        return q if not r else None

    def euclid_value(self, a):
        return NEG_INF if not a else a.degree

    def quotient_size(self, m) -> int:
        self.check_modulus(m)
        return self.p ** m.degree

    def residues(self, m) -> list:
        self.check_modulus(m)
        d = m.degree
        out = []
        for idx in range(self.p**d):
            coeffs = []
            v = idx
            for _ in range(d):
                v, c = divmod(v, self.p)
                coeffs.append(c)
            out.append(FpPoly.make(self.p, coeffs))
        return out

    def divider(self, m):
        self.check_modulus(m)
        return lambda a: divmod(a, m)[::-1]  # divmod gives (q, r)

    def canonical_residue(self, a, m) -> tuple:
        return self.divider(m)(a)

    def parse(self, text: str):
        sc = _Scanner(text)
        total = self.zero
        first = True
        while True:
            if sc.done():
                if first:
                    raise sc.error("empty polynomial")
                break
            sign = sc.sign()
            if not first and sign == 1 and sc.peek() not in "0123456789y":
                raise sc.error("expected '+' or '-'")
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

    def format(self, a) -> str:
        return _format_fp(a)

    def sort_key(self, a) -> tuple:
        return (a.degree, a.coeffs)


Z = IntegerRing()
ZI = GaussianIntegerRing()


@functools.lru_cache(maxsize=None)
def Fp(p: int) -> FpPolynomialRing:
    return FpPolynomialRing(p)


def ring_from_name(name: str) -> Ring:
    """Resolve a CLI ring name: Z, Zi, or Fp:<prime>."""
    flat = name.strip()
    if flat.lower() == "z":
        return Z
    if flat.lower() in ("zi", "z[i]"):
        return ZI
    if flat.lower().startswith("fp:"):
        return Fp(int(flat[3:]))
    raise ValueError(f"unknown ring {name!r}; expected Z, Zi or Fp:<p>")
