"""Exact arithmetic in the supported coefficient rings.

Three rings are available: the rational integers ``Z``, the Gaussian
integers ``ZI`` and the polynomial rings ``Fp(p)`` over a prime field
in the variable ``y``.  All three are Euclidean domains, so "nonzero"
and "not a zero divisor" coincide.  The values (arbitrary-precision
``int``, :class:`GaussianInt`, :class:`FpPoly`) carry their own ``+``,
``-``, ``*``, unary ``-`` and truth (nonzero), and their equality is ring
equality.  A ring supplies only what depends on it:

* ``zero``, ``one``, ``coerce``, ``is_unit`` and a Euclidean value
  function with value ``-inf`` at 0,
* complete residue systems for nonzero moduli, deterministic across
  runs (``{0}`` for a unit) and at most ``MAX_ENUMERATION`` long,
* division, through ``divider(m)`` alone,
* a whitespace-insensitive text grammar with ``parse``/``format``
  round-tripping,
* the arithmetic of the map T of a digit system on the *atoms* of the
  values (``atoms``/``values``), ``dynamics``: the one T of ``_build``,
  bound once per system, calls it on flat coordinates.

``Ring.divider(m)`` checks a nonzero modulus once and returns
``a -> (r, q)`` with ``a = r + q*m`` and ``r`` in ``residues(m)``, so
loops that divide by one modulus (a base's p0 or leading coefficient)
skip that check, and ``Z[i]`` rounds on plain ints.  An exact quotient
is the ``q`` of a zero ``r``; dividing by a unit always gives one.

A Gaussian integer is the pair of ints ``(re, im)``, a ``tuple``
subclass like :class:`FpPoly`: its hash is the C tuple hash, and its
operators unpack two ints and build one pair.

Each ring also has an *atom* form of its values for the dynamics: the
plain form that hashes, compares and adds in C.  Over Z it is the value
itself; over Z[i] the plain pair, whose equality is C tuple equality (a
``GaussianInt`` equals no plain tuple), so ``ZI.dynamics`` steps, looks
up and adds int pairs and calls no ``GaussianInt`` method per step; over
F_p[y] the packed int of :mod:`digsys.fppoly`, which holds ``FpPoly``,
``FpPolynomialRing`` and ``Fp``, its kernels and its dynamics, and is
re-exported here.

All values are immutable and all operations are pure, so they may be
shared freely between threads.
"""

from __future__ import annotations

import functools
import operator
import re as _re
from itertools import starmap, zip_longest

from .errors import ParseError

NEG_INF = float("-inf")

_new = tuple.__new__

# largest exponent a literal may write; parsers build dense coefficient
# lists up to it, so larger ones are rejected before anything is allocated
MAX_EXPONENT = 10**5

# most members an enumeration may list: a residue system (|m| integers,
# N(m) Gaussian integers, p^deg m polynomials) or the windows of a
# zero-cycle proof
MAX_ENUMERATION = 2**16

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


class GaussianInt(tuple):
    """A Gaussian integer re + im*i, stored as the pair of ints
    ``(re, im)`` in the way :class:`FpPoly` stores its pair: equal values
    are equal pairs, the hash is ``hash((re, im))``, and no plain tuple,
    int or FpPoly equals one.  ``GaussianInt(re, im)`` takes the parts."""

    __slots__ = ()

    def __new__(cls, re: int, im: int):
        return _new(cls, (re, im))

    re = property(operator.itemgetter(0))
    im = property(operator.itemgetter(1))

    def __add__(self, other: GaussianInt) -> GaussianInt:
        a, b = self
        c, d = other
        return _new(GaussianInt, (a + c, b + d))

    def __sub__(self, other: GaussianInt) -> GaussianInt:
        a, b = self
        c, d = other
        return _new(GaussianInt, (a - c, b - d))

    def __neg__(self) -> GaussianInt:
        a, b = self
        return _new(GaussianInt, (-a, -b))

    def __mul__(self, other: GaussianInt) -> GaussianInt:
        a, b = self
        c, d = other
        return _new(GaussianInt, (a * c - b * d, a * d + b * c))

    def __rmul__(self, other):
        # refuse int * value, which tuple would read as repetition
        return NotImplemented

    def __bool__(self) -> bool:
        return self[0] != 0 or self[1] != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, GaussianInt) and self[0] == other[0] and self[1] == other[1]

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __reduce__(self):
        return GaussianInt, (self[0], self[1])

    def conjugate(self) -> GaussianInt:
        a, b = self
        return _new(GaussianInt, (a, -b))

    def norm(self) -> int:
        a, b = self
        return a * a + b * b

    def __str__(self) -> str:
        return _format_gaussian(self)

    def __repr__(self) -> str:
        return f"GaussianInt({self[0]}, {self[1]})"


# an int pair as a GaussianInt, without the argument unpacking of __new__
_gaussian = functools.partial(_new, GaussianInt)


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


def _fold(carry: dict, offsets: dict, d: int, zero) -> list | None:
    """Per basis coordinate i < d, r -> coordinate i of r's x-part offset, plus
    carry[r] on the last: the straight-line tables (None for a residue part)."""
    if not offsets:
        return [dict.fromkeys(carry, zero)] * (d - 1) + [carry]
    if any(len(o) != d for o in offsets.values()):
        return None
    tables = [{r: offsets[r][i] if r in offsets else zero for r in carry} for i in range(d - 1)]
    return tables + [{r: k + offsets[r][-1] if r in offsets else k for r, k in carry.items()}]


def _distinct(entries: list, offs, own) -> tuple:
    """The (row entry, x-offset or None) pairs of a closure row, each once in
    first-occurrence order, less T(v)'s own pair (own, None)."""
    if offs is None:
        row = dict.fromkeys(entries)
        row.pop(own, None)
        return list(row), None
    pairs = dict.fromkeys(zip(entries, offs))
    pairs.pop((own, None), None)
    return [c for c, _ in pairs], [o for _, o in pairs]


def _build(ring, d: int, carry: dict, offsets: dict, head, lift, add, sub, settle, straight=None):
    """T of a digit system on the atoms of flat coordinates
    v = (q_0, ..., q_{d-1}, r_0, r_1, ...), written once for every ring:
    ``Ring.dynamics`` binds it per system with its arithmetic on atoms.
    A base P of degree d has coefficients p_0, ..., p_d; ``carry`` maps the
    residue r of each digit's constant e_0 = r + q1*p0 to q1, and
    ``offsets`` maps r to the coordinates of -f_e for a digit
    e = e_0 + X*f_e that is not constant, both in atoms.  The kernels:

    * ``head(v)`` is ``(r, carry[r] - q0)`` for the constant coefficient
      c = r + q0*p0 of v, the dot product of v with the constant
      coefficients p_d, ..., p_1 of the basis w_0, ..., w_{d-1} and 1 of
      X^0, divided by p0 as ``Ring.divider`` divides;
    * ``lift(r, constants)`` is, per constant s, carry[r'] - k for
      r + s = r' + k*p0;
    * ``add`` and ``sub`` add and subtract two atoms;
    * ``settle`` takes coordinates whose residue part is a sum of two
      reduced ones to their reduced form;
    * ``straight(generic)``, if given, is a straight-line step that falls
      back to the generic one: over Z with d = 1, 2 and Z[i] with d = 1,
      a state of exactly d coordinates, looked up in the tables into which
      ``_fold`` folds the x-parts.

    Returns ``(step, images)``:

    * ``step(v)`` is ``(r, w)``: the residue class r (an atom) of the digit
      taken off and the atoms w of T(v);
    * ``images(constants, xoffsets)`` is, for one closure, the function
      v -> [T(v), then the distinct T(v + e) != T(v) for the nonzero digits
      e in first-occurrence order], given the constants e_0 of those digits
      and, unless every digit is constant (then None), ``xoffsets(r)``: for
      a residue r, in ring values, the atoms of the coordinates of what
      T(v + e) adds for the x-parts of the digits (None where nothing).

    c and e_0 = r + q1*p0 share the residue r.  Since X*w_{d-1} = -p0,
    (c - e_0)/X = (q1 - q0)*w_{d-1}, which becomes the new last basis
    coordinate; r_1, r_2, ... shift down one place.  A digit that is not
    constant then takes f_e off.

    v + e has the carry r' + (k + q0)*p0 with r + e_0 = r' + k*p0, so
    T(v + e) is T(v) with the delta carry[r'] - k - carry[r] added to its
    last basis coordinate, plus the x-part offsets.  A closure keeps one
    row of these deltas, and of ``xoffsets(r)``, per residue r, built when
    r first appears, so a shift image of a constant digit set costs one
    addition.  ``_distinct`` drops the pairs (entry, offset) that repeat or
    give T(v), (carry[r], None), before the deltas are taken: a closure
    skips their images, as it skips one that two other pairs share, so it
    stays the same.  Canonical F_p[y] digits (y-degree < deg p0) leave
    [T(v)].
    """
    atoms, zero = ring.atoms, ring.atoms((ring.zero,))[0]

    def add_coords(u: tuple, v: tuple) -> tuple:
        # basis coordinates add, and the residue parts, each reduced, are
        # settled only when both are non-empty
        q = tuple(map(add, u[:d], v[:d]))
        if len(u) > d and len(v) > d:
            return settle(q + tuple(starmap(add, zip_longest(u[d:], v[d:], fillvalue=zero))))
        return q + u[d:] + v[d:]

    def step(v: tuple) -> tuple:
        r, last = head(v)
        w = v[1:d] + (last,)
        if len(v) > d + 1:
            w += v[d + 1 :]
        if offsets and r in offsets:
            w = add_coords(w, offsets[r])
        return r, w

    if straight is not None:
        step = straight(step)

    def images(constants, xoffsets):
        constants = atoms(tuple(constants))
        rows: dict = {}

        def row(r) -> tuple:
            own = carry[r]
            offs = None if xoffsets is None else xoffsets(ring.values((r,))[0])
            entries, offs = _distinct(lift(r, constants), offs, own)
            return [sub(c, own) for c in entries], offs

        def images(v: tuple) -> list:
            r, w = step(v)
            cached = rows.get(r)
            if cached is None:
                cached = rows[r] = row(r)
            deltas, offs = cached
            front, last, tail = w[: d - 1], w[d - 1], w[d:]
            # members of the basis module, the common case, skip a concatenation
            if tail:
                found = [front + (add(last, c),) + tail for c in deltas]
            else:
                found = [front + (add(last, c),) for c in deltas]
            if offs is not None:
                found = [u if o is None else add_coords(u, o) for u, o in zip(found, offs)]
            return [w] + found

        return images

    return step, images


class Ring:
    """Interface shared by the three coefficient rings: what depends on
    the ring.  Values add, subtract, multiply and negate with their own
    operators, and are false exactly when zero."""

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

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def euclid_value(self, a):
        """Euclidean value function; -inf at 0."""
        raise NotImplementedError

    # -- residue systems and division ------------------------------------
    def check_modulus(self, m) -> None:
        if not m:
            raise ValueError("zero modulus: the quotient ring is infinite")

    def quotient_size(self, m) -> int:
        raise NotImplementedError

    def residues(self, m) -> list:
        """A complete duplicate-free residue system mod m, in a fixed
        order; ``[zero]`` for a unit m."""
        raise NotImplementedError

    def divider(self, m):
        """Division by the fixed modulus m, the rings' only division:
        checks m once (ValueError for m = 0) and returns a -> (r, q) with
        a = r + q*m and r the member of residues(m) congruent to a.  m
        divides a exactly when r is zero; for a unit m, r is always zero
        and q = a/m."""
        raise NotImplementedError

    # -- the dynamics of a digit system ------------------------------------
    # Orbit walks and witness closures run T on tuples of atoms, the plain
    # form of ring values that hashes, compares and adds fastest: the
    # values themselves here (Z), int pairs over Z[i] and packed ints over
    # F_p[y], whose rings override both.  ``_build`` writes T out once;
    # each ring's ``dynamics`` supplies only its arithmetic on atoms.

    def atoms(self, values: tuple) -> tuple:
        """A tuple of ring values in atom form."""
        return values

    def values(self, atoms: tuple) -> tuple:
        """The ring values of a tuple of atoms; inverse of ``atoms``."""
        return atoms

    def dynamics(self, base: tuple, carry: dict, offsets: dict, reduce):
        """T of a digit system on the atoms of flat coordinates, bound once
        per system: the ``(step, images)`` of ``_build`` with this ring's
        arithmetic on atoms.  In ring values, ``base`` holds the
        coefficients p_0, ..., p_d of the base, ``carry`` and ``offsets``
        are those of ``_build``, and ``reduce`` takes coordinates with an
        unreduced residue part to their reduced form."""
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

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def euclid_value(self, a):
        return NEG_INF if a == 0 else abs(a)

    def quotient_size(self, m) -> int:
        self.check_modulus(m)
        return abs(m)

    def residues(self, m) -> list:
        """ValueError when the system has more than MAX_ENUMERATION members."""
        size = self.quotient_size(m)
        if size > MAX_ENUMERATION:
            raise ValueError(
                f"the residue system mod {m} has {size} members, "
                f"more than the enumeration limit {MAX_ENUMERATION}"
            )
        return list(range(size))

    def divider(self, m):
        self.check_modulus(m)
        n = abs(m)

        # a = r + q*|m| with 0 <= r < |m|, so q changes sign with m
        if m > 0:
            def divide(a):
                q, r = divmod(a, n)
                return r, q
        else:
            def divide(a):
                q, r = divmod(a, n)
                return r, -q

        return divide

    def dynamics(self, base: tuple, carry: dict, offsets: dict, reduce):
        """``_build`` on ints.  c = r + q*|p0| by ``divmod``, and q0 is q, or
        -q for p0 < 0 (hence ``signed``).  With d = 1, 2 a state of exactly
        d coordinates takes a straight-line step."""
        d, n = len(base) - 1, abs(base[0])
        weights = tuple(reversed(base[1:])) + (1,)
        signed = operator.sub if base[0] > 0 else operator.add

        def head(v: tuple) -> tuple:
            q, r = divmod(sum(map(operator.mul, v, weights)), n)
            return r, signed(carry[r], q)

        def lift(r, constants) -> list:
            out = []
            for s in constants:
                q, r1 = divmod(r + s, n)
                out.append(signed(carry[r1], q))
            return out

        tables = _fold(carry, offsets, d, 0) if d <= 2 else None

        def straight(generic):
            first, last = tables[0], tables[-1]
            p1, p2 = base[1], base[-1]
            if d == 1:
                def step(v: tuple) -> tuple:
                    if len(v) != 1:
                        return generic(v)
                    q, r = divmod(v[0] * p1, n)
                    return r, (signed(last[r], q),)
            else:
                def step(v: tuple) -> tuple:
                    if len(v) != 2:
                        return generic(v)
                    a, b = v
                    q, r = divmod(a * p2 + b * p1, n)
                    return r, (b + first[r], signed(last[r], q))
            return step

        return _build(
            self, d, carry, offsets, head, lift, operator.add, operator.sub, reduce,
            None if tables is None else straight,
        )

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

    def is_unit(self, a) -> bool:
        return a.norm() == 1

    def euclid_value(self, a):
        return NEG_INF if not a else a.norm()

    def quotient_size(self, m) -> int:
        self.check_modulus(m)
        return m.norm()

    def residues(self, m) -> list:
        """ValueError when the system has more than MAX_ENUMERATION members."""
        # divider(m) leaves the z with z/m in a half-open square of side 1
        # about 0, so |re|, |im| <= (|m.re| + |m.im|)/2: a box of area at
        # most 2N, scanned in (re, im) order
        size = self.quotient_size(m)
        if size > MAX_ENUMERATION:
            raise ValueError(
                f"the residue system mod {_format_gaussian(m)} has {size} members, "
                f"more than the enumeration limit {MAX_ENUMERATION}"
            )
        divide = self.divider(m)
        b = (abs(m.re) + abs(m.im)) // 2 + 1
        span = range(-b, b + 1)
        points = (GaussianInt(x, y) for x in span for y in span)
        out = [z for z in points if not divide(z)[1]]
        if len(out) != size:
            raise AssertionError("residue enumeration is incomplete")
        return out

    def divider(self, m):
        # q is a*conj(m)/N(m) with both parts rounded to the nearest
        # integer, ties toward -infinity: floor((2x + N - 1) / 2N)
        self.check_modulus(m)
        mr, mi = m
        n = m.norm()
        bias, n2 = n - 1, 2 * n

        def divide(a):
            ar, ai = a
            qr = (2 * (ar * mr + ai * mi) + bias) // n2
            qi = (2 * (ai * mr - ar * mi) + bias) // n2
            r = _new(GaussianInt, (ar - qr * mr + qi * mi, ai - qr * mi - qi * mr))
            return r, _new(GaussianInt, (qr, qi))

        return divide

    def atoms(self, values: tuple) -> tuple:
        return tuple(map(tuple, values))

    def values(self, atoms: tuple) -> tuple:
        return tuple(map(_gaussian, atoms))

    def dynamics(self, base: tuple, carry: dict, offsets: dict, reduce):
        """``_build`` on int pairs (re, im): the dot product with the basis
        constants, the division by p0 (rounded as by ``divider``), the table
        lookups and the additions all unpack ints, and no GaussianInt is
        built or compared per step.  With d = 1 and constant digits, a state
        of one coordinate takes a straight-line step."""
        d, (mr, mi) = len(base) - 1, base[0]
        n = mr * mr + mi * mi
        bias, n2 = n - 1, 2 * n
        atoms, values = self.atoms, self.values
        weights = atoms(tuple(reversed(base[1:])) + (self.one,))
        carry = {tuple(r): tuple(q) for r, q in carry.items()}
        offsets = {tuple(r): atoms(o) for r, o in offsets.items()}

        def head(v: tuple) -> tuple:
            cr = ci = 0
            for (a, b), (p, q) in zip(v, weights):
                cr += a * p - b * q
                ci += a * q + b * p
            qr = (2 * (cr * mr + ci * mi) + bias) // n2
            qi = (2 * (ci * mr - cr * mi) + bias) // n2
            r = (cr - qr * mr + qi * mi, ci - qr * mi - qi * mr)
            kr, ki = carry[r]
            return r, (kr - qr, ki - qi)

        def lift(r: tuple, constants) -> list:
            rr, ri = r
            out = []
            for sr, si in constants:
                cr, ci = rr + sr, ri + si
                qr = (2 * (cr * mr + ci * mi) + bias) // n2
                qi = (2 * (ci * mr - cr * mi) + bias) // n2
                kr, ki = carry[cr - qr * mr + qi * mi, ci - qr * mi - qi * mr]
                out.append((kr - qr, ki - qi))
            return out

        def add(u: tuple, v: tuple) -> tuple:
            return (u[0] + v[0], u[1] + v[1])

        def sub(u: tuple, v: tuple) -> tuple:
            return (u[0] - v[0], u[1] - v[1])

        def straight(generic):
            ((pr, pi), _) = weights

            def step(v: tuple) -> tuple:
                if len(v) != 1:
                    return generic(v)
                ((a, b),) = v
                cr, ci = a * pr - b * pi, a * pi + b * pr
                qr = (2 * (cr * mr + ci * mi) + bias) // n2
                qi = (2 * (ci * mr - cr * mi) + bias) // n2
                r = (cr - qr * mr + qi * mi, ci - qr * mi - qi * mr)
                kr, ki = carry[r]
                return r, ((kr - qr, ki - qi),)

            return step

        # x-parts over a base of degree 1 have a residue part: only constant sets fold
        return _build(
            self, d, carry, offsets, head, lift, add, sub,
            lambda q: atoms(reduce(values(q))),
            straight if d == 1 and not offsets else None,
        )

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


Z = IntegerRing()
ZI = GaussianIntegerRing()

# F_p[y] builds on the Ring interface above; re-exported for callers that
# resolve it here
from .fppoly import Fp, FpPoly, FpPolynomialRing  # noqa: E402


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
