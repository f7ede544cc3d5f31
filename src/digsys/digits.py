"""Digit systems (R, X, N) and the backward-division dynamics.

A digit system couples the quotient ring R = E[x]/(P) with a digit set
N that represents every residue class of R modulo the base X exactly
once; membership is decided by the constant coefficients alone.  The
central map sends A to (A - digit(A)) / X, and iterating it produces
the digit sequence of A.  An element has a finite base-X expansion
exactly when some iterate reaches 0.

The classification of orbits declares "finite" at the first arrival at
0 even when 0 is not itself a digit; the raw digit stream (which keeps
running through the cycle of 0) is available separately via
:meth:`DigitSystem.digit_stream`.

Every orbit in the library (digit sequences and product expansions,
the zero cycle, the periodic set, closure orbit statuses, shift-radix
orbits and window chains) is followed by the one walker :func:`walk`,
and its cycles are put in canonical order by :func:`rotate`.

Digit sequences, expansions (product expansions too), the zero cycle,
the periodic set and witness closures run T on the flat coordinates
(q, r) of the standard representation A = sum q_i w_i + sum r_i X^i:
T folds r_0 into one carry, shifts q with it and shifts r down, and a
digit e = e_0 + X*f_e that is not constant also takes off the
coordinates of f_e.  Each coordinate is held in the atom form of its
ring (``Ring.atoms``): the value itself over Z, a plain ``(re, im)``
pair of ints over Z[i], the packed int over F_p[y], so that walk states
hash, compare and add without calling Python code.  ``Ring.dynamics``
binds the arithmetic on atoms once per system, and ``rings._build``
writes T out over it for every ring; elements, digits
and ring-value coordinates are rebuilt only for results.  The
representation is unique, so the results equal those of stepping
elements with :meth:`DigitSystem.step`, the definition of T, which
``digit_stream`` and the tests' oracles use.

Digit systems are immutable after validation; orbit walks from
different start elements are independent and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import ValidationError
from .polyquot import Poly, QuotElem, QuotRing, base_violation
from .rings import Ring

DEFAULT_STEP_CAP = 10**6


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


def rotate(cycle, key=None) -> tuple:
    """The cycle as a tuple starting at its least state under ``key``."""
    cycle = tuple(cycle)
    keys = cycle if key is None else [key(v) for v in cycle]
    start = keys.index(min(keys))
    return cycle[start:] + cycle[:start]


@dataclass(frozen=True)
class DigitSequence:
    """Digit string of an element plus the orbit classification.

    kind is "finite" (steps = minimal n with n-th iterate 0),
    "eventually-periodic" (preperiod, period of the orbit) or
    "unknown" when the cap ran out first.  ``digits`` holds the first
    ``steps`` digits for finite orbits and preperiod + period digits
    for eventually periodic ones.
    """

    digits: tuple
    kind: str
    steps: int | None = None
    preperiod: int | None = None
    period: int | None = None
    cap: int | None = None


@dataclass(frozen=True)
class Expansion:
    """Outcome of asking for a finite base-X expansion."""

    status: str  # "finite" | "proven-non-finite" | "unknown"
    digits: tuple | None
    steps: int
    period: int | None = None


@dataclass(frozen=True)
class ZeroCycle:
    """A shortest digit string summing to 0; its length is the zero period."""

    digits: tuple

    @property
    def period(self) -> int:
        return len(self.digits)


@dataclass(frozen=True)
class PeriodicSetReport:
    """Purely periodic elements reachable from the given seeds."""

    elements: frozenset
    orbits: tuple
    contains_zero: bool
    capped: bool


class DigitSystem:
    """A validated digit system; build via :func:`validate_system`."""

    def __init__(self, qring: QuotRing, digits: tuple, _lookup: dict, _carry: dict, top: int):
        # top: the highest x-degree of the digits, as validate_system found it
        self.qring = qring
        self.ring = qring.ring
        self.modulus = qring.modulus
        self.digits = digits
        self._lookup = _lookup
        self._divide = qring._divide_p0
        self.digits_constant = top <= 0
        self.k = max(qring.d, top)
        # by residue class, the coordinates of -f_e = (e_0 - e)/X, what T adds for a non-constant e
        self._xoffsets = {} if self.digits_constant else {
            r: qring.coords(-qring.divide_by_x(e - qring.from_const(e.constant)))
            for r, e in _lookup.items()
            if e.x_degree > 0
        }
        # T on the atoms of flat coordinates
        self._step, self._images = self.ring.dynamics(
            self.modulus.coeffs,
            _carry,
            self._xoffsets,
            lambda coords: qring.coords(qring.from_coords(coords)),
        )

    @cached_property
    def _digit(self) -> dict:
        """The digit of each residue atom that ``_step`` returns; built
        for the first walk, as decisions do not read it."""
        return dict(zip(self.ring.atoms(tuple(self._lookup)), self._lookup.values()))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DigitSystem({self.ring.name}, {self.modulus}, "
            f"{{{', '.join(self.qring.format(d) for d in self.digits)}}})"
        )

    @property
    def zero(self) -> QuotElem:
        return self.qring.zero

    def constant_digits(self) -> tuple:
        if not self.digits_constant:
            raise ValueError("digit set is not constant in x")
        return tuple(d.constant for d in self.digits)

    # -- the dynamics ---------------------------------------------------

    def digit_of(self, a: QuotElem) -> QuotElem:
        """The unique digit congruent to ``a`` modulo the base."""
        self.qring._check(a)
        return self._lookup[self._divide(a.constant)[0]]

    def step(self, a: QuotElem) -> QuotElem:
        """One backward-division step (A - digit(A)) / X."""
        return self.qring.divide_by_x(a - self.digit_of(a))

    def digit_stream(self, a: QuotElem) -> Iterator[QuotElem]:
        """The raw, unbounded digit stream of ``a``."""
        cur = a
        while True:
            d = self.digit_of(cur)
            yield d
            cur = self.qring.divide_by_x(cur - d)

    def digit_sequence(self, a: QuotElem, cap: int = DEFAULT_STEP_CAP) -> DigitSequence:
        if cap < 1:
            raise ValueError("cap must be at least 1")
        return self._orbit(a, cap)

    def _orbit(self, a: QuotElem, cap: int) -> DigitSequence:
        """The orbit of ``a`` under T, followed on the atoms of its flat
        coordinates until it reaches 0, repeats a state or has taken
        ``cap`` steps (``cap`` may be 0).  The coordinates are unique, so
        states and elements correspond one to one and the result is that
        of stepping the elements."""
        digits: list[QuotElem] = []
        emit = digits.append
        digit, carry_step = self._digit, self._step

        def step(v):
            r, w = carry_step(v)
            emit(digit[r])
            return w

        atoms = self.ring.atoms
        start, zero = atoms(self.qring.coords(a)), atoms((self.ring.zero,) * self.qring.d)
        kind, path, hit = walk(start, step, (zero,), cap)
        n = len(path)
        if kind == "known":
            return DigitSequence(tuple(digits), "finite", steps=n)
        if kind == "cycle":
            return DigitSequence(
                tuple(digits), "eventually-periodic", preperiod=hit, period=n - hit
            )
        return DigitSequence(tuple(digits), "unknown", cap=cap)

    def expand(self, a: QuotElem, cap: int = DEFAULT_STEP_CAP) -> Expansion:
        seq = self.digit_sequence(a, cap)
        if seq.kind == "finite":
            return Expansion("finite", seq.digits, steps=seq.steps)
        if seq.kind == "eventually-periodic":
            # the orbit entered a cycle avoiding 0, so no iterate is ever 0
            return Expansion(
                "proven-non-finite",
                None,
                steps=seq.preperiod + seq.period,
                period=seq.period,
            )
        return Expansion("unknown", None, steps=cap)

    def evaluate(self, digits: Iterable[QuotElem]) -> QuotElem:
        """Horner evaluation of sum(digits[i] * X^i) in R."""
        total = self.qring.zero
        for d in reversed(list(digits)):
            total = self.qring.mul_x(total) + d
        return total

    def zero_cycle(self, cap: int = DEFAULT_STEP_CAP) -> ZeroCycle | None:
        """Shortest digit string summing to 0, from the orbit of 0.

        0 = digit(0) + X*T(0), so the string is digit(0) followed by the
        finite expansion of T(0), if T(0) reaches 0 within cap - 1 steps.
        """
        if cap < 1:
            raise ValueError("cap must be at least 1")
        zero = self.qring.zero
        seq = self._orbit(self.step(zero), cap - 1)
        if seq.kind != "finite":
            return None
        return ZeroCycle((self.digit_of(zero),) + seq.digits)

    def periodic_set(
        self, seeds: Iterable[QuotElem], cap: int = DEFAULT_STEP_CAP
    ) -> PeriodicSetReport:
        """All cycles the orbits of the seeds run into.

        Exhaustive for the whole periodic set only when the seeds cover
        a stabilised witness closure.
        """
        if cap < 0:
            raise ValueError("cap must be at least 0")
        qring, ring, carry_step = self.qring, self.ring, self._step

        def step(v):
            return carry_step(v)[1]

        resolved: set[tuple] = set()
        cycles: list[tuple] = []
        capped = False
        for seed in sorted(seeds, key=qring.sort_key):
            kind, path, hit = walk(ring.atoms(qring.coords(seed)), step, resolved, cap)
            if kind == "cap":
                capped = True
                continue
            if kind == "cycle":
                cycle = [qring.from_coords(ring.values(v)) for v in list(path)[hit:]]
                cycles.append(rotate(cycle, qring.sort_key))
            resolved.update(path)
        cycles.sort(key=lambda c: self.qring.sort_key(c[0]))
        zero = self.qring.zero
        return PeriodicSetReport(
            elements=frozenset(v for c in cycles for v in c),
            orbits=tuple(cycles),
            contains_zero=any(zero in c for c in cycles),
            capped=capped,
        )

    # -- the coordinate form of the dynamics -----------------------------

    def coordinate_step(self, coords: tuple) -> tuple:
        """T on the flat coordinates of ``QuotRing.coords``: a shift with
        one carry, less the x-part of a digit that is not constant."""
        state = tuple(self.ring.coerce(a) for a in coords)
        if len(state) != self.qring.d:
            # a residue part may be unreduced or end in zeros
            state = self.qring.coords(self.qring.from_coords(state))
        return self.ring.values(self._step(self.ring.atoms(state))[1])


def validate_system(ring: Ring, modulus: Poly, digits) -> DigitSystem:
    """Check every digit-system invariant; raise ValidationError listing
    all violations, otherwise return the immutable system."""
    violations: list[str] = []
    if modulus.ring != ring:
        raise ValidationError(["modulus is defined over a different ring"])
    violation = base_violation(modulus)
    if violation:
        raise ValidationError([violation])
    p0 = modulus.constant

    qring = QuotRing(modulus)
    normalized, top = [], 0
    for d in digits:
        if isinstance(d, QuotElem):
            qring._check(d)
            d = QuotElem(qring, d.low, d.tail)
        elif isinstance(d, Poly):
            d = qring.normalize(d)
        else:  # a ring value: a constant digit, built directly
            c = ring.coerce(d)
            normalized.append(QuotElem(qring, (c,) if c else (), ()))
            continue
        top = max(top, d.x_degree)
        normalized.append(d)

    expected = ring.quotient_size(p0)
    if len(normalized) != expected:
        violations.append(
            f"the digit set has {len(normalized)} elements but the residue ring "
            f"modulo {ring.format(p0)} has {expected}"
        )
    lookup: dict = {}
    carry: dict = {}
    divide = qring._divide_p0
    for d in normalized:
        key, q1 = divide(d.constant)
        if key in lookup:
            violations.append(
                f"digits {qring.format(lookup[key])} and {qring.format(d)} lie in the "
                f"same residue class (constant coefficients congruent to "
                f"{ring.format(key)} mod {ring.format(p0)})"
            )
        else:
            lookup[key] = d
            carry[key] = q1
    if violations:
        raise ValidationError(violations)
    return DigitSystem(qring, tuple(normalized), lookup, carry, top)
