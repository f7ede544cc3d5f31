"""The one grammar of values and polynomials against the two-technique
parser it replaced (``tests/support.py``), and the positions of its
errors."""

from __future__ import annotations

import random
import re
import time

import pytest

from digsys import Fp, FpPoly, GaussianInt, ParseError, Poly, Z, ZI, parse_poly

from support import oracle_parse, oracle_parse_poly

F3 = Fp(3)

# the alphabet of the random strings of each ring; values draw from it
# without the variable x
ALPHABETS = ((Z, "x12 +-()^*X3"), (ZI, "xi12 +-()^*"), (F3, "xy12 +-()^*"))
STRINGS = 20_000

# errors about one literal point at its start, and those of an exponent at
# its '^', where the text before is still a valid prefix
LITERAL_ERRORS = ("out of range", "too long", "expected an exponent", "exponent above")

# what may follow a valid prefix: enough to complete every prefix of the
# strings drawn here
COMPLETIONS = ("", "1", "x", "y", "i", ")", "1)", "1)x")


def outcome(parse, ring, text: str):
    try:
        return True, parse(ring, text)
    except ParseError as exc:
        assert exc.text == text and 0 <= exc.pos <= len(text), (text, exc.pos)
        return False, exc


def new_parse(ring, text):
    return ring.parse(text)


def key(value):
    """What two parses of one string must agree on: a value, or the
    coefficients of a polynomial."""
    return value.coeffs if isinstance(value, Poly) else value


def as_gaussian(value):
    """A key over Z as the key over Z[i] of the same value."""
    if isinstance(value, int):
        return GaussianInt(value, 0)
    return tuple(map(as_gaussian, value))


def viable(parse, ring, prefix: str) -> bool:
    """Whether some string starting with ``prefix`` parses."""
    return any(outcome(parse, ring, prefix + tail)[0] for tail in COMPLETIONS)


def classify(ring, new, old, text: str) -> str:
    """The class of one string: "agree", or the declared difference it
    falls in, "(a)" a '*' not between a coefficient and its variable is
    refused, "(b)" a second sign before a term is accepted, "(c)" a Z
    value is a signed sum; else "other"."""
    (new_ok, new_value), (old_ok, old_value) = outcome(new, ring, text), outcome(old, ring, text)
    if new_ok == old_ok:
        return "agree" if not new_ok or key(new_value) == key(old_value) else "other"
    if old_ok:
        at = new_value.pos
        return "(a)" if text[at : at + 1] == "*" or text[:at].rstrip().endswith("*") else "other"
    # a doubled sign is the product of its signs; a Z string reads the
    # same over Z[i], whose values the oracle reads as signed sums
    collapsed = re.sub(r"([+-])\s*([+-])", lambda m: "+" if m[1] == m[2] else "-", text)
    ok, value = outcome(old, ZI if ring == Z else ring, collapsed)
    got = as_gaussian(key(new_value)) if ring == Z else key(new_value)
    if not ok or got != key(value):
        return "other"
    return "(b)" if collapsed != text else "(c)"


class TestDifferential:
    @pytest.mark.parametrize("ring, alphabet", ALPHABETS, ids=("Z", "Zi", "F3"))
    def test_only_declared_differences(self, ring, alphabet):
        rng = random.Random(29)
        letters = alphabet.replace("x", "").replace("X", "")
        counts: dict[str, int] = {}
        for level, new, old, chars in (
            ("value", new_parse, oracle_parse, letters),
            ("poly", parse_poly, oracle_parse_poly, alphabet),
        ):
            for _ in range(STRINGS):
                text = "".join(rng.choice(chars) for _ in range(rng.randint(1, 9)))
                kind = classify(ring, new, old, text)
                assert kind != "other", (ring.name, level, text)
                counts[level, kind] = counts.get((level, kind), 0) + 1
        # enough strings of each level parse for the comparison to bite
        assert counts["value", "agree"] > STRINGS // 2 and counts["poly", "agree"] > STRINGS // 2
        assert ("poly", "(b)") in counts and ("poly", "(a)") in counts
        if ring == Z:
            assert ("value", "(c)") in counts and ("poly", "(c)") in counts

    @pytest.mark.parametrize("ring, alphabet", ALPHABETS, ids=("Z", "Zi", "F3"))
    def test_errors_point_at_the_offending_character(self, ring, alphabet):
        # the text before the position begins a valid string, and, for a
        # syntax error, the text through it begins none
        rng = random.Random(30)
        letters = alphabet.replace("x", "").replace("X", "")
        for parse, chars in ((new_parse, letters), (parse_poly, alphabet)):
            checked = 0
            while checked < 500:
                text = "".join(rng.choice(chars) for _ in range(rng.randint(1, 9)))
                ok, exc = outcome(parse, ring, text)
                if ok:
                    continue
                checked += 1
                assert viable(parse, ring, text[: exc.pos]), (ring.name, text, exc.pos)
                # a '*' with no variable after it is the offending character
                # itself: the term it follows ended before it
                if text[exc.pos : exc.pos + 1] in ("", "*"):
                    continue
                if not any(w in exc.message for w in LITERAL_ERRORS):
                    assert not viable(parse, ring, text[: exc.pos + 1]), (ring.name, text, exc.pos)


class TestPositions:
    @pytest.mark.parametrize("text, pos", [
        ("x^2 x", 4),
        ("(1)(2)x", 3),
        ("x^2^3", 3),
        ("2*x*x", 3),
        ("*x", 0),
        ("x-*x", 2),
        ("x)", 1),
        ("(1+2", 4),
        ("", 0),
    ])
    def test_polynomial(self, text, pos):
        with pytest.raises(ParseError) as exc:
            parse_poly(Z, text)
        assert exc.value.pos == pos

    def test_stray_star_refused(self):
        # a '*' sits only between a coefficient and its variable
        for parse, text, pos in (
            (F3.parse, "1*-1", 1),
            (F3.parse, "2*", 1),
            (lambda t: parse_poly(F3, t), "1*-1", 2),
            (lambda t: parse_poly(F3, t), "2**x", 2),
        ):
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert exc.value.pos == pos, text
        assert F3.parse("2*y") == F3.parse("2y") == FpPoly(3, (0, 2))
        assert parse_poly(F3, "2*y*x") == parse_poly(F3, "2y x")

    def test_exponent_errors_point_at_the_caret(self):
        for ring, text, pos in (
            (Z, "3x^", 2), (Z, "x^ +1", 1), (F3, "y^x", 1), (F3, "2y^99999999x", 2),
        ):
            with pytest.raises(ParseError, match="exponent") as exc:
                parse_poly(ring, text)
            assert exc.value.pos == pos, text

    def test_declared_acceptances(self):
        # (b) a second sign before a term, (c) Z values as signed sums
        assert parse_poly(Z, "-+11").coeffs == (-11,)
        assert parse_poly(Z, "x--x").coeffs == (0, 2)
        assert parse_poly(ZI, "x - -i").coeffs == (GaussianInt(0, 1), GaussianInt(1, 0))
        assert Z.parse("+3") == 3 and Z.parse("1+2") == 3 and Z.parse("- 4") == -4
        assert parse_poly(Z, "(1+1)x").coeffs == (0, 2)
        for text in ("--1", "1+-2", "+-i"):
            with pytest.raises(ParseError):
                ZI.parse(text)

    def test_non_ascii_digits_refused(self):
        for parse, text in ((Z.parse, "٣"), (ZI.parse, "2+٣i"), (F3.parse, "y^٢")):
            with pytest.raises(ParseError):
                parse(text)

    def test_many_terms_are_linear(self):
        # one pass over the text: 16,000 terms parse in well under a second
        text = "+".join(f"{k}x^{k}" for k in range(16_000))
        start = time.perf_counter()
        assert parse_poly(Z, text).degree == 15_999
        assert time.perf_counter() - start < 1.0
