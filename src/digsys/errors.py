"""Shared exception types."""

from __future__ import annotations


class ParseError(ValueError):
    """Syntax error in an element or polynomial literal.

    Carries the bare message, the offending source text and a 0-based
    position.  The full message quotes at most 60 characters of the text
    around the position, so a hostile literal is not echoed back in full.
    """

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} (at position {pos} in {_excerpt(text, pos)})")
        self.message = message
        self.text = text
        self.pos = pos


def _excerpt(text: str, pos: int, width: int = 60) -> str:
    if len(text) <= width:
        return repr(text)
    start = max(0, min(pos - width // 2, len(text) - width))
    end = start + width
    return ("..." if start else "") + repr(text[start:end]) + ("..." if end < len(text) else "")


class ValidationError(ValueError):
    """A digit system (or quotient ring modulus) violates its invariants.

    ``violations`` lists every broken invariant, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
