"""Typed parameter extraction from English text.

Quoted strings, numbers and path-like tokens are pulled out of a
sentence in order of appearance, tagged with the same placeholder kinds
the command parser uses, so the output feeds straight into template
filling.
"""

from __future__ import annotations

import re

from .bash_ast import PlaceholderKind, categorize

__all__ = ["extract_params"]

_STRIP_CHARS = "\"'().,;:!?"

_SPAN_RE = re.compile(r"\"([^\"]*)\"|'([^']*)'|(\S+)")


def extract_params(sentence: str) -> list[tuple[PlaceholderKind, str]]:
    """Typed parameter values in order of appearance.

    Quoted strings are always extracted (REGEX unless their shape says
    otherwise); unquoted tokens are extracted only when a concrete
    categorization rule fires, so plain English words stay out.
    """
    out: list[tuple[PlaceholderKind, str]] = []
    for match in _SPAN_RE.finditer(sentence):
        quoted = match.group(1) if match.group(1) is not None else match.group(2)
        if quoted is not None:
            if quoted:
                out.append((categorize(quoted), quoted))
            continue
        token = match.group(3).strip(_STRIP_CHARS)
        if not token:
            continue
        kind = categorize(token)
        if kind is not PlaceholderKind.REGEX:
            out.append((kind, token))
    return out

