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
    # findall gives "" for a group that did not take part, and only a
    # quote, never a bare word, can be empty
    for double, single, word in _SPAN_RE.findall(sentence):
        if not word:
            quoted = double or single
            if quoted:
                out.append((categorize(quoted), quoted))
            continue
        token = word.strip(_STRIP_CHARS)
        if not token:
            continue
        kind = categorize(token)
        if kind is not PlaceholderKind.REGEX:
            out.append((kind, token))
    return out

