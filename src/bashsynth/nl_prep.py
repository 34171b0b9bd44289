"""Natural-language preprocessing and typed parameter extraction.

Sentences are lowercased, lemmatized by a small rule table, and filtered
against a shipped stop list. Parameter extraction pulls quoted strings,
numbers, and path-like tokens out of English text, in order of
appearance, tagged with the same placeholder kinds the command parser
uses, so the output feeds straight into template filling.
"""

from __future__ import annotations

import re

from .bash_ast import PlaceholderKind, categorize
from .dataset_io import shipped

__all__ = ["preprocess", "lemmatize", "extract_params"]

_STRIP_CHARS = "\"'().,;:!?"


def _load_wordlist(name: str) -> frozenset[str]:
    """The words of the shipped list ``name``, one a line, ``#`` comments skipped."""
    text = shipped(name).read_text(encoding="utf-8")
    return frozenset(
        line.strip() for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )


_STOPWORDS = _load_wordlist("stopwords.txt")
_LEMMA_EXCEPTIONS = _load_wordlist("lemma_exceptions.txt")


def _lemma_step(word: str) -> str:
    if word in _LEMMA_EXCEPTIONS or len(word) <= 3:
        return word
    if word.endswith("'s"):
        return word[:-2]
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("es") and word[:-2].endswith(("ch", "sh", "x", "z", "s")):
        return word[:-2]
    if word.endswith(("ss", "us", "is")):
        return word
    if word.endswith("s"):
        return word[:-1]
    if word.endswith("ing") and len(word) > 5:
        stem = word[:-3]
        if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] not in "sl":
            stem = stem[:-1]
        return stem if len(stem) >= 3 else word
    if word.endswith("ied") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith("ed") and len(word) > 4:
        stem = word[:-2]
        if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] not in "sl":
            stem = stem[:-1]
        return stem if len(stem) >= 3 else word
    return word


def lemmatize(word: str) -> str:
    """Strip plural/-ing/-ed suffixes, iterated to a fixed point."""
    for _ in range(4):
        reduced = _lemma_step(word)
        if reduced == word:
            return word
        word = reduced
    return word


def preprocess(sentence: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Lowercase, lemmatize, and stop-filter one sentence. Idempotent."""
    stopwords = _STOPWORDS if stopwords is None else stopwords
    tokens = []
    for raw in sentence.lower().split():
        token = raw.strip(_STRIP_CHARS)
        if not token or token in stopwords:
            continue
        token = lemmatize(token)
        if token and token not in stopwords:
            tokens.append(token)
    return tokens


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

