"""Bash command dataset toolkit: parse, synthesize, validate, scale, score."""

__version__ = "0.1.0"
