"""Bash command dataset toolkit: parse, synthesize, validate, scale, score."""

__version__ = "0.1.0"

from .bash_ast import (  # noqa: F401
    BashAst,
    ParseError,
    PlaceholderKind,
    UtilityNode,
    categorize,
    fill,
    parse,
    render,
    templatize,
    vocabulary,
)
from .dataset_io import DatasetRecord, read_records, split_records, stats, write_records  # noqa: F401
from .generator import dedup, generate_piped, generate_unpiped  # noqa: F401
from .metrics import dataset_accuracy, flag_score, score_pair, utility_score  # noqa: F401
from .scaler import DistributionProfile, profile_of, scale  # noqa: F401
from .syntax_kb import GenArgKind, SyntaxKb, UtilitySpec, to_parser_kind  # noqa: F401
from .validator import SandboxConfig, ValidationResult, instantiate, run_batch  # noqa: F401
