"""Duplication-correcting codes over Z_q.

Channel models for tandem and palindromic duplications/deletions, exact
sphere-size formulas with enumeration oracles, generalized sphere-packing
upper bounds, and three single-error-correcting constructions with
syndrome decoders.
"""

from .channel import (
    PAL_DEL,
    PAL_DUP,
    TANDEM_DEL,
    TANDEM_DUP,
    ErrorKind,
    deletion_positions,
    error_ball,
    error_sphere,
    palindromic_delete,
    palindromic_duplicate,
    tandem_delete,
    tandem_duplicate,
)
from .codes import (
    DecodingFailure,
    PalindromeFreeCode,
    PalindromicL2Code,
    TandemVTCode,
    c1_decode,
    c2_decode,
)
from .transform import derive, zero_signature
from .words import Word, format_word, parse_word, run_profile, word

__version__ = "0.1.0"

__all__ = [
    "Word",
    "word",
    "parse_word",
    "format_word",
    "run_profile",
    "ErrorKind",
    "TANDEM_DUP",
    "TANDEM_DEL",
    "PAL_DUP",
    "PAL_DEL",
    "tandem_duplicate",
    "tandem_delete",
    "palindromic_duplicate",
    "palindromic_delete",
    "deletion_positions",
    "error_sphere",
    "error_ball",
    "derive",
    "zero_signature",
    "DecodingFailure",
    "TandemVTCode",
    "PalindromicL2Code",
    "PalindromeFreeCode",
    "c1_decode",
    "c2_decode",
]
