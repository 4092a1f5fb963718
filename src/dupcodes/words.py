"""Words over Z_q and their run statistics.

A word is an immutable sequence of symbols from {0, ..., q-1} that carries
its alphabet size. All operations are pure; words hash and compare by
(symbols, q), so words over different alphabets never compare equal and
mixing them in binary operations raises ValueError.

Positions handed to the error operations elsewhere in this package are
0-based prefix lengths; symbols are referred to 1-based (x_1 ... x_n) in
documentation and error messages.
"""

from dataclasses import dataclass
from itertools import groupby


@dataclass(frozen=True, slots=True)
class Word:
    """Immutable word over the integers modulo q."""

    symbols: tuple[int, ...]
    q: int

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"alphabet size must be >= 2, got q={self.q}")
        if not isinstance(self.symbols, tuple):
            object.__setattr__(self, "symbols", tuple(self.symbols))
        for s in self.symbols:
            if not 0 <= s < self.q:
                raise ValueError(f"symbol {s} outside alphabet range 0..{self.q - 1}")

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def __str__(self):
        return format_word(self)


_new_word = object.__new__
_set_symbols = Word.symbols.__set__
_set_q = Word.q.__set__


def _unchecked_word(symbols: tuple[int, ...], q: int) -> Word:
    """Word built without the symbol check, for symbols that come from a valid
    word or are reduced mod q; `symbols` must already be a tuple of ints.

    Only the package's own operations call this: every word that enters from
    outside goes through a checking constructor (`Word`, `word` or
    `parse_word`).
    """
    w = _new_word(Word)
    _set_symbols(w, symbols)
    _set_q(w, q)
    return w


def _word_of_row(row, q: int) -> Word:
    """The word of one integer row whose symbols lie in 0..q-1."""
    return _unchecked_word(tuple(row.tolist()), q)


_ROW_BLOCK = 4096  # rows converted to Python lists at a time


def _words_of_rows(rows, q: int):
    """The words of an (N, n) integer array whose symbols lie in 0..q-1, as
    the wordspace kernels produce them, in row order. Converts one block of
    rows at a time, so no list of all rows is ever built."""
    for start in range(0, len(rows), _ROW_BLOCK):
        for row in rows[start : start + _ROW_BLOCK].tolist():
            yield _unchecked_word(tuple(row), q)


def word(symbols, q: int) -> Word:
    """Convenience constructor accepting any iterable of symbols."""
    return Word(tuple(symbols), q)


def parse_word(text: str, q: int) -> Word:
    """Parse the textual word format.

    For q <= 10 a word is a digit string ("11110220"); for q > 10 it is a
    comma-separated list of integers ("12,0,11"). A comma-separated string
    is accepted for any q.
    """
    text = text.strip()
    if text == "":
        return Word((), q)
    if "," in text:
        symbols = tuple(int(part) for part in text.split(","))
    else:
        if q > 10:
            raise ValueError("words over q > 10 must be comma-separated")
        symbols = tuple(int(ch) for ch in text)
    return Word(symbols, q)


def format_word(x: Word) -> str:
    """Inverse of parse_word: digit string for q <= 10, else comma-separated."""
    if x.q <= 10:
        return "".join(str(s) for s in x.symbols)
    return ",".join(str(s) for s in x.symbols)


def run_profile(x: Word) -> tuple[int, ...]:
    """Lengths of the maximal blocks of equal symbols of a nonempty word, left
    to right."""
    if len(x) == 0:
        raise ValueError("empty input: run profile needs at least one symbol")
    return tuple(sum(1 for _ in grp) for _, grp in groupby(x.symbols))
