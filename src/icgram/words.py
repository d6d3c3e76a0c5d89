"""Alphabets and words.

A symbol is a non-empty string (``"a"``, ``"b"``, but also ``"a1"`` for
indexed letter families).  A word is a tuple of symbols; the empty tuple is
the empty word.  Text rendering uses plain juxtaposition when every symbol of
the governing alphabet is a single character, and ``.``-separated symbols
otherwise; the empty word is always written ``@``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator

from .errors import AlphabetMismatchError, TextFormatError, at_line

Symbol = str
Word = tuple[Symbol, ...]

EMPTY_WORD: Word = ()

# Characters that would collide with the text formats (regexes, rule files,
# context lists), so they may not appear inside symbols.
_FORBIDDEN_IN_SYMBOLS = set("@()|*,.#:∅ \t\r\n")


class _Values:
    """``record._values``: the tuple of its fields, stored on it at first use."""

    def __get__(self, record, cls):
        values = cls._get(record)
        object.__setattr__(record, "_values", values)
        return values


class Record:
    """An immutable record, as ``@dataclass(frozen=True)`` makes one: its
    fields are the annotations, defaulting to the class attributes of their
    names.  The ``__init__`` compiled per class sets them and runs any
    ``__post_init__``; ``==`` and ``hash`` read ``_values``."""

    _fields: tuple[str, ...] = ()
    _values = _Values()

    def __init_subclass__(cls):
        cls._fields = names = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        cls._get = attrgetter(*names) if len(names) > 1 else \
            lambda record: tuple(getattr(record, n) for n in names)
        namespace = {"_set": object.__setattr__}
        namespace.update((f"_d_{n}", getattr(cls, n)) for n in names if hasattr(cls, n))
        params = "".join(f", {n}=_d_{n}" if hasattr(cls, n) else f", {n}" for n in names)
        body = [f"_set(self, {n!r}, {n})" for n in names]
        body += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
        exec(f"def __init__(self{params}):\n    " + "\n    ".join(body or ["pass"]),
             namespace)
        cls.__init__ = namespace["__init__"]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, *value):  # and, as __delattr__, without value
        raise AttributeError(f"cannot assign or delete field {name!r}")

    __delattr__ = __setattr__

    def replace(self, **changes):
        """A copy with the given fields changed."""
        return self.__class__(**{n: getattr(self, n) for n in self._fields} | changes)


class Alphabet(Record):
    """A finite, non-empty, ordered set of symbols.

    Order matters: it fixes shortlex enumeration, canonical state numbering
    and every serialized artifact, which keeps all outputs deterministic.
    """

    symbols: tuple[Symbol, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        seen = set()
        for s in self.symbols:
            if not isinstance(s, str) or not s:
                raise ValueError(f"bad symbol {s!r}: symbols are non-empty strings")
            if set(s) & _FORBIDDEN_IN_SYMBOLS:
                raise ValueError(f"bad symbol {s!r}: contains a reserved character")
            if s in seen:
                raise ValueError(f"duplicate symbol {s!r}")
            seen.add(s)

    @classmethod
    def of(cls, *symbols: Symbol) -> "Alphabet":
        return cls(tuple(symbols))

    @classmethod
    def from_text(cls, text: str) -> "Alphabet":
        """Parse ``"a b c"`` (whitespace separated) or ``"abc"`` (one token,
        split into single characters)."""
        parts = text.split()
        if not parts:
            raise TextFormatError("empty alphabet")
        if len(parts) == 1 and len(parts[0]) > 1 and "." not in parts[0]:
            parts = list(parts[0])
        out = []
        for p in parts:
            out.extend(p.split(".")) if "." in p else out.append(p)
        with at_line():
            return cls(tuple(out))

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self.symbols

    def index(self, symbol: Symbol) -> int:
        return self.symbols.index(symbol)

    def is_subset_of(self, other: "Alphabet") -> bool:
        return set(self.symbols) <= set(other.symbols)

    @property
    def single_char(self) -> bool:
        return all(len(s) == 1 for s in self.symbols)

    def check_word(self, w: Word) -> None:
        for s in w:
            if s not in self.symbols:
                raise AlphabetMismatchError(
                    f"symbol {s!r} not in alphabet {{{' '.join(self.symbols)}}}"
                )


def word_to_text(w: Word, alphabet: Alphabet | None = None) -> str:
    """Render a word; ``@`` for the empty word."""
    if not w:
        return "@"
    joined = alphabet.single_char if alphabet is not None else all(len(s) == 1 for s in w)
    return "".join(w) if joined else ".".join(w)


def word_from_text(text: str, alphabet: Alphabet) -> Word:
    """Parse a word in the rendering of :func:`word_to_text`."""
    text = text.strip()
    if text == "@" or text == "":
        return EMPTY_WORD
    if alphabet.single_char and "." not in text:
        w = tuple(text)
    else:
        w = tuple(p for p in text.split(".") if p)
    alphabet.check_word(w)
    return w


def clean_lines(text: str) -> list[tuple[int, str]]:
    """``(line number, text)`` of each line of a text format, ``#`` comment
    cut off and stripped; lines left blank are dropped."""
    return [(i + 1, t) for i, raw in enumerate(text.splitlines())
            if (t := raw.split("#", 1)[0].strip())]


def shortlex_key(w: Word, alphabet: Alphabet):
    return (len(w), tuple(alphabet.index(s) for s in w))


def sort_words(words: Iterable[Word], alphabet: Alphabet) -> list[Word]:
    return sorted(words, key=lambda w: shortlex_key(w, alphabet))


def fresh_prefix(stem: str, names: Iterable[str]) -> str:
    """The shortest repetition of ``stem`` that no name starts with, so
    that names built on it cannot clash with any of ``names``."""
    prefix = stem
    while any(s.startswith(prefix) for s in names):
        prefix += stem
    return prefix
