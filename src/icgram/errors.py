"""Exception types shared across the package."""

from contextlib import contextmanager


class IcgramError(Exception):
    """Base class for all errors raised by this package."""


class AlphabetMismatchError(IcgramError):
    """An operation received objects over different (or foreign) alphabets."""


class InvalidAutomatonError(IcgramError):
    """An automaton violates a structural invariant (totality, membership)."""


class InvalidGrammarError(IcgramError):
    """A grammar violates a structural invariant.

    For contextual grammars the full diagnostic list is attached as
    ``diagnostics`` so callers can report every problem at once.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics) if diagnostics else []


class UndecidedError(IcgramError):
    """A semi-decision procedure could not settle the question either way.

    Raised only by boolean convenience wrappers whose underlying check is
    three-valued; callers that can handle an explicit ``unknown`` should use
    the report-producing entry points instead.
    """


class ResourceLimitError(IcgramError):
    """A configurable size cap (monoid elements, frontier, search space) was hit."""

    def __init__(self, message, cap=None, reached=None):
        super().__init__(message)
        self.cap = cap
        self.reached = reached


class TextFormatError(IcgramError):
    """A parse error in one of the text formats, with 1-based position info."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{line}:{column}: {message}")
        self.bare_message = message
        self.line = line
        self.column = column


class NonFiniteSelectionError(IcgramError):
    """A transformation that requires finite selection languages met an infinite one."""


class DecompositionMismatchError(IcgramError):
    """A claimed selection decomposition does not denote the selection language."""


class InternalConsistencyError(IcgramError):
    """Cross-validation of decision procedures failed; indicates a bug, not bad input."""


@contextmanager
def at_line(line: int = 1):
    """Re-raise a bad alphabet, symbol or object met while reading a text
    format as a :class:`TextFormatError` at ``line``, with its message."""
    try:
        yield
    except (ValueError, AlphabetMismatchError, InvalidAutomatonError,
            InvalidGrammarError) as e:
        raise TextFormatError(str(e), line=line) from None
