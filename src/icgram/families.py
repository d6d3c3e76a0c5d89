"""Verdicts, family labels and the caps of every search, apart from the
deciders (``subregular`` re-exports them) so that naming a family or a cap
does not load a decider."""

from __future__ import annotations

from enum import Enum

from .errors import TextFormatError, at_line
from .words import Record

DEFAULT_MONOID_CAP = 10_000  # elements of a transition monoid
DEFAULT_FRONTIER_CAP = 200_000  # words enumerated, or explored by membership


class SearchCaps(Record):
    """Every cap of a search: the first four bound the grammar search behind
    RL_V and RL_P, ``monoid_cap`` the transition-monoid walk behind NC and
    PS, and ``frontier_cap`` enumeration and backward membership."""

    max_nonterminals: int = 2
    max_rules: int = 4
    max_rhs_len: int = 3
    max_candidates: int = 200_000
    monoid_cap: int = DEFAULT_MONOID_CAP
    frontier_cap: int = DEFAULT_FRONTIER_CAP

    def describe(self) -> str:
        return (f"nonterminals<={self.max_nonterminals}, rules<={self.max_rules}, "
                f"rhs<={self.max_rhs_len}")


class Verdict(str, Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


_PLAIN_KINDS = ("MON", "FIN", "NIL", "COMB", "DEF", "SUF", "ORD",
                "COMM", "CIRC", "NC", "PS", "UF", "REG")
_PARAM_KINDS = ("RL_V", "RL_P", "REG_Z")


class FamilyLabel(Record):
    """A family name, optionally with a resource bound: ``MON``, ``RL_V(2)``."""

    kind: str
    n: int | None = None

    def __post_init__(self):
        if self.kind in _PLAIN_KINDS:
            if self.n is not None:
                raise ValueError(f"{self.kind} takes no parameter")
        elif self.kind in _PARAM_KINDS:
            if self.n is None or self.n < 1:
                raise ValueError(f"{self.kind} needs a bound >= 1")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

    def __str__(self) -> str:
        return self.kind if self.n is None else f"{self.kind}({self.n})"

    @property
    def structural(self) -> bool:
        return self.kind in _PLAIN_KINDS and self.kind != "REG"


MON = FamilyLabel("MON")
FIN = FamilyLabel("FIN")
NIL = FamilyLabel("NIL")
COMB = FamilyLabel("COMB")
DEF = FamilyLabel("DEF")
SUF = FamilyLabel("SUF")
ORD = FamilyLabel("ORD")
COMM = FamilyLabel("COMM")
CIRC = FamilyLabel("CIRC")
NC = FamilyLabel("NC")
PS = FamilyLabel("PS")
UF = FamilyLabel("UF")
REG = FamilyLabel("REG")


def rl_v(n: int) -> FamilyLabel:
    return FamilyLabel("RL_V", n)


def rl_p(n: int) -> FamilyLabel:
    return FamilyLabel("RL_P", n)


def reg_z(n: int) -> FamilyLabel:
    return FamilyLabel("REG_Z", n)


FAMILY_ORDER = (MON, FIN, NIL, COMB, DEF, SUF, ORD, COMM, CIRC, NC, PS, UF, REG)

# the scopes of ``hierarchy``, kept here so the command line need not load it
SCOPES = ("subregular", "ic-structural", "ic-resource", "merged")


def parse_family_label(text: str) -> FamilyLabel:
    text = text.strip()
    if "(" in text:
        kind, _, rest = text.partition("(")
        if not rest.endswith(")"):
            raise TextFormatError(f"malformed family label {text!r}")
        try:
            n = int(rest[:-1])
        except ValueError:
            raise TextFormatError(f"malformed family bound in {text!r}") from None
        with at_line():
            return FamilyLabel(kind.strip(), n)
    with at_line():
        return FamilyLabel(text)


def label_sort_key(label: FamilyLabel) -> tuple:
    kinds = _PLAIN_KINDS + _PARAM_KINDS
    return (kinds.index(label.kind), label.n or 0)
