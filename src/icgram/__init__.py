"""Internal contextual grammars with regular selection languages.

Three layers: a regular-language core (``words``, ``regex``, ``automata``,
``rlgrammar``) with the family and cap vocabulary (``families``); the
contextual layer (``contextual``, ``ctxformat``, ``witnesses``, ``resources``)
of derivation, enumeration, membership and witness grammars; and the deciders
(``subregular``, ``monoid``, ``hierarchy``) of families and inclusions.

``import icgram`` loads no submodule: each public name loads its module on
first use.  Derivation, enumeration, membership and ``build_witness`` load
neither the deciders nor ``resources``; ``classify``, the ``is_*`` predicates,
``selection_in_family``, ``check_witness`` and ``hierarchy`` do.
``icgram.cli`` exposes all of it as a command-line tool.
"""

import sys
from importlib import import_module
from types import ModuleType

_EXPORTS = {
    "words": "Alphabet Symbol Word EMPTY_WORD word_from_text word_to_text",
    "errors": "IcgramError AlphabetMismatchError InvalidAutomatonError "
        "InvalidGrammarError ResourceLimitError TextFormatError "
        "UndecidedError NonFiniteSelectionError DecompositionMismatchError",
    "regex": "Regex EmptyLang EmptyWord Literal Concat Union Star "
        "parse_regex format_regex",
    "automata": "Dfa Nfa accepts regex_to_dfa regex_to_nfa nfa_to_dfa "
        "minimize equivalent complement combine enumerate_regular "
        "language_is_finite dfa_to_table parse_dfa_table",
    "rlgrammar": "RightLinearGrammar Rule grammar_to_nfa parse_grammar "
        "grammar_to_text",
    "monoid": "TransitionMonoid transition_monoid",
    "families": "DEFAULT_MONOID_CAP SearchCaps Verdict FamilyLabel "
        "parse_family_label MON FIN NIL COMB DEF SUF ORD COMM CIRC NC PS UF "
        "REG rl_v rl_p reg_z",
    "subregular": "Evidence FamilyReport classify is_monoidal is_finite "
        "is_nilpotent is_combinational is_definite is_suffix_closed "
        "is_ordered is_commutative is_circular is_noncounting "
        "is_power_separating union_free_syntax selection_in_family "
        "PairVerdict SelectionFamilyResult",
    "resources": "ResourceMeasure count_resources bounded_min_grammar "
        "dfa_to_grammar measure",
    "contextual": "Context ContextualGrammar SelectionPair DerivationStep "
        "Diagnostic validate ensure_valid derive_step enumerate_ic member_ic "
        "member_trace split_finite_selection split_definite_selection",
    "ctxformat": "format_contextual parse_contextual",
    "hierarchy": "Edge HierarchyTable hierarchy SCOPES",
    "witnesses": "WitnessCase WitnessReport CheckResult WITNESS_IDS "
        "build_witness check_witness closed_form",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        home = import_module(f"{__name__}.{_HOME[name]}")
        value = globals()[name] = getattr(home, name)
        return value
    if name in _EXPORTS:  # a submodule, as ``icgram.automata``
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    # Loading a submodule binds it on the package.  A public name spelled
    # like its module (``hierarchy``) stays bound, as the eager import did.
    def __setattr__(self, name, value):
        if name in _HOME and isinstance(value, ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
