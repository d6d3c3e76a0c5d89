"""The package loads each layer only where it is used, and its public
surface is the same set of names, bound to the same objects, as under the
eager ``__init__`` it replaced."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icgram

ROOT = Path(__file__).resolve().parent.parent
DECIDERS = {"icgram.subregular", "icgram.monoid", "icgram.hierarchy"}

# Every public name, under its home module.
PUBLIC = {
    "words": "Alphabet Symbol Word EMPTY_WORD word_from_text word_to_text",
    "errors": "IcgramError AlphabetMismatchError InvalidAutomatonError "
              "InvalidGrammarError ResourceLimitError TextFormatError "
              "UndecidedError NonFiniteSelectionError DecompositionMismatchError",
    "regex": "Regex EmptyLang EmptyWord Literal Concat Union Star parse_regex "
             "format_regex",
    "automata": "Dfa Nfa accepts regex_to_dfa regex_to_nfa nfa_to_dfa minimize "
                "equivalent complement combine enumerate_regular "
                "language_is_finite dfa_to_table parse_dfa_table",
    "rlgrammar": "RightLinearGrammar Rule grammar_to_nfa parse_grammar "
                 "grammar_to_text",
    "monoid": "TransitionMonoid transition_monoid DEFAULT_MONOID_CAP",
    "subregular": "Verdict FamilyLabel Evidence FamilyReport classify "
                  "parse_family_label MON FIN NIL COMB DEF SUF ORD COMM CIRC "
                  "NC PS UF REG rl_v rl_p reg_z is_monoidal is_finite "
                  "is_nilpotent is_combinational is_definite is_suffix_closed "
                  "is_ordered is_commutative is_circular is_noncounting "
                  "is_power_separating union_free_syntax selection_in_family "
                  "SelectionFamilyResult PairVerdict",
    "families": "SearchCaps",
    "resources": "ResourceMeasure count_resources bounded_min_grammar "
                 "dfa_to_grammar measure",
    "contextual": "Context ContextualGrammar SelectionPair DerivationStep "
                  "Diagnostic validate ensure_valid derive_step "
                  "enumerate_ic member_ic member_trace split_finite_selection "
                  "split_definite_selection",
    "ctxformat": "format_contextual parse_contextual",
    "hierarchy": "hierarchy Edge HierarchyTable SCOPES",
    "witnesses": "WitnessCase WitnessReport CheckResult WITNESS_IDS "
                 "build_witness check_witness closed_form",
}
NAMES = [(module, name) for module, names in PUBLIC.items()
         for name in names.split()]


def _loaded_after(code: str, package: str = "icgram") -> set[str]:
    """The modules of ``package`` that a fresh interpreter holds after
    ``code``."""
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules "
              f"if m == {package!r} or m.startswith({package + '.'!r}))))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_submodule():
    assert _loaded_after("import icgram") == {"icgram"}


def test_the_grammar_format_loads_no_decider_and_no_witness():
    loaded = _loaded_after("import icgram.ctxformat")
    assert "icgram.ctxformat" in loaded
    assert not loaded & (DECIDERS | {"icgram.witnesses", "icgram.resources"})


def test_witnesses_and_membership_load_no_decider():
    loaded = _loaded_after(
        "import icgram\n"
        "g = icgram.build_witness('L6', 2).grammar\n"
        "w = icgram.word_from_text('a1.a2.a2.a1', g.alphabet)\n"
        "assert icgram.member_ic(g, w) is False\n"
        "assert icgram.member_ic(g, w[:2]) is True\n"
        "assert icgram.enumerate_ic(g, 6)")
    assert {"icgram.witnesses", "icgram.contextual"} <= loaded
    assert not loaded & (DECIDERS | {"icgram.resources"})


@pytest.mark.parametrize("name, module", [
    ("classify", "subregular"), ("hierarchy", "hierarchy"),
    ("TransitionMonoid", "monoid")])
def test_a_decider_loads_on_first_use(name, module):
    assert f"icgram.{module}" in _loaded_after(f"import icgram\nicgram.{name}")


def test_the_command_line_loads_classify_and_witnesses_per_command():
    loaded = _loaded_after("import icgram.cli")
    assert not loaded & {"icgram.subregular", "icgram.monoid",
                         "icgram.witnesses", "icgram.hierarchy"}


def test_records_load_no_dataclasses():
    # one ``@dataclass`` on the engine's path would compile its methods at
    # every start; the records are ``words.Record``s
    assert not _loaded_after("import icgram.cli, icgram.witnesses, "
                             "icgram.contextual", "dataclasses")


def test_public_names_are_the_eager_objects():
    assert len(NAMES) == 115
    assert sorted(icgram.__all__) == sorted(name for _, name in NAMES)
    for module, name in NAMES:
        home = importlib.import_module(f"icgram.{module}")
        assert getattr(icgram, name) is getattr(home, name), name


def test_public_names_are_listed_and_star_imported():
    assert {name for _, name in NAMES} <= set(dir(icgram))
    namespace: dict = {}
    exec("from icgram import *", namespace)
    for _, name in NAMES:
        assert namespace[name] is getattr(icgram, name), name


def test_family_vocabulary_is_one_set_of_objects():
    from icgram import contextual, families, monoid, resources, subregular
    for name in ("Verdict", "FamilyLabel", "MON", "REG", "rl_v",
                 "parse_family_label", "label_sort_key", "FAMILY_ORDER"):
        assert getattr(subregular, name) is getattr(families, name)
    assert monoid.DEFAULT_MONOID_CAP is families.DEFAULT_MONOID_CAP
    assert contextual.DEFAULT_FRONTIER_CAP is families.DEFAULT_FRONTIER_CAP
    assert resources.SearchCaps is families.SearchCaps
    hierarchy = importlib.import_module("icgram.hierarchy")
    assert hierarchy.SCOPES is families.SCOPES


def test_the_hierarchy_name_survives_its_submodule_loading_first():
    # the import system binds a newly loaded submodule on its package; the
    # public function of the same name must stay what ``icgram.hierarchy`` is
    code = ("import icgram.hierarchy as h, icgram\n"
            "from icgram.hierarchy import hierarchy\n"
            "assert icgram.hierarchy is hierarchy and h is hierarchy\n"
            "assert icgram.automata.minimize is icgram.minimize")
    assert "icgram.hierarchy" in _loaded_after(code)
