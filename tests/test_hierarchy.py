import pytest

from icgram.hierarchy import EQUAL, OPEN, PROPER, SCOPES, UNKNOWN, hierarchy
from icgram.subregular import (CIRC, COMB, COMM, DEF, FIN, MON, NC, NIL, ORD,
                               PS, REG, SUF, UF, reg_z, rl_p, rl_v)


def test_scopes_build_with_frozen_sizes():
    sizes = {s: (len(hierarchy(s).nodes), len(hierarchy(s).edges))
             for s in SCOPES}
    assert sizes == {"subregular": (25, 39), "ic-structural": (13, 17),
                     "ic-resource": (13, 20), "merged": (25, 46)}


def test_subregular_reachability():
    t = hierarchy("subregular")
    assert t.reachable(FIN, REG)
    assert t.reachable(MON, NIL)           # via the one-state class
    assert t.reachable(COMB, NC)
    assert t.reachable(DEF, PS)
    assert t.reachable(rl_p(1), rl_v(1))
    assert t.reachable(reg_z(2), rl_v(2))
    assert not t.reachable(SUF, ORD)
    assert not t.reachable(COMM, NC)
    assert not t.reachable(REG, FIN)


# inclusions that classify()'s cross-check must catch a breach of, its
# state-count rules among them as REG_Z(k) edges
CROSS_CHECKED = [
    (MON, NIL), (MON, SUF), (MON, COMM), (FIN, NIL), (NIL, DEF), (COMB, DEF),
    (DEF, ORD), (ORD, NC), (NC, PS), (SUF, PS), (COMM, CIRC),
    (MON, reg_z(1)), (COMB, reg_z(2)),
    (reg_z(1), NIL), (reg_z(1), SUF), (reg_z(1), COMM), (reg_z(1), CIRC)]


@pytest.mark.parametrize("src, dst", CROSS_CHECKED)
def test_subregular_table_derives_every_cross_checked_inclusion(src, dst):
    assert hierarchy("subregular", 2).reachable(src, dst)


def test_reachable_agrees_with_a_search_over_the_edges():
    """The closure computed once per table answers as a fresh depth-first
    search over the known edges, both ways along ``equal``, would."""
    for scope in SCOPES:
        t = hierarchy(scope)
        adj = {x: set() for x in t.nodes}
        for e in t.edges:
            if e.status != UNKNOWN:
                adj[e.src].add(e.dst)
                if e.status == EQUAL:
                    adj[e.dst].add(e.src)
        for src in t.nodes:
            seen, stack = {src}, [src]
            while stack:
                for y in adj[stack.pop()] - seen:
                    seen.add(y)
                    stack.append(y)
            assert {y for y in t.nodes if t.reachable(src, y)} == seen, src
        assert t.reach is t.reach


def test_equal_edges_travel_both_ways():
    t = hierarchy("merged")
    assert t.reachable(MON, reg_z(1)) and t.reachable(reg_z(1), MON)
    assert t.reachable(rl_p(1), FIN) and t.reachable(FIN, rl_p(1))
    s = hierarchy("ic-structural")
    assert s.reachable(UF, REG) and s.reachable(REG, UF)


def test_unknown_edges_are_recorded_but_never_traversed():
    s = hierarchy("ic-structural")
    assert any(e.status == UNKNOWN and (e.src, e.dst) == (SUF, NC)
               for e in s.edges)
    assert not s.reachable(SUF, NC)
    assert not s.reachable(SUF, ORD)
    r = hierarchy("ic-resource")
    assert not r.reachable(reg_z(3), rl_v(2))
    assert r.reachable(reg_z(2), rl_v(2))


def test_open_properness_edges_still_assert_inclusion():
    s = hierarchy("ic-structural")
    assert any(e.status == OPEN and (e.src, e.dst) == (ORD, NC)
               for e in s.edges)
    assert s.reachable(ORD, REG)
    assert s.reachable(DEF, PS)


def test_merged_contains_cross_edges():
    m = hierarchy("merged")
    assert m.reachable(COMB, reg_z(3))
    assert m.reachable(DEF, rl_v(2))
    assert m.reachable(FIN, rl_p(2))       # via the FIN = RL_P(1) collapse
    assert not m.reachable(SUF, rl_v(2))   # open question, encoded unknown
    assert not m.reachable(NC, COMM)


def test_reflexive_and_param_growth():
    t = hierarchy("subregular", max_param=2)
    assert t.reachable(ORD, ORD)
    assert t.reachable(rl_v(1), rl_v(2))
    assert not t.reachable(rl_v(2), rl_v(1))
    big = hierarchy("subregular", max_param=3)
    assert big.reachable(rl_p(1), rl_p(6))


def test_to_text_is_deterministic_and_grouped():
    for scope in SCOPES:
        a, b = hierarchy(scope).to_text(), hierarchy(scope).to_text()
        assert a == b
        lines = a.strip().splitlines()
        assert lines[0] == f"scope: {scope}"
        assert lines[1].startswith("nodes: ")
        statuses = [ln.rsplit("[", 1)[1].rstrip("]") for ln in lines[2:]]
        order = {PROPER: 0, OPEN: 1, EQUAL: 2, UNKNOWN: 3}
        assert statuses == sorted(statuses, key=order.__getitem__)


def test_bad_arguments():
    with pytest.raises(ValueError):
        hierarchy("everything")
    with pytest.raises(ValueError):
        hierarchy("merged", max_param=1)
