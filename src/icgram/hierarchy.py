"""Inclusion tables between language families.

Four scopes:

* ``subregular`` — inclusions between the subregular families themselves
  (the classical picture, with the resource chains instantiated up to a
  parameter bound).
* ``ic-structural`` — inclusions between the classes generated by internal
  contextual grammars whose selections are restricted to a structural family.
* ``ic-resource`` — the same for the resource-bounded selection families.
* ``merged`` — both generated pictures in one diagram, plus the cross edges
  and collapses that only appear when the two are put side by side.

Edges carry a status: ``proper`` (strict inclusion), ``open-properness``
(inclusion holds, strictness open), ``equal`` (the two classes coincide),
and ``unknown`` (no inclusion known either way — recorded so open questions
are first-class data rather than silent omissions).
"""

from __future__ import annotations

from functools import cached_property

from .families import (CIRC, COMB, COMM, DEF, FIN, MON, NC, NIL, ORD, PS,
                         REG, SCOPES, SUF, UF, FamilyLabel, label_sort_key,
                         reg_z, rl_p, rl_v)
from .words import Record

PROPER = "proper"
OPEN = "open-properness"
UNKNOWN = "unknown"
EQUAL = "equal"


class Edge(Record):
    src: FamilyLabel
    dst: FamilyLabel
    status: str = PROPER

    def __str__(self) -> str:
        arrow = "=" if self.status == EQUAL else "->"
        return f"{self.src} {arrow} {self.dst} [{self.status}]"


class HierarchyTable(Record):
    scope: str
    edges: frozenset

    @cached_property
    def nodes(self) -> frozenset:
        """The families the edges join."""
        return frozenset(x for e in self.edges for x in (e.src, e.dst))

    @cached_property
    def reach(self) -> dict[FamilyLabel, set[FamilyLabel]]:
        """Each node's families derivable over the known edges (all but
        ``unknown``), itself included (Warshall's closure), computed once
        per table."""
        reach = {x: {x} for x in self.nodes}
        for e in (e for e in self.edges if e.status != UNKNOWN):
            reach[e.src].add(e.dst)
            if e.status == EQUAL:
                reach[e.dst].add(e.src)
        for k in self.nodes:
            for x in self.nodes:
                if k in reach[x]:
                    reach[x] |= reach[k]
        return reach

    def reachable(self, src: FamilyLabel, dst: FamilyLabel) -> bool:
        """Is an inclusion src ⊆ dst derivable from the known edges?"""
        return src == dst or dst in self.reach.get(src, ())

    def to_text(self) -> str:
        lines = [f"scope: {self.scope}",
                 "nodes: " + " ".join(str(n) for n in
                                      sorted(self.nodes, key=label_sort_key))]
        order = {PROPER: 0, OPEN: 1, EQUAL: 2, UNKNOWN: 3}
        for e in sorted(self.edges,
                        key=lambda e: (order[e.status], label_sort_key(e.src),
                                       label_sort_key(e.dst))):
            lines.append(str(e))
        return "\n".join(lines) + "\n"


def _resource_chains(n: int) -> list[Edge]:
    """The RL_P chain up to ``2n`` and the RL_V and REG_Z chains up to ``n``,
    each ending in REG, plus RL_P(2k) -> RL_V(k)."""
    e = [Edge(rl_p(k), rl_p(k + 1)) for k in range(1, 2 * n)]
    e += [Edge(rl_v(k), rl_v(k + 1)) for k in range(1, n)]
    e += [Edge(reg_z(k), reg_z(k + 1)) for k in range(1, n)]
    e += [Edge(rl_p(2 * n), REG), Edge(rl_v(n), REG), Edge(reg_z(n), REG)]
    return e + [Edge(rl_p(2 * k), rl_v(k)) for k in range(1, n + 1)]


def _subregular_edges(n: int) -> list[Edge]:
    e = [Edge(FIN, NIL), Edge(MON, reg_z(1)),
         Edge(reg_z(1), NIL), Edge(reg_z(1), SUF), Edge(reg_z(1), COMM),
         Edge(reg_z(1), UF),
         Edge(rl_p(1), FIN), Edge(rl_p(1), UF),
         Edge(NIL, DEF), Edge(NIL, rl_v(1)),
         Edge(COMB, DEF), Edge(COMB, rl_v(1)), Edge(COMB, reg_z(2)),
         Edge(DEF, ORD), Edge(DEF, rl_v(2)),
         Edge(ORD, NC), Edge(NC, PS), Edge(PS, REG),
         Edge(SUF, PS), Edge(COMM, CIRC), Edge(CIRC, REG), Edge(UF, REG)]
    return e + _resource_chains(n) + [Edge(reg_z(k), rl_v(k))
                                      for k in range(2, n + 1)]


def _ic_structural_edges() -> list[Edge]:
    return [
        Edge(MON, COMB), Edge(MON, NIL), Edge(MON, SUF), Edge(MON, COMM),
        Edge(FIN, NIL),
        Edge(NIL, DEF), Edge(COMB, DEF),
        Edge(DEF, ORD),
        Edge(ORD, NC, OPEN),
        Edge(NC, PS), Edge(PS, REG),
        Edge(SUF, PS),
        Edge(COMM, CIRC), Edge(CIRC, REG),
        Edge(UF, REG, EQUAL),
        Edge(SUF, ORD, UNKNOWN), Edge(SUF, NC, UNKNOWN),
    ]


def _ic_resource_edges(n: int) -> list[Edge]:
    e = _resource_chains(n)
    e += [Edge(reg_z(k), rl_v(k)) for k in range(1, n + 1)]
    return e + [Edge(reg_z(k + 1), rl_v(k), UNKNOWN) for k in range(1, n)]


def _merged_edges(n: int) -> list[Edge]:
    e = _ic_structural_edges() + _ic_resource_edges(n)
    e.append(Edge(COMB, reg_z(2)))
    e.append(Edge(DEF, rl_v(1)))
    e.append(Edge(rl_p(1), FIN, EQUAL))
    e.append(Edge(MON, reg_z(1), EQUAL))
    for k in range(1, n + 1):
        e.append(Edge(SUF, rl_v(k), UNKNOWN))
    for k in range(2, n + 1):
        e.append(Edge(SUF, reg_z(k), UNKNOWN))
    return e


def hierarchy(scope: str, max_param: int = 3) -> HierarchyTable:
    """The inclusion table for one scope, resource chains instantiated up to
    ``max_param`` (rule chains run to ``2 * max_param``)."""
    if max_param < 2:
        raise ValueError("max_param must be at least 2")
    if scope == "subregular":
        edges = _subregular_edges(max_param)
    elif scope == "ic-structural":
        edges = _ic_structural_edges()
    elif scope == "ic-resource":
        edges = _ic_resource_edges(max_param)
    elif scope == "merged":
        edges = _merged_edges(max_param)
    else:
        raise ValueError(f"unknown scope {scope!r}; use one of {SCOPES}")
    return HierarchyTable(scope, frozenset(edges))
