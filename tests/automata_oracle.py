"""The plain minimization, kept as a test oracle.

Moore partition refinement on state-keyed dicts: the reachable states are
found by a breadth-first search over the input's own states, each state's
block is looked up through ``delta`` on every round, and the blocks are
renumbered breadth-first at the end.
``tests/test_automata.py`` checks ``icgram.automata.minimize``, which
refines over the integer letter rows of ``Dfa.rows``, against it.
"""

from icgram.automata import _explore, reachable_states


def minimize(d):
    reach = reachable_states(d)
    block = {}
    for q in reach:
        block[q] = 0 if q in d.accepting else 1
    while True:
        signatures = {}
        new_block = {}
        for q in reach:
            sig = (block[q],) + tuple(block[d.delta[(q, a)]] for a in d.alphabet)
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block[q] = signatures[sig]
        if len(signatures) == len(set(block.values())):
            break
        block = new_block
    rep = {}
    for q in reach:
        rep.setdefault(block[q], q)
    return _explore(d.alphabet, block[d.initial],
                    lambda b, a: block[d.delta[(rep[b], a)]],
                    lambda b: rep[b] in d.accepting)
