"""The "same behaviour" digests of ``tests/digests.py``, pinned.

A change that moves one of these values changes what the program answers,
and says so, with the reason, in CHANGES.md.
"""

import digests


def test_classify_digest():
    assert digests.classify_digest() == \
        "e82533d766f875dc46539c26c663551ccc67f429e06dc45a39bec5987f5c80da"


def test_engine_digest():
    assert digests.engine_digest() == \
        "d6fe5712864f1c235364f23afe294f28495e85ff120e0a60f1106933c757a2a0"


def test_selection_in_family_digest():
    assert digests.selection_in_family_digest() == \
        "16712dcd54c7e41802b05dcc18346c4c8df3f5c2696c2742dd63dab1c4e9138e"


def test_monoid_digest():
    assert digests.monoid_digest() == \
        "fa85f7b600a403807b21431fba4496ae52d31efeda0b089a0dd5b28f4fa1bc04"


def test_regex_digest():
    assert digests.regex_digest() == \
        "a0cf80d0743f92795285aad6a9d19c19c77274babb5fa5dc2437c7e84db92e7a"


def test_measure_digest():
    assert digests.measure_digest() == \
        "4808a83ef81b3deefdc20f0f95d9e314101cb4ff9468804d9b056e39a587c182"
