"""The finder builds each level's context instances once per assignment
of the tables they read.

A level whose context reads tables set at earlier levels, none of them
the one just above, is visited again and again under one assignment of
those tables; the search keeps the instances it built on the first of
those visits.  How often one search builds each level's instances is
counted here by wrapping them in a copy of the theory's program, as in
tests/test_transport_work.py; each count is the number of distinct
assignments of the tables the level reads.
"""

import pytest

from gatc.theory import stdlib
from test_models import level_builds

LIB = stdlib()


@pytest.mark.parametrize(
    "name, bound, builds",
    # built on every visit before: El2@2's e2 183 times, El3@2's e3 33,673,
    # El1@3's e1 85, Cat@2's id 85 and comp 85
    [
        ("El2", 2, {"A0": 1, "A1": 3, "A2": 13, "e2": 13}),
        ("El3", 2, {"A0": 1, "A1": 3, "A2": 13, "A3": 183, "e3": 183}),
        ("El1", 3, {"A0": 1, "A1": 4, "e1": 4}),
        ("Cat", 2, {"Ob": 1, "Hom": 3, "id": 3, "comp": 39}),
    ],
)
def test_each_level_builds_its_instances_once_per_assignment_it_reads(name, bound, builds):
    assert level_builds(LIB[name], bound) == builds


@pytest.mark.parametrize(
    "name, reads",
    # a level just after a table its context reads sees a new table on
    # every visit, so it keeps nothing and pays no check
    [
        ("Mon", {"mul": ("Mon",)}),
        ("Cat", {"id": ("Ob",), "comp": ("Ob", "Hom")}),
        ("El2", {"e2": ("A0", "A1")}),
        ("Ty3", {}),
    ],
)
def test_only_levels_that_can_meet_their_reads_again_keep_instances(name, reads):
    assert {c.decl.name: c.reads for c, _, _ in LIB[name]._program if c.reads} == reads
