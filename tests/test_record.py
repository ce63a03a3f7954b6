"""The public value types are frozen records: equality, hashing, repr,
construction, checks and `match` behave as for frozen dataclasses, and
importing the CLI loads neither `dataclasses` nor `inspect`."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from cyclemotive import (
    AffineSpace,
    ChowIndex,
    Cone,
    CongruenceReport,
    DisjointUnion,
    DomainError,
    Fan,
    Grassmannian,
    Measure,
    Point,
    PrimePower,
    ProjSpace,
    projective_fan,
)
from cyclemotive.toric import OrbitClosure
from conftest import SRC


def test_equality_is_type_sensitive():
    assert ProjSpace(2) == ProjSpace(2)
    assert ProjSpace(2) != ProjSpace(3)
    assert ProjSpace(2) != AffineSpace(2)
    assert Point() == Point()
    assert ProjSpace(2).__eq__((2,)) is NotImplemented
    assert ProjSpace(2) != (2,)
    assert OrbitClosure((0, 1), 2) != ((0, 1), 2)


def test_hash_is_the_hash_of_the_field_tuple():
    assert hash(ProjSpace(2)) == hash((2,))
    assert hash(Point()) == hash(())
    assert hash(OrbitClosure((0, 1), 2)) == hash(((0, 1), 2))
    assert len({ProjSpace(2), ProjSpace(2), AffineSpace(2)}) == 2
    table = {Grassmannian(2, 4): "G(2,4)"}
    assert table[Grassmannian(2, 4)] == "G(2,4)"


def test_records_are_frozen():
    space = ProjSpace(2)
    with pytest.raises(AttributeError):
        space.n = 3
    with pytest.raises(AttributeError):
        space.other = 1
    with pytest.raises(AttributeError):
        del space.n
    assert space.n == 2


def test_repr_has_the_dataclass_form():
    assert repr(ProjSpace(2)) == "ProjSpace(n=2)"
    assert repr(Point()) == "Point()"
    assert repr(Measure("euler")) == "Measure(tag='euler', q=None, m=1)"
    assert repr(DisjointUnion(Point(), ProjSpace(1))) == (
        "DisjointUnion(a=Point(), b=ProjSpace(n=1))"
    )


def test_positional_match_patterns():
    match Grassmannian(2, 5):
        case Grassmannian(k, n):
            assert (k, n) == (2, 5)
        case _:
            pytest.fail("no match")
    match Cone(ProjSpace(1)):
        case Cone(ProjSpace(n)):
            assert n == 1
        case _:
            pytest.fail("no match")
    assert Fan.__match_args__ == ("dim", "rays", "cones")


def test_keyword_and_default_construction():
    assert Measure("euler").m == 1
    assert Measure("euler").q is None
    assert Measure(tag="count", q=4) == Measure("count", 4, 1)
    assert ChowIndex(p=1, d=2, n=3) == ChowIndex(1, 2, 3)
    report = CongruenceReport(q=5, expected_mod_q=1, expected_mod_q_minus_1=2)
    assert (report.actual, report.note) == (None, "")
    assert not report.testable
    assert report == CongruenceReport(5, 1, 2, None, "")
    assert PrimePower.from_int(9) == PrimePower(9, 3, 2)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                            # missing field
    ((1, 2, 3, 4), {}),                  # too many positional
    ((1, 2, 3), {"n": 3}),               # repeated field
    ((1, 2), {"n": 3, "degree": 2}),     # unknown field
])
def test_bad_construction_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        ChowIndex(*args, **kwargs)


def test_post_init_checks_run():
    with pytest.raises(DomainError):
        AffineSpace(-1)
    with pytest.raises(DomainError):
        AffineSpace(n=-1)
    with pytest.raises(DomainError):
        ChowIndex(p=2, d=1, n=1)
    with pytest.raises(DomainError):
        Measure("count")


def test_fan_equality_ignores_its_kept_check():
    fresh, checked = projective_fan(3), projective_fan(3)
    before = hash(checked)
    assert checked.ranks and checked.census
    assert fresh == checked and checked == fresh
    assert hash(checked) == before == hash(fresh)
    assert hash(checked) == hash((checked.dim, checked.rays, checked.cones))
    assert repr(checked) == repr(fresh)


def test_records_pickle_and_copy():
    checked = projective_fan(2)
    checked.census
    for value in (Measure("count", q=4), checked, Cone(ProjSpace(1))):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value


def test_cli_import_loads_no_dataclasses_or_inspect():
    probe = (
        "import sys, cyclemotive.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
