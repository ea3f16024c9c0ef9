import subprocess
import sys
from pathlib import Path

import pytest

import steincalc
from steincalc.exactmat import IntMatrix
from steincalc.knots import FamilyReport, FiberednessCheck, LaurentPoly, SeifertMatrixK
from steincalc.mcg import Curve, SurfaceSpec, TwistWord
from steincalc.plumbing import Move
from steincalc.reports import Assumption, Check, Report
from steincalc.seifert import ContactFlags, OpenBookDesc, SeifertData
from steincalc.smooth4 import PI1_TRIVIAL, DistinctnessReport, FillingRecord, ManifoldRecord, Pi1Tag

ONE = LaurentPoly.one()
MANIFOLD = dict(
    name="M", euler_char=36, signature=-24, fiber_genus=2, sections=((-1, 3),), pi1=Pi1Tag(PI1_TRIVIAL), sw_distinguisher=ONE
)

# (record class, its fields, one changed field, fields that are not part of the value)
RECORDS = [
    (SurfaceSpec, dict(genus=2, boundary_count=1), dict(boundary_count=0), {}),
    (Curve, dict(name="c1", homology_class=(1, 0)), dict(homology_class=(0, 1)), {}),
    (
        TwistWord,
        dict(surface=SurfaceSpec(1), letters=(("c1", 1),), curves={"c1": Curve("c1", (1, 0))}),
        dict(letters=(("c1", 2),)),
        dict(curves=None),
    ),
    (SeifertMatrixK, dict(name="trefoil", matrix=IntMatrix([[-1, 1], [0, -1]])), dict(name="knot"), {}),
    (FiberednessCheck, dict(passes=True, monic=True, span_matches=True, reasons=()), dict(passes=False), {}),
    (
        FamilyReport,
        dict(deltas=(ONE,), genus_failures=(), fibered_failures=()),
        dict(deltas=(ONE, ONE)),
        {},
    ),
    (SeifertData, dict(base_genus=1, e0=-2, legs=((2, 1),)), dict(e0=-1), {}),
    (ContactFlags, dict(milnor_fillable=True, unique_transverse_invariant_class=True), dict(milnor_fillable=False), {}),
    (OpenBookDesc, dict(page_genus=2, powers=(2, 3)), dict(powers=(3, 2)), {}),
    (Move, dict(op="blow_up_at_vertex", vertex=1), dict(sign=1), {}),
    (Pi1Tag, dict(kind=PI1_TRIVIAL), dict(param=3), {}),
    (ManifoldRecord, MANIFOLD, dict(signature=-16), {}),
    (FillingRecord, dict(MANIFOLD, boundary=SeifertData(2, -1, ())), dict(euler_char=35), {}),  # an inherited field
    (DistinctnessReport, dict(pairs_total=1, collisions=()), dict(collisions=(("a", "b"),)), {}),
    (Check, dict(name="n", expected="1", got="1", passed=True), dict(got="2"), {}),
    (Assumption, dict(text="t", citation="c"), dict(citation="d"), {}),
    (Report, dict(title="t", inputs={}), dict(inputs={"h": 1}), {}),
]


@pytest.mark.parametrize("cls, fields, changed, ignored", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_value_semantics(cls, fields, changed, ignored):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert cls(**{**fields, **changed}) != a
    assert cls(**{**fields, **ignored}) == a
    if cls is Report:  # checks are appended to a report, so it has no stable hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(cls(**{**fields, **ignored}))
    assert repr(a).startswith(f"{cls.__name__}({next(iter(fields))}=")
    with pytest.raises(AttributeError):
        a.stray = 1


def test_filling_differs_from_its_manifold():
    assert FillingRecord(**MANIFOLD) != ManifoldRecord(**MANIFOLD)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import steincalc.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(steincalc.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=60, check=True)
    added = set(out.stdout.split())
    assert "steincalc.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
