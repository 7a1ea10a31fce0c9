"""The package's record classes: immutability, equality and a cheap import.

Every record is a plain class with ``__slots__``.  The frozen ones raise
AttributeError on assignment and deletion; the runner's report rows stay
mutable.  Value equality is kept where the package compares or hashes
records (certificates, DSL value nodes, intervals); every other record,
lattices included, compares by identity.  Flags are plain strings.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from confn import dsl, engine, runner
from confn.certificates import UPPER, Certificate
from confn.cones import Cone
from confn.constructions import blowup_point, cyclic_cover, product
from confn.descriptors import (
    Assertion,
    DescriptorError,
    ExactEqualsNef,
    Provenance,
    UnderApprox,
    UnknownGG,
    VarietyDescriptor,
    projective_space,
)
from confn.dsl import BoolValue, DivisorValue, IntValue, ListValue, NameValue, Span
from confn.kunneth import h0_sign
from confn.lattice import IntersectionForm, LatticeError, PicardLattice
from confn.pipelines import PipelineResult

SRC = Path(__file__).resolve().parent.parent / "src"


def _records() -> dict:
    """One instance of each record class, by class name."""
    lat = PicardLattice(("H",))
    desc = projective_space(1)
    p4 = projective_space(4)
    threshold = desc.nef.adjoint_freeness_threshold(desc.canonical)
    span = Span(1, 1)
    program = dsl.parse("let X = projective_space(n = 1)\ncompute X\nassert_confn X = 2\n")
    let, compute, check = program.statements
    report = runner.evaluate(program)
    (row,) = report.rows
    records = [
        lat,
        lat.make([1]),
        IntersectionForm.rank_one(lat, 1, 1),
        desc.nef,
        threshold,
        Certificate(UPPER, "rule", 1, "citation"),
        ExactEqualsNef("justified"),
        UnderApprox(()),
        UnknownGG(),
        Assertion("name", "citation"),
        Provenance("custom"),
        product(desc, desc).provenance,
        cyclic_cover(p4, p4.lattice.make([1]), 2).provenance,
        blowup_point(product(desc, desc)).provenance,
        desc,
        span,
        IntValue(1, span),
        BoolValue(True, span),
        NameValue("H", span),
        DivisorValue(((1, "H"),), span),
        ListValue((), span),
        let.arguments[0],
        let,
        compute,
        check,
        program,
        row.interval,
        engine._RULES["exact-threshold"],
        h0_sign(desc, desc.canonical),
        PipelineResult(desc),
        row.assertions[0],
        row,
        report,
        runner._DivisorOn("parent"),
    ]
    return {type(record).__name__: record for record in records}


RECORDS = _records()
MUTABLE = {"AssertionResult", "VarietyRow", "Report"}


def test_every_record_class_is_listed_once():
    assert len(RECORDS) == 34


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_slotted(name):
    record = RECORDS[name]
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("name", sorted(set(RECORDS) - MUTABLE))
def test_frozen_records_refuse_assignment_and_deletion(name):
    record = RECORDS[name]
    fields = [
        field for cls in type(record).__mro__ for field in getattr(cls, "__slots__", ())
    ] or ["anything"]
    for field in fields:
        before = getattr(record, field, None)
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field, None) is before


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_report_rows_stay_mutable(name):
    record = RECORDS[name]
    field = type(record).__slots__[0]
    value = getattr(record, field)
    setattr(record, field, "changed")
    assert getattr(record, field) == "changed"
    setattr(record, field, value)


@pytest.mark.parametrize(
    "make, value, other",
    [
        (IntValue, 3, 4),
        (BoolValue, True, False),
        (NameValue, "H", "E"),
        (DivisorValue, ((3, "H"), (-1, "E")), ((3, "H"),)),
        (ListValue, (IntValue(1, Span(1, 2)),), (IntValue(2, Span(1, 2)),)),
    ],
)
def test_value_nodes_compare_by_value_not_span(make, value, other):
    a, b = make(value, Span(1, 5)), make(value, Span(7, 2))
    assert repr(a) == f"{make.__name__}(value={value!r}, span=Span(line=1, column=5))"
    assert a == b and hash(a) == hash(b)
    assert make(other, Span(1, 5)) != a
    assert len({a, b}) == 1


def test_value_nodes_of_different_types_differ():
    span = Span(1, 1)
    assert IntValue(1, span) != BoolValue(True, span)
    assert IntValue(0, span) != BoolValue(False, span)
    assert len({IntValue(1, span), BoolValue(True, span)}) == 2


def test_certificates_compare_by_value():
    def cert(witness):
        return Certificate(UPPER, "rule", 1, "citation", ["premise"], witness)

    assert cert({"m": 1}) == cert({"m": 1})
    assert hash(cert({"m": [1, 2]})) == hash(cert({"m": (1, 2)}))
    # True and 1 are equal in Python but not in the report's JSON
    assert cert({"m": True}) != cert({"m": 1})
    assert cert({"m": [True]}) != cert({"m": [1]})


def test_picard_lattices_with_one_basis_are_distinct():
    a, b = PicardLattice(("H",)), PicardLattice(("H",))
    assert a != b and a == a
    assert len({a, b}) == 2
    h = a.make([1])
    with pytest.raises(LatticeError, match="different lattice"):
        IntersectionForm.rank_one(b, 2, 1).evaluate(h, h)
    with pytest.raises(LatticeError, match="off the cone's lattice"):
        Cone(b, ((1,),)).contains(h)
    with pytest.raises(DescriptorError, match="canonical class lives on a different"):
        VarietyDescriptor._make(
            dimension=2,
            lattice=b,
            form=IntersectionForm.rank_one(b, 2, 1),
            canonical=h,
            nef=Cone(b, ((1,),)),
            gg=UnknownGG(),
            flags=frozenset(),
            provenance=Provenance("custom"),
        )


def test_flags_and_intervals_compare_by_value():
    # flags are names, so descriptors built apart share them by value
    assert projective_space(2).flags == projective_space(3).flags
    assert projective_space(2).flags == {"toric", "irregularity_zero"}
    assert engine.FujitaInterval(1, 2) == engine.FujitaInterval(1, 2)
    assert engine.FujitaInterval(1, 2) != engine.FujitaInterval(1, 3)


def test_cone_admission_runs_in_its_own_init():
    # the benchmark's tracer times cone admission by wrapping Cone.__init__
    assert "__init__" in vars(Cone)


def test_cli_import_leaves_out_dataclasses_inspect_and_datetime():
    # the corpus admits every cone without the linear program, the only
    # user of rational arithmetic, so neither the import nor a corpus
    # pass loads fractions or decimal
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import confn.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "confn.cli.corpus()\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    imported, after_corpus = (set(line.split()) for line in done.stdout.splitlines())
    assert "confn.cli" in imported
    assert not imported & {"dataclasses", "inspect", "datetime"}
    assert not after_corpus & {"fractions", "decimal"}
