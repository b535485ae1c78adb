"""linchar's records are named tuples: equal by value, hashed as the tuple of
their fields, picklable, immutable and printed as `Name(field=value, ...)`."""

import pickle

import pytest

from linchar import cli
from linchar.acceptance import CheckResult
from linchar.ehrhart import ehrhart_qp, ehrhart_table
from linchar.linial import admissible_residues, char_poly, limit_poly
from linchar.ratpoly import RatPoly
from linchar.rootdata import RootSystemId, lookup
from linchar.verify import check_on_line_exact, find_roots

G2 = RootSystemId("G", 2)

RECORDS = {
    "RootSystemId": lambda: RootSystemId("E", 8),
    "RootSystemData": lambda: lookup(G2),
    "QuasiPoly": lambda: ehrhart_qp(G2),
    "AdmissibleReport": lambda: admissible_residues(RootSystemId("E", 6)),
    "ComplexRootSet": lambda: find_roots(limit_poly(G2)),
    "LineCheckReport": lambda: check_on_line_exact(char_poly(G2, 1), 6),
    "CheckResult": lambda: CheckResult(3, "name", False, "detail", ["one", "two"]),
    "Arg": lambda: cli.Arg(("--out",), "out", str, metavar="FILE", help="write output to FILE"),
    "Command": lambda: cli.ROOT.subcommands["table"],
    "IntegerTable": lambda: ehrhart_table(G2),
    "RatPoly": lambda: limit_poly(G2),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    fields = tuple(getattr(record, field) for field in record._fields)

    rebuilt = type(record)(*fields)
    assert rebuilt == record and rebuilt is not record
    replaced = record._replace(**record._asdict())
    assert type(replaced) is type(record) and replaced == record
    assert record == fields and len(record) == len(fields)

    # the hash frozen dataclasses gave: that of the tuple of fields, or none
    # when a field is unhashable (a dict of details, a list of lines)
    try:
        want = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want

    assert pickle.loads(pickle.dumps(record)) == record

    shown = ", ".join(f"{field}={value!r}" for field, value in zip(record._fields, fields))
    assert repr(record) == f"{name}({shown})"

    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], fields[0])
    with pytest.raises(AttributeError):
        record.extra = 1


def test_root_system_ids_sort_by_family_then_rank():
    ids = [RootSystemId.parse(s) for s in ("E8", "A10", "G2", "B3", "A3", "E6")]
    assert [str(i) for i in sorted(ids)] == ["A3", "A10", "B3", "E6", "E8", "G2"]


def test_reprs_are_those_of_the_dataclasses():
    # as the frozen dataclasses printed them, defaults included
    assert repr(RootSystemId("E", 8)) == "RootSystemId(family='E', rank=8)"
    assert repr(lookup(G2)) == (
        "RootSystemData(rank=2, exponents=(1, 5), marks=(1, 2, 3), coxeter_number=6, "
        "index_of_connection=1, weyl_order=12, period=6, rad_period=6)"
    )
    assert repr(CheckResult(1, "x", True)) == (
        "CheckResult(number=1, name='x', passed=True, detail='', reported=[])"
    )


def test_replace_checks_what_the_constructor_checks():
    with pytest.raises(ValueError, match="invalid rank 9 for family E"):
        RootSystemId("E", 8)._replace(rank=9)
    with pytest.raises(ValueError, match="need at least one constituent"):
        ehrhart_qp(G2)._replace(constituents=())


def test_ratpoly_replace_is_canonical_and_a_product_is_refused():
    p = RatPoly.over((1, 2))
    assert p._replace(nums=(2, 4), den=2) == p
    with pytest.raises(ZeroDivisionError):
        p._replace(den=0)
    # a tuple times an int repeats it; a polynomial has no such product
    with pytest.raises(TypeError):
        p * 2
