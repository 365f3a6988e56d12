"""The value classes: immutable, hashable records compared by their fields."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qr2m
from qr2m.cli import SweepConfig
from qr2m.errors import BadModulus
from qr2m.lincode import LinearCode, WeightReport, canonical_form
from qr2m.modring import FamilyParams, Modulus, QuadPartition
from qr2m.padic import PadicExpansion
from qr2m.polyring import FactorSet, ZPoly, binary_qr_factors
from qr2m.qr import (
    IdempotentCoeffs,
    IdentityCheck,
    IdentityReport,
    QrFamily,
    build_family,
    product_identities_report,
)


def _fields_of(record):
    return tuple(getattr(record, f) for f in record._fields)


# each record class with the positional arguments of one valid instance
RECORDS = [
    (Modulus, (5,)),
    (QuadPartition, (7, (1, 2, 4), (3, 5, 6))),
    (FamilyParams, (7, 4, 1, 1)),
    (ZPoly, (3, 2, (1, 2, 3))),
    (FactorSet, _fields_of(binary_qr_factors(7))),
    (IdentityCheck, ("e1_e1", True, (0, 1, 2), (0, 1, 2))),
    (IdentityReport, _fields_of(product_identities_report(17, 5))),
    (IdempotentCoeffs, (7, 4, 5, 6, 3)),
    (QrFamily, _fields_of(build_family(7, 4))),
    (PadicExpansion, (4, (1, 1, 1, 0))),
    (LinearCode, (3, 2, canonical_form([[1, 2, 0], [0, 2, 2]], 3, 2).rows)),
    (WeightReport, (3, 7, True, True)),
    (SweepConfig, ((7, 17), (4, 5), 16, "-", "json")),
]


@pytest.mark.parametrize("cls, args", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_immutable_values(cls, args):
    assert len(cls._fields) == len(args)
    rec = cls(*args)
    assert _fields_of(rec) == args
    # positional and keyword construction agree; equal fields, equal hashes
    twin = cls(**dict(zip(cls._fields, args)))
    assert twin is not rec
    assert twin == rec and not twin != rec
    assert hash(twin) == hash(rec) == hash(args)
    assert len({rec, twin}) == 1
    # a different class is never equal, not even a subclass with the same fields
    sub = type("Sub", (cls,), {})(*args)
    assert sub != rec and rec != sub
    assert rec != args
    assert rec.__eq__(object()) is NotImplemented
    # no field can be assigned or deleted, and no attribute added
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == twin
    fields = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, args))
    assert repr(rec) == f"{cls.__name__}({fields})"


def test_a_field_change_breaks_equality():
    assert Modulus(5) != Modulus(6)
    assert ZPoly(3, 2, (1, 2, 3)) != ZPoly(3, 3, (1, 2, 3))
    assert SweepConfig((7,), (4,)) == SweepConfig((7,), (4,), 1 << 16, "-", "json")
    assert SweepConfig((7,), (4,)) != SweepConfig((7,), (4,), budget=16)
    assert repr(Modulus(5)) == "Modulus(m=5)"


def test_cached_properties_leave_equality_alone():
    code = canonical_form([[1, 2, 0], [0, 2, 2]], 3, 2)
    fresh = LinearCode(code.n, code.m, code.rows)
    assert code.gen and code.log2_size == 3  # filled on code, not on fresh
    assert code == fresh and hash(code) == hash(fresh)
    assert repr(code) == f"LinearCode(n=3, m=2, rows={code.rows!r})"


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Modulus(0), BadModulus),
        (lambda: Modulus(63), BadModulus),
        (lambda: Modulus("4"), BadModulus),
        (lambda: ZPoly(3, 0, (0, 0, 0)), BadModulus),
        (lambda: ZPoly(0, 2, ()), ValueError),
        (lambda: ZPoly(3, 2, (1, 2)), ValueError),
        (lambda: PadicExpansion(0, ()), BadModulus),
        (lambda: PadicExpansion(4, (1, 1, 1)), ValueError),
        (lambda: PadicExpansion(4, (1, 2, 1, 0)), ValueError),
        (lambda: LinearCode(3, 63, ()), BadModulus),
        (lambda: LinearCode(3, 2, (4,)), ValueError),
        (lambda: IdempotentCoeffs(7, 0, 0, 1, 0), BadModulus),
        (lambda: IdempotentCoeffs(7, 4, 16, 6, 3), ValueError),
        (lambda: IdempotentCoeffs(7, 4, 5, 3, 3), ValueError),
        (lambda: IdempotentCoeffs(7, 4, 1, 2, 3), ValueError),
    ],
)
def test_validating_constructors_raise(build, error):
    with pytest.raises(error):
        build()


def test_cli_import_loads_no_dataclass_machinery():
    # a fresh interpreter, because pytest itself imports these modules
    src = Path(qr2m.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import sys, qr2m.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
