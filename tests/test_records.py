"""Record semantics: validation on construction, read-only fields, equality."""

import copy
import pickle
from fractions import Fraction

import pytest

from tightmaps import kahler
from tightmaps.branching import restrict_rep
from tightmaps.classify import _rank2_weight, _subalgebra, classify, embedding_table
from tightmaps.rootsys import RootSystemData, WeightVector, build_root_system, weight
from tightmaps.su11 import ExplicitRep, SignaturePair, StructureChoice, sym_power_rep

C2 = build_root_system("C2")
SU21 = kahler.su(2, 1)

# (construct, message): each of these records checks its fields in __new__
INVALID = [
    (lambda: SignaturePair(-1, 0), "nonnegative"),
    (lambda: SignaturePair(p=0, q=-1), "nonnegative"),
    (lambda: ExplicitRep(2, SignaturePair(1, 0), (1,), (-1,), (1,)), "sum to the dimension"),
    (lambda: ExplicitRep(2, SignaturePair(1, 1), (1, -1), (), (1,)), "length mismatch"),
    (lambda: ExplicitRep(2, SignaturePair(1, 1), (1,), (-1,), (2,)), "degrees"),
    (lambda: ExplicitRep(dim=2, signature=SignaturePair(1, 1), z_pos=(1,), z_neg=(1,),
                         degrees=(1,)), "trace free"),
    (lambda: StructureChoice(()), "signs"),
    (lambda: StructureChoice((1, 2)), "signs"),
    (lambda: StructureChoice((1,)), "two entries"),
    (lambda: StructureChoice((1, 1, -1)), "two entries"),
    (lambda: WeightVector((Fraction(1),), C2), "expected 2 coordinates"),
    (lambda: kahler.KahlerClass((SU21,), (), 1), "one coefficient"),
    (lambda: kahler.KahlerClass((SU21,), (1,), -2), "denominator -2 is not positive"),
    (lambda: kahler.HomClassMap((SU21,), (SU21,), (), 1), "shape"),
    (lambda: kahler.HomClassMap((SU21,), (SU21,), ((4,),), 2), "norm 2 > rank 1"),
    (lambda: kahler.HomClassMap((SU21,), (SU21,), ((3,),), 2), "norm 3/2 > rank 1"),
    (lambda: kahler.HomClassMap((SU21,), (SU21,), ((0,),), 0), "denominator 0 is not positive"),
]


@pytest.mark.parametrize("construct,message", INVALID)
def test_validated_records_raise_on_direct_construction(construct, message):
    with pytest.raises(ValueError, match=message):
        construct()


def _records():
    verdict = classify("sp4", (0, 2))
    sub = _subalgebra("sp4", "a1+a2")
    return [
        SignaturePair(1, 0),
        sym_power_rep(2),
        StructureChoice((1, -1)),
        C2,
        weight(C2, (1, 0)),
        sub,
        restrict_rep(_rank2_weight("sp4", (1, 0)), sub),
        verdict.witness,
        verdict,
        embedding_table()[0],  # su(2,1)
        SU21,
        kahler.distinguished_class((SU21,)),
        kahler.HomClassMap((SU21,), (SU21,), ((1,),), 1),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_fields_are_read_only(record):
    fields = getattr(record, "_fields", None) or RootSystemData.__slots__
    before = getattr(record, fields[0])
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    assert getattr(record, fields[0]) is before
    with pytest.raises(AttributeError):
        record.not_a_field = None


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_survive_pickling_and_copying(record):
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


def test_root_systems_compare_by_identity():
    assert build_root_system("C2") is C2
    assert pickle.loads(pickle.dumps(C2)) is C2 and copy.copy(C2) is C2
    twin = RootSystemData(**{name: getattr(C2, name) for name in RootSystemData.__slots__})
    assert twin.root_table is C2.root_table
    assert twin != C2 and twin == twin


def test_weight_vectors_are_unequal_across_systems():
    twin = RootSystemData(**{name: getattr(C2, name) for name in RootSystemData.__slots__})
    mine, other = weight(C2, (1, 0)), weight(twin, (1, 0))
    assert mine == weight(C2, (1, 0)) and hash(mine) == hash(weight(C2, (1, 0)))
    assert mine != other and mine.coords == other.coords
    assert len({mine, other, weight(C2, (1, 0))}) == 2
