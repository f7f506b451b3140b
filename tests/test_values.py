"""Value semantics of the library's immutable records: equality, hash,
repr, refused assignment and pickling, as frozen data classes had them;
and of HashedWeight, which must pass for the plain tuple of Fractions."""

import copy
import pickle
from fractions import Fraction

import pytest

from hlgal.apartment import EdgeType
from hlgal.gallery import Gallery
from hlgal.hlengine import character_LS
from hlgal.rootdata import HashedWeight, RootSystemSpec
from hlgal.tableaux import Tableau
from systems import root_system

A1_WHOLE = (EdgeType(1, "whole"),)

# (value, an equal copy, a value differing in one field, its exact repr)
VALUES = [
    (RootSystemSpec("B", 3), RootSystemSpec(family="B", rank=3), RootSystemSpec("C", 3),
     "RootSystemSpec(family='B', rank=3)"),
    (EdgeType(2, "first"), EdgeType(index=2, segment="first"), EdgeType(2, "second"),
     "EdgeType(index=2, segment='first')"),
    (Gallery(((0, 0), (1, 0)), A1_WHOLE), Gallery(vertices=((0, 0), (1, 0)), gtype=A1_WHOLE),
     Gallery(((0, 0), (0, 1)), A1_WHOLE),
     "Gallery(vertices=((0, 0), (1, 0)), gtype=(EdgeType(index=1, segment='whole'),))"),
    (Tableau("C", 2, ((1,), (1, 4))), Tableau(family="C", rank=2, columns=((1,), (1, 4))),
     Tableau("C", 2, ((2,), (1, 4))), "Tableau(family='C', rank=2, columns=((1,), (1, 4)))"),
]
IDS = [type(v).__name__ for v, _, _, _ in VALUES]


@pytest.mark.parametrize("value,twin,other,text", VALUES, ids=IDS)
def test_equality_hash_and_repr(value, twin, other, text):
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert value != other and not value == other
    assert len({value, twin, other}) == 2
    assert repr(value) == text
    # equal fields in another class, or a bare tuple of them, are not equal
    assert value != tuple(getattr(value, f) for f in value._fields)


@pytest.mark.parametrize("value,twin,other,text", VALUES, ids=IDS)
def test_assignment_is_refused(value, twin, other, text):
    for name in value._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, value._fields[0])
    assert value == twin


@pytest.mark.parametrize("value,twin,other,text", VALUES, ids=IDS)
def test_copy_and_pickle_keep_the_value(value, twin, other, text):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value and hash(clone) == hash(value)


def test_gallery_checks_its_length_and_keeps_its_directions():
    with pytest.raises(ValueError, match="vertex/type length mismatch"):
        Gallery(((0, 0),), A1_WHOLE)
    with pytest.raises(ValueError, match="vertex/type length mismatch"):
        Gallery(((0, 0), (1, 0), (2, 0)), A1_WHOLE)
    g = Gallery(((0, 0), (1, 0), (1, 2)), A1_WHOLE * 2)
    assert g.directions() == ((1, 0), (0, 2))
    assert g.directions() is g.directions()
    # the cache is not a field: a gallery with its directions equals one without
    assert g == Gallery(g.vertices, g.gtype) and "_directions" not in repr(g)


def test_edge_type_checks_its_segment():
    with pytest.raises(ValueError, match="bad segment"):
        EdgeType(1, "middle")


@pytest.mark.parametrize("index,segment", [(1, "whole"), (2, "first"), (2, "second"), (4, "whole")])
def test_edge_type_hash_is_its_fields_computed_once(index, segment):
    # the hash is computed at construction and kept outside the fields:
    # it is the fields' tuple hash, a pickle round trip rebuilds it, and
    # the cache shows in neither the fields nor the repr
    t = EdgeType(index, segment)
    assert hash(t) == hash((index, segment)) == t._hash
    # a pickle carries the fields alone, so an interpreter with another
    # string hash seed computes its own hash on loading
    assert t.__reduce__() == (EdgeType, (index, segment))
    clone = pickle.loads(pickle.dumps(t))
    assert clone == t and hash(clone) == hash((index, segment))
    assert t._fields == ("index", "segment") and "_hash" not in repr(t)
    with pytest.raises(AttributeError):
        t._hash = 0


# plain tuples of Fractions, including fifths and a negative zero-sum point
PLAIN_WEIGHTS = [
    (),
    (Fraction(0),),
    (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)),
    (Fraction(-1, 5),) * 4 + (Fraction(4, 5),),
    (Fraction(4, 5), Fraction(-1, 5), Fraction(-1, 5), Fraction(-1, 5), Fraction(-1, 5)),
]


@pytest.mark.parametrize("plain", PLAIN_WEIGHTS, ids=str)
def test_hashed_weight_passes_for_the_plain_tuple(plain):
    weight = HashedWeight(plain)
    assert weight == plain and plain == weight and not weight != plain and not plain != weight
    assert hash(weight) == hash(plain)
    assert repr(weight) == repr(plain) and str(weight) == str(plain)
    # found in either direction, whichever form is stored
    assert {plain: 1}[weight] == 1 and {weight: 1}[plain] == 1
    assert weight in {plain} and plain in {weight}
    for clone in (copy.copy(weight), copy.deepcopy(weight), pickle.loads(pickle.dumps(weight))):
        assert type(clone) is HashedWeight and clone == plain and hash(clone) == hash(plain)


def test_hashed_weights_sort_as_plain_tuples():
    weights = [HashedWeight(w) for w in PLAIN_WEIGHTS]
    assert sorted(weights) == sorted(PLAIN_WEIGHTS)
    assert sorted(weights, reverse=True) == sorted(PLAIN_WEIGHTS, reverse=True)
    mixed = weights[::2] + PLAIN_WEIGHTS[1::2]
    assert sorted(mixed) == sorted(PLAIN_WEIGHTS)


@pytest.mark.parametrize("name,coeffs", [("A4", (2, 0, 0, 1)), ("B3", (1, 1, 1))])
def test_character_is_read_by_plain_tuple_keys(name, coeffs):
    rs = root_system(name[0], int(name[1]))
    char = character_LS(rs, rs.weight(coeffs))
    plain = {tuple(Fraction(x) for x in weight): m for weight, m in char.items()}
    assert all(type(weight) is HashedWeight for weight in char)
    assert all(char[weight] == m for weight, m in plain.items())
    assert char == plain and plain == char
