"""The package's value types are NamedTuples. These tests pin what callers saw
of them as frozen dataclasses: the repr text, immutability, hashing by value,
the verdicts' truthiness and the constructors' validation errors."""

from fractions import Fraction

import pytest

from polytnn import (
    ExactMatrix,
    FVector,
    GVector,
    HVector,
    LatticeGraph,
    MinorWitness,
    PathMatrix,
    TnnReport,
    TransferMatrix,
    is_m_sequence,
    is_polytopal,
    lattice_graph,
    macaulay_expand,
    nonintersecting_families,
    path_matrix,
    transfer_matrix,
)

RECORDS = {
    "ExactMatrix(entries=((1, Fraction(1, 2)), (3, 4)))": lambda: ExactMatrix(((1, Fraction(1, 2)), (3, 4))),
    "TnnReport(is_tnn=False, minors_checked=5, min_minor=-2, "
    "witness=MinorWitness(rows=(0, 1), cols=(0, 1), value=-2))": lambda: TnnReport(
        False, 5, -2, MinorWitness((0, 1), (0, 1), -2)
    ),
    "PathMatrix(n=2, entries=((1, 2),))": lambda: path_matrix(2),
    "TransferMatrix(d=2, entries=((3, 3), (1, 1)))": lambda: transfer_matrix(2),
    "FVector(d=3, counts=(4, 6, 4))": lambda: FVector(3, [4, 6, 4]),
    "HVector(d=3, values=(1, 1, 1, 1))": lambda: HVector(d=3, values=[1, 1, 1, 1]),
    "GVector(d=3, values=(1, 0))": lambda: GVector(3, (1, 0)),
    "FeasibilityVerdict(passed=False, d=3, n=3, g=GVector(d=3, values=(1, -1)), "
    "failed_condition='nonneg', witness=None)": lambda: is_polytopal(FVector(3, (3, 3, 2))),
    "MacaulayExpansion(k=2, terms=((3, 2), (2, 1)))": lambda: macaulay_expand(5, 2),
    "MSequenceVerdict(ok=False, k=2, boundary_value=3, bound=2)": lambda: is_m_sequence([1, 2, 5]),
    "LatticeGraph(n=8)": lambda: LatticeGraph(8),
    "PathFamily(paths=(((1, 0), (1, 1)),), weight=Fraction(4, 1))": lambda: nonintersecting_families(
        lattice_graph(4), [0], [1]
    )[0],
}


@pytest.mark.parametrize("text", RECORDS)
def test_repr_is_the_dataclass_text(text):
    assert repr(RECORDS[text]()) == text


@pytest.mark.parametrize("text", RECORDS)
def test_fields_cannot_be_assigned(text):
    record = RECORDS[text]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert repr(record) == text


@pytest.mark.parametrize("text", RECORDS)
def test_equal_values_hash_equal(text):
    a, b = RECORDS[text](), RECORDS[text]()
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_cached_graph_parts_leave_equality_and_hash_alone():
    g = lattice_graph(6)
    assert g.vertices and g.arcs  # built and cached on the instance
    assert g == LatticeGraph(6)
    assert hash(g) == hash(LatticeGraph(6))
    assert g != LatticeGraph(7)


def test_verdicts_and_reports_are_truthy_iff_they_pass():
    assert TnnReport(True, 1, 1)
    assert not TnnReport(False, 5, -2, MinorWitness((0, 1), (0, 1), -2))
    assert is_m_sequence([1, 2, 3])
    assert not is_m_sequence([1, 2, 5])
    assert not is_m_sequence([2])
    assert is_polytopal(FVector(3, (4, 6, 4)))
    assert not is_polytopal(FVector(3, (3, 3, 2)))


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: ExactMatrix(()), "matrix must have at least one row"),
        (lambda: ExactMatrix(((),)), "matrix rows must be nonempty"),
        (lambda: ExactMatrix(((1, 2), (3,))), "matrix rows must all have the same length"),
        (lambda: ExactMatrix(((1.5,),)), "matrix entries must be int or Fraction, got 1.5"),
        (lambda: TransferMatrix(0, ()), "TransferMatrix: d must be >= 1, got 0"),
        (lambda: TransferMatrix(2, ((3, 3),)), "TransferMatrix: expected 2 rows, got 1"),
        (lambda: TransferMatrix(1, ((1, 2),)), "TransferMatrix: expected 1 columns, got 2"),
        (lambda: PathMatrix(1, ()), "PathMatrix: n must be >= 2, got 1"),
        (lambda: PathMatrix(2, ((1, 2.0),)), "PathMatrix: entries must be integers, got 2.0"),
        # bool is an int subclass, and every integer-entry check refuses it
        (lambda: ExactMatrix(((1, True),)), "matrix entries must be int or Fraction, got True"),
        (lambda: TransferMatrix(2, ((True, 2), (0, 1))), "TransferMatrix: entries must be integers, got True"),
        (lambda: PathMatrix(2, ((1, False),)), "PathMatrix: entries must be integers, got False"),
        (lambda: FVector(3, (4, True, 4)), "FVector: face counts must be integers >= 1, got True"),
        (lambda: HVector(1, (1, False)), "HVector: entries must be integers, got False"),
        (lambda: GVector(3, (True, 0)), "GVector: entries must be integers, got True"),
        (lambda: FVector(0, ()), "FVector: d must be >= 1, got 0"),
        (lambda: FVector(3, (4, 6)), r"FVector: need exactly d = 3 entries \(f_0..f_2\), got 2"),
        (lambda: FVector(3, (4, 6, 0)), "FVector: face counts must be integers >= 1, got 0"),
        (lambda: HVector(0, ()), "HVector: d must be >= 1, got 0"),
        (lambda: HVector(3, (1, 1, 1)), r"HVector: need exactly d \+ 1 = 4 entries, got 3"),
        (lambda: GVector(0, ()), "GVector: d must be >= 1, got 0"),
        (lambda: GVector(3, (1,)), r"GVector: need exactly floor\(d/2\) \+ 1 = 2 entries for d = 3, got 1"),
    ],
)
def test_validation_errors(make, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        make()


def test_constructors_coerce_rows_and_entries_to_tuples():
    assert TransferMatrix(2, [[3, 3], [1, 1]]).entries == ((3, 3), (1, 1))
    assert PathMatrix(2, [[1, 2]]) == path_matrix(2)
    assert FVector(3, [4, 6, 4]).counts == (4, 6, 4)
    assert GVector(3, [1, 0]).values == (1, 0)


def test_a_record_equals_the_plain_tuple_of_its_fields():
    # a NamedTuple compares as a tuple; _make and _replace skip the checks in __new__
    assert GVector(3, (1, 0)) == (3, (1, 0))
    assert LatticeGraph(8) == (8,)
    assert GVector(3, (1, 0))._replace(values=(1.5,)) == (3, (1.5,))
