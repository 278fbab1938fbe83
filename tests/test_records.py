"""The record types' shared semantics: repr, equality, hashing, frozenness,
construction and the __post_init__ hook.

Every case is (class, field names, field values, repr).  The values are
chosen so that construction keeps them as given: no canonical reduction,
no conversion (bar SeidelMatrix's entries, which become an int8 array).
"""

import importlib
import pkgutil
from dataclasses import FrozenInstanceError, is_dataclass
from fractions import Fraction

import pytest

import seidelchain
from seidelchain import (
    BlockString,
    ChainGraph,
    CharPoly,
    ClassCertificate,
    CospectralPair,
    EquiangularParams,
    ExactSpectrum,
    Graph,
    IntegralFamily,
    QuotientMatrix,
    RootInterval,
    ScanHit,
    SearchResult,
    SeidelMatrix,
    Surd,
    SwitchingWitness,
    chain_graph,
    graphs,
    spectra,
)

_B = BlockString(((1, 1),))
_SPECTRUM = ExactSpectrum(((-1, 1), (1, 1)))
_CASES = [
    (BlockString, ("blocks",), (((1, 5), (5, 4)),), "BlockString(blocks=((1, 5), (5, 4)))"),
    (Graph, ("n", "rows"), (3, (6, 1, 1)), "Graph(n=3, rows=(6, 1, 1))"),
    (ChainGraph, ("n", "rows", "block_string"), (2, (2, 1), _B),
     "ChainGraph(n=2, rows=(2, 1), block_string=BlockString(blocks=((1, 1),)))"),
    (Surd, ("a", "sign", "d", "c"), (1, 1, 5, 2), "Surd(a=1, sign=1, d=5, c=2)"),
    (RootInterval, ("poly", "lo", "hi", "shift", "sign_lo", "sign_hi"), ((-2, 0, 1), 181, 182, 7, -1, 1),
     "RootInterval(poly=(-2, 0, 1), lo=181, hi=182, shift=7, sign_lo=-1, sign_hi=1)"),
    (SeidelMatrix, ("n", "entries"), (2, ((0, -1), (-1, 0))),
     "SeidelMatrix(n=2, entries=array([[ 0, -1],\n       [-1,  0]], dtype=int8))"),
    (QuotientMatrix, ("size", "cell_sizes"), (4, (1, 5, 5, 4)), "QuotientMatrix(size=4, cell_sizes=(1, 5, 5, 4))"),
    (CharPoly, ("coeffs",), ((-2, 0, 1),), "CharPoly(coeffs=(-2, 0, 1))"),
    (ExactSpectrum, ("entries",), (((-1, 2), (Surd(1, 1, 5, 2), 1)),),
     "ExactSpectrum(entries=((-1, 2), (Surd(a=1, sign=1, d=5, c=2), 1)))"),
    (EquiangularParams, ("lines", "dimension", "cosine", "lambda_min", "multiplicity"), (6, 1, Fraction(1, 5), -5, 1),
     "EquiangularParams(lines=6, dimension=1, cosine=Fraction(1, 5), lambda_min=-5, multiplicity=1)"),
    (CospectralPair, ("r", "m", "n", "string_a", "string_b", "predicted"), (1, 3, 14, _B, _B, _SPECTRUM),
     "CospectralPair(r=1, m=3, n=14, string_a=BlockString(blocks=((1, 1),)), "
     "string_b=BlockString(blocks=((1, 1),)), predicted=ExactSpectrum(entries=((-1, 1), (1, 1))))"),
    (IntegralFamily, ("family_id", "r", "n", "m", "string", "predicted"), ("SYM", 1, 6, 2, _B, _SPECTRUM),
     "IntegralFamily(family_id='SYM', r=1, n=6, m=2, string=BlockString(blocks=((1, 1),)), "
     "predicted=ExactSpectrum(entries=((-1, 1), (1, 1))))"),
    (ScanHit, ("n", "m", "families", "verified_integral"), (10, 2, ("A",), True),
     "ScanHit(n=10, m=2, families=('A',), verified_integral=True)"),
    (SwitchingWitness, ("subset", "degrees", "split_per_cell"), (3, (2, 2, 2), (1, 2)),
     "SwitchingWitness(subset=3, degrees=(2, 2, 2), split_per_cell=(1, 2))"),
    (SearchResult, ("witnesses", "match_count", "subsets_examined"), ((SwitchingWitness(3, (2, 2)),), 1, 4),
     "SearchResult(witnesses=(SwitchingWitness(subset=3, degrees=(2, 2), split_per_cell=None),), "
     "match_count=1, subsets_examined=4)"),
    (ClassCertificate, ("n", "canonical_bits", "prefilter_hash"), (3, 5, "abcd"),
     "ClassCertificate(n=3, canonical_bits=5, prefilter_hash='abcd')"),
]
_IDS = [case[0].__name__ for case in _CASES]


def _field_values(x, names) -> tuple:
    return tuple(getattr(x, name) for name in names)


@pytest.mark.parametrize("cls,names,values,text", _CASES, ids=_IDS)
def test_repr_names_every_field(cls, names, values, text):
    x = cls(*values)
    assert repr(x) == text
    assert cls.__match_args__ == names


@pytest.mark.parametrize("cls,names,values,text", _CASES, ids=_IDS)
def test_equality_and_hash_are_those_of_the_field_tuple(cls, names, values, text):
    x, y = cls(*values), cls(*values)
    if cls is SeidelMatrix:  # compared by identity
        assert x == x and x != y and hash(x) == object.__hash__(x)
        return
    fields = _field_values(x, names)
    assert fields == values
    assert x == y and not x != y and hash(x) == hash(y) == hash(fields)
    # Only a record of the same class compares: not the bare field tuple.
    assert x != fields and x.__eq__(fields) is NotImplemented


def test_records_of_two_classes_with_equal_fields_are_unequal():
    c = chain_graph("0 1")
    g = Graph(c.n, c.rows)
    assert (c.n, c.rows) == (g.n, g.rows)
    assert c != g and g != c
    assert g == Graph(2, (2, 1)) and c == ChainGraph(2, (2, 1), _B)


@pytest.mark.parametrize("cls,names,values,text", _CASES, ids=_IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, names, values, text):
    x = cls(*values)
    for name in names:
        before = getattr(x, name)
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, 0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
        assert getattr(x, name) is before
    with pytest.raises(FrozenInstanceError):
        x.other = 0


@pytest.mark.parametrize("cls,names,values,text", _CASES, ids=_IDS)
def test_keyword_construction_matches_positional(cls, names, values, text):
    by_keyword = cls(**dict(zip(names, values)))
    mixed = cls(values[0], **dict(zip(names[1:], values[1:])))
    assert repr(by_keyword) == repr(mixed) == text
    if cls is not SeidelMatrix:
        assert by_keyword == mixed == cls(*values)


@pytest.mark.parametrize("cls,names,values,text", _CASES, ids=_IDS)
def test_wrong_arguments_raise_type_error(cls, names, values, text):
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, no_such_field=0)


def test_split_per_cell_defaults_to_none():
    w = SwitchingWitness(3, (2, 2))
    assert w.split_per_cell is None
    assert w == SwitchingWitness(subset=3, degrees=(2, 2)) == SwitchingWitness(3, (2, 2), None)
    assert repr(w) == "SwitchingWitness(subset=3, degrees=(2, 2), split_per_cell=None)"


def test_chain_graph_keeps_the_graph_checks():
    with pytest.raises(ValueError, match="not symmetric"):
        Graph(2, (2, 0))
    with pytest.raises(ValueError, match="not symmetric"):
        ChainGraph(2, (2, 0), _B)


def test_quotient_entries_are_built_once_per_instance(monkeypatch):
    calls = []
    template = spectra._cell_sign_template

    def counting(k):
        calls.append(k)
        return template(k)

    monkeypatch.setattr(spectra, "_cell_sign_template", counting)
    q = QuotientMatrix(4, (1, 5, 5, 4))
    assert "entries" not in vars(q)
    rows = q.entries
    assert q.entries is rows and vars(q)["entries"] is rows and calls == [2]
    assert rows == ((0, -5, 5, -4), (-1, 4, 5, 4), (1, 5, 4, -4), (-1, 5, -5, 3))
    # The cached rows are not a field: equality and hash ignore them.
    fresh = QuotientMatrix(4, (1, 5, 5, 4))
    assert q == fresh and hash(q) == hash(fresh)


def test_graph_post_init_is_looked_up_on_the_class(monkeypatch):
    """Every graph goes through Graph.__post_init__ as the class holds it at
    the call, which is how the benchmark's tracer counts the graph checks."""
    calls = []
    check = graphs.Graph.__post_init__

    def counting(self):
        calls.append(type(self).__name__)
        check(self)

    monkeypatch.setattr(graphs.Graph, "__post_init__", counting)
    chain_graph("0 1^5 0^5 1^4")
    assert calls == ["ChainGraph"]
    Graph(3, (6, 1, 1))
    assert calls == ["ChainGraph", "Graph"]


def test_no_class_of_the_package_is_a_dataclass():
    """The records come from seidelchain._record: a dataclass would compile
    its generated methods again on every import of the package."""
    for info in pkgutil.iter_modules(seidelchain.__path__):
        module = importlib.import_module(f"seidelchain.{info.name}")
        classes = [v for v in vars(module).values() if isinstance(v, type)]
        assert not any(map(is_dataclass, classes)), info.name
