"""The value-class contract of every result and config type.

Each type is an immutable record: positional and keyword construction with
fixed defaults, equality and hash by field, the dataclass-style repr, and
pickle and copy round-trips.  The field order listed here is part of the
public signature.
"""

import copy
import importlib
import inspect
import pickle

import numpy as np
import pytest

from psituples import (
    EqualPairBranch,
    Factorization,
    InputError,
    PairCase,
    PairObstructionReport,
    PsiClassIndex,
    PsiSieve,
    SearchConfig,
    Solution,
    TableDiff,
    TableSpec,
    Theorem2Report,
    TheoremScan,
    TupleKind,
    VerifyReport,
    Witness,
    brute_force_oracle,
    build_class_index,
    build_sieve,
    canonicalize,
    classify_equal_pair,
    congruence_witness,
    decompose_sum_of_powers,
    factorize,
    int_kth_root,
    is_perfect_kth_power,
    kind_by_name,
    pair_obstruction,
    psi,
    psi_segment,
    reproduce_table,
    search,
    solution_from_json,
    solution_to_json,
    triple_family,
    verify_solution,
    verify_theorem1,
)

_ClassRuns = importlib.import_module("psituples.search")._ClassRuns
_Record = importlib.import_module("psituples.arith")._Record

_KIND = kind_by_name("cubic-triple")
_SIEVE = build_sieve(10)
_SOLUTION = Solution(_KIND, (4,), (3, 5), 6, 216)
_SOLUTION_LINE = solution_to_json(_SOLUTION)
_WITNESS = Witness("non-square", "v1 = 5 is not a perfect square",
                   (("symbol_is_v1", 1), ("value", 5)))

# class, field names in order, a value for every field, how many leading
# fields are required (the rest keep their defaults), those defaults,
# whether hash() works, and one field changed to another value.
RECORDS = [
    (Factorization, ("n", "factors"), (12, ((2, 2), (3, 1))), 2, (), True,
     ("n", 13)),
    (PsiSieve, ("limit", "psi"), (10, _SIEVE.psi), 2, (), False,
     ("limit", 9)),
    (SearchConfig, ("kind", "bound", "jobs"), (_KIND, 100, 2), 2, (1,), True,
     ("bound", 99)),
    (PsiClassIndex, ("bound", "classes"), (4, {1: [1], 3: [2], 4: [3], 6: [4]}), 2, (),
     False, ("bound", 5)),
    (_ClassRuns, ("ns", "psis", "run_end", "tuple_start"),
     (np.array([1]), np.array([1]), np.array([1]), np.array([0, 1])), 4, (), False,
     ("ns", np.array([2]))),
    (TableSpec, ("table_id", "kind", "rows", "default_bound"),
     (3, _KIND, ((4, 3, 5), (5, 3, 4)), 50), 4, (), True, ("default_bound", 60)),
    (TableDiff, ("table_id", "bound", "matched", "extra", "missing", "out_of_range"),
     (3, 10, (_SOLUTION,), (), ((6, 8, 10),), (((1615, 1065, 1670), True),)), 6, (), True,
     ("extra", (_SOLUTION,))),
    (Witness, ("kind", "description", "values"),
     (_WITNESS.kind, _WITNESS.description, _WITNESS.values), 3, (), True,
     ("kind", "mod5")),
    (PairObstructionReport, ("x", "u", "v", "d", "u1", "v1", "case_id", "obstruction"),
     (8, 4, 20, 4, 1, 5, PairCase.POWER_OF_TWO, _WITNESS), 8, (), True, ("x", 16)),
    (TheoremScan, ("checked", "failures", "cases", "witnesses"),
     (9, (4,), {"OddOnly": 5}, {"non-square": 8}), 2, ({}, {}), True, ("failures", ())),
    (Theorem2Report, ("a", "branch", "A", "B", "F", "P", "Q", "H", "c"),
     (10, EqualPairBranch.MIXED_BRANCH, None, None, None, 6, 5, 124, None), 2,
     (None,) * 7, True, ("H", 125)),
    (TupleKind, ("power", "equal", "free", "name"), (3, 1, 2, "cubic-triple"), 3, (None,),
     True, ("free", 3)),
    (VerifyReport, ("ok", "psi_values", "lhs", "rhs", "discrepancy"),
     (True, (6,), 216, 216, 0), 5, (), True, ("ok", False)),
    (Solution, ("kind", "equal_entries", "free_entries", "psi_value", "target"),
     (_KIND, (4,), (3, 5), 6, 216), 5, (), True, ("target", 217)),
]


def _holds(rec, names, values):
    """Whether rec's fields are values, comparing array fields by value."""
    for name, value in zip(names, values):
        field = getattr(rec, name)
        if isinstance(value, np.ndarray):
            if not np.array_equal(field, value):
                return False
        elif field != value:
            return False
    return True


@pytest.mark.parametrize(
    "cls, names, values, required, defaults, hashable, change",
    RECORDS,
    ids=[spec[0].__name__ for spec in RECORDS],
)
def test_record_contract(cls, names, values, required, defaults, hashable, change):
    rec = cls(*values)
    assert _holds(rec, names, values)
    assert cls(**dict(zip(names, values))) == rec

    # defaults for the trailing fields; mutable ones are fresh per instance
    short = cls(*values[:required])
    assert tuple(getattr(short, n) for n in names[required:]) == defaults
    for name in names[required:]:
        if isinstance(getattr(short, name), dict):
            assert getattr(short, name) is not getattr(cls(*values[:required]), name)

    # the TypeErrors of a written-out signature
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values[: required - 1])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})

    # help() lists the fields in order; a default None stands for a fresh dict
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == list(names)
    assert all(p.default is p.empty for p in params[:required])
    for p, default in zip(params[required:], defaults):
        assert p.default == default or (p.default is None and default == {})

    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, values[0])
        with pytest.raises(AttributeError):
            delattr(rec, name)

    field, value = change
    other = cls(**{**dict(zip(names, values)), field: value})
    assert rec != other and not rec == other
    assert rec.__eq__(object()) is NotImplemented
    assert rec != tuple(values)

    if hashable:
        assert hash(rec) == hash(cls(*values))
    else:
        with pytest.raises(TypeError):
            hash(rec)

    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(rec) == f"{cls.__qualname__}({fields})"

    for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec)):
        assert type(clone) is cls and _holds(clone, names, values)
    assert copy.copy(rec) == rec


def test_every_record_has_a_contract_row():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    defined = {c for c in subclasses(_Record) if c.__module__.startswith("psituples.")}
    assert defined == {spec[0] for spec in RECORDS}


def test_theorem_scan_hash_ignores_counts():
    a = TheoremScan(9, (4,), {"OddOnly": 5}, {"non-square": 8})
    b = TheoremScan(9, (4,))
    assert a != b
    assert hash(a) == hash(b) == hash((9, (4,)))


def test_fixed_reprs():
    assert repr(kind_by_name("quadratic-pair")) == (
        "TupleKind(power=2, equal=1, free=1, name='quadratic-pair')"
    )
    assert repr(TheoremScan(1, ())) == "TheoremScan(checked=1, failures=(), cases={}, witnesses={})"


@pytest.mark.parametrize(
    "make",
    [
        # Every row carries its own id, so that a row inserted anywhere renames
        # no other case.  The first 58 keep the names that pytest gave them by
        # position before the ids were written out; later rows say what they test.
        pytest.param(lambda: TupleKind(1, 1, 1), id="<lambda>0"),
        pytest.param(lambda: TupleKind(6, 1, 1), id="<lambda>1"),
        pytest.param(lambda: TupleKind(2, 0, 1), id="<lambda>2"),
        pytest.param(lambda: TupleKind(2, 1, 0), id="<lambda>3"),
        pytest.param(lambda: SearchConfig(_KIND, 0), id="<lambda>4"),
        pytest.param(lambda: SearchConfig(_KIND, 10, 0), id="<lambda>5"),
        # refused before any allocation
        pytest.param(lambda: search(SearchConfig(_KIND, 10**40)), id="<lambda>6"),
        pytest.param(lambda: reproduce_table(8), id="<lambda>7"),
        pytest.param(lambda: solution_from_json('{"kind": {}}'), id="<lambda>8"),
        pytest.param(lambda: solution_from_json("[]"), id="<lambda>9"),
        pytest.param(lambda: psi(2.5), id="<lambda>10"),
        pytest.param(lambda: factorize(2.0), id="<lambda>11"),
        pytest.param(
            lambda: verify_solution(kind_by_name("quadratic-pair"), [2.5], [1]),
            id="<lambda>12",
        ),
        pytest.param(
            lambda: verify_solution(kind_by_name("quadratic-pair"), [2], [1.0]),
            id="<lambda>13",
        ),
        # a float, 2.0 included, is refused wherever an integer is bound
        pytest.param(lambda: build_sieve(10.0), id="<lambda>14"),
        pytest.param(lambda: psi_segment(0.0, 10), id="<lambda>15"),
        pytest.param(lambda: psi_segment(0, 10.0), id="<lambda>16"),
        pytest.param(lambda: _SIEVE.psi_at(2.0), id="<lambda>18"),
        pytest.param(lambda: int_kth_root(8.0, 3), id="<lambda>19"),
        pytest.param(lambda: int_kth_root(8, 3.0), id="<lambda>20"),
        pytest.param(lambda: is_perfect_kth_power(8, 3.0), id="<lambda>21"),
        pytest.param(lambda: TupleKind(2.0, 1, 1), id="<lambda>22"),
        pytest.param(lambda: TupleKind(2, 1.0, 1), id="<lambda>23"),
        pytest.param(lambda: TupleKind(2, 1, 1.0), id="<lambda>24"),
        pytest.param(lambda: canonicalize(_KIND, [4.0], [3, 5]), id="<lambda>25"),
        pytest.param(lambda: SearchConfig(_KIND, 10.5), id="<lambda>26"),
        pytest.param(lambda: SearchConfig(_KIND, 10, 2.0), id="<lambda>27"),
        pytest.param(lambda: build_class_index(5.0), id="<lambda>28"),
        pytest.param(lambda: decompose_sum_of_powers(2.0, 2, 2, 1), id="<lambda>29"),
        pytest.param(lambda: decompose_sum_of_powers(2, 2.0, 2, 1), id="<lambda>30"),
        pytest.param(lambda: decompose_sum_of_powers(2, 2, 2.0, 1), id="<lambda>31"),
        pytest.param(lambda: decompose_sum_of_powers(2, 2, 2, 1.0), id="<lambda>32"),
        pytest.param(
            lambda: decompose_sum_of_powers(100, 4, 2, 10, "x"), id="decompose-pair_table-str"
        ),
        pytest.param(lambda: reproduce_table(6.0), id="<lambda>33"),
        pytest.param(lambda: reproduce_table(6, bound=10.5), id="<lambda>34"),
        pytest.param(lambda: reproduce_table(6, bound=10, jobs=1.0), id="<lambda>35"),
        pytest.param(lambda: pair_obstruction(8.0), id="<lambda>36"),
        pytest.param(lambda: congruence_witness(8.0), id="<lambda>37"),
        pytest.param(lambda: verify_theorem1(100.0), id="<lambda>38"),
        pytest.param(lambda: triple_family(5.0), id="<lambda>39"),
        pytest.param(lambda: classify_equal_pair(10.0), id="<lambda>40"),
        pytest.param(
            lambda: solution_from_json(_SOLUTION_LINE.replace('"equal_entries":[4]',
                                                              '"equal_entries":[2.5]')),
            id="<lambda>41",
        ),
        pytest.param(
            lambda: solution_from_json(_SOLUTION_LINE.replace('"psi":6', '"psi":6.0')),
            id="<lambda>42",
        ),
        # a kind that is not a TupleKind, a config that is not a SearchConfig
        pytest.param(lambda: SearchConfig("cubic-triple", 10), id="<lambda>43"),
        pytest.param(lambda: SearchConfig((3, 1, 2), 10), id="<lambda>44"),
        pytest.param(lambda: search((_KIND, 10, 1)), id="<lambda>45"),
        pytest.param(lambda: search("cubic-triple"), id="<lambda>46"),
        pytest.param(lambda: brute_force_oracle((_KIND, 10, 1)), id="<lambda>47"),
        pytest.param(lambda: verify_solution("cubic-triple", [4], [3, 5]), id="<lambda>48"),
        pytest.param(lambda: verify_solution((3, 1, 2), [4], [3, 5]), id="<lambda>49"),
        pytest.param(lambda: canonicalize("cubic-triple", [4], [3, 5]), id="<lambda>50"),
        pytest.param(lambda: canonicalize(None, [4], [3, 5]), id="<lambda>51"),
        # entries that are not iterable
        pytest.param(lambda: verify_solution(_KIND, 4, [3, 5]), id="<lambda>52"),
        pytest.param(lambda: verify_solution(_KIND, [4], 5), id="<lambda>53"),
        pytest.param(lambda: verify_solution(_KIND, None, [3, 5]), id="<lambda>54"),
        pytest.param(lambda: canonicalize(_KIND, 4, [3, 5]), id="<lambda>55"),
        pytest.param(lambda: canonicalize(_KIND, [4], 5), id="<lambda>56"),
        pytest.param(lambda: canonicalize(_KIND, None, [3, 5]), id="<lambda>57"),
    ],
)
def test_validation_raises_input_error(make):
    with pytest.raises(InputError):
        make()


def test_numpy_integers_pass_as_integers():
    assert psi(np.int64(538)) == psi(np.uint32(538)) == 810
    kind = kind_by_name("cubic-triple")
    report = verify_solution(kind, [np.int64(4)], [np.uint16(3), 5])
    assert report.ok and all(type(v) is int for v in (report.lhs, report.rhs, *report.psi_values))
    solution = canonicalize(kind, [np.int64(4)], [np.int64(5), np.uint16(3)])
    assert solution_from_json(solution_to_json(solution)) == solution == _SOLUTION
