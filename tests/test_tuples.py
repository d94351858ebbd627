"""Tuple model: kinds, verification, canonical form, doubling, formats."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from psituples import (
    InputError,
    SearchConfig,
    brute_force_oracle,
    canonicalize,
    csv_header,
    double_solution,
    kind_by_name,
    named_kinds,
    search,
    solution_from_json,
    solution_to_csv_row,
    solution_to_json,
    verify_solution,
)
from psituples.tuples import TupleKind


def test_named_kinds_signatures():
    kinds = named_kinds()
    assert len(kinds) == 8
    expected = {
        "quadratic-pair": (2, 1, 1),
        "quadratic-triple": (2, 2, 1),
        "quadratic-quadruple": (2, 3, 1),
        "cubic-triple": (3, 1, 2),
        "cubic-quadruple": (3, 2, 2),
        "cubic-quintuple": (3, 3, 2),
        "quartic-quintuple": (4, 1, 4),
        "quintic-quintuple": (5, 1, 4),
    }
    assert {k.name: k.signature() for k in kinds} == expected


def test_kind_lookup():
    assert kind_by_name("cubic-quadruple").signature() == (3, 2, 2)
    with pytest.raises(ValueError):
        kind_by_name("sextic-pair")


def test_kind_validation():
    with pytest.raises(ValueError):
        TupleKind(6, 1, 1)
    with pytest.raises(ValueError):
        TupleKind(2, 0, 1)


def test_verify_cubic_triple_example():
    r = verify_solution(kind_by_name("cubic-triple"), [4], [3, 5])
    assert r.ok and r.lhs == 216 and r.rhs == 216
    assert r.psi_values == (6,)


def test_verify_quintic_example():
    r = verify_solution(kind_by_name("quintic-quintuple"), [46], [19, 43, 47, 67])
    assert r.ok
    assert r.lhs == 72**5 == 1_934_917_632


def test_verify_failure_carries_discrepancy():
    r = verify_solution(kind_by_name("quadratic-pair"), [3], [2])
    assert not r.ok
    assert r.lhs == 16 and r.rhs == 13 and r.discrepancy == 3


def test_verify_mismatched_psi_not_ok():
    # psi(4) = 6 but psi(7) = 8: equal-class entries must share psi
    r = verify_solution(kind_by_name("quadratic-triple"), [4, 7], [1])
    assert not r.ok
    assert r.psi_values == (6, 8)


def test_verify_arity_and_positivity_errors():
    kind = kind_by_name("cubic-triple")
    with pytest.raises(ValueError):
        verify_solution(kind, [4, 5], [3, 5])
    with pytest.raises(ValueError):
        verify_solution(kind, [4], [3])
    with pytest.raises(ValueError):
        verify_solution(kind, [4], [0, 5])


class _Indexed:
    """Iterable only through __getitem__, the old sequence protocol."""

    def __init__(self, items):
        self.items = items

    def __getitem__(self, i):
        return self.items[i]


def test_entries_may_be_any_iterable():
    kind = kind_by_name("cubic-triple")
    expected = verify_solution(kind, [4], [3, 5])
    assert verify_solution(kind, iter([4]), iter([3, 5])) == expected
    assert verify_solution(kind, (a for a in [4]), (b for b in (5, 3))) == expected
    assert verify_solution(kind, range(4, 5), {3: "x", 5: "y"}) == expected
    assert verify_solution(kind, _Indexed([4]), _Indexed([3, 5])) == expected
    solution = canonicalize(kind, [4], [3, 5])
    assert canonicalize(kind, iter([4]), iter([5, 3])) == solution
    assert canonicalize(kind, (a for a in [4]), (b for b in (5, 3))) == solution
    assert canonicalize(kind, _Indexed([4]), _Indexed([5, 3])) == solution
    # an iterator is counted once it is bound, and read only once
    with pytest.raises(InputError, match="expected 2 free entries, got 1"):
        verify_solution(kind, iter([4]), iter([3]))
    with pytest.raises(InputError, match="expected 1 equal entries, got 2"):
        canonicalize(kind, (a for a in (4, 4)), iter([3, 5]))
    with pytest.raises(InputError, match="free entry must be >= 1, got 0"):
        canonicalize(kind, iter([4]), (b for b in (0, 5)))
    # what is not iterable at all is refused by the argument's name
    for check in (verify_solution, canonicalize):
        with pytest.raises(InputError, match="^equal_entries must be iterable, got 4$"):
            check(kind, 4, [3, 5])
        with pytest.raises(InputError, match="^free_entries must be iterable, got None$"):
            check(kind, [4], None)


def test_a_kind_or_config_of_another_type_names_the_argument():
    kind = kind_by_name("cubic-triple")
    for bad in ("cubic-triple", (3, 1, 2), None):
        with pytest.raises(InputError) as exc:
            verify_solution(bad, [4], [3, 5])
        assert str(exc.value) == f"kind must be a TupleKind, got {bad!r}"
        with pytest.raises(InputError, match="^kind must be a TupleKind"):
            canonicalize(bad, [4], [3, 5])
        with pytest.raises(InputError, match="^kind must be a TupleKind"):
            SearchConfig(bad, 10)
    for bad in ((kind, 10, 1), "cubic-triple", kind):
        with pytest.raises(InputError, match="^config must be a SearchConfig"):
            search(bad)
        with pytest.raises(InputError, match="^config must be a SearchConfig"):
            brute_force_oracle(bad)


def test_verify_permutation_invariance():
    kind = kind_by_name("cubic-quadruple")
    base = verify_solution(kind, [14, 16], [5, 19])
    for equal in ([14, 16], [16, 14]):
        for free in ([5, 19], [19, 5]):
            r = verify_solution(kind, equal, free)
            assert r.ok == base.ok and r.discrepancy == base.discrepancy


def test_canonicalize_sorts_entries():
    s = canonicalize(kind_by_name("cubic-triple"), [5], [4, 3])
    assert s.free_entries == (3, 4)
    s = canonicalize(kind_by_name("quadratic-quadruple"), [22, 18, 22], [2])
    assert s.equal_entries == (18, 22, 22)
    assert s.psi_value == 36 and s.target == 1296


def test_canonicalize_idempotent():
    kind = kind_by_name("cubic-triple")
    s = canonicalize(kind, [5], [4, 3])
    again = canonicalize(s.kind, s.equal_entries, s.free_entries)
    assert again == s


def test_canonicalize_rejects_non_solution():
    with pytest.raises(ValueError):
        canonicalize(kind_by_name("quadratic-pair"), [3], [2])


def test_double_quadruple_row():
    s = canonicalize(kind_by_name("quadratic-quadruple"), [6, 6, 6], [6])
    d = double_solution(s)
    assert d is not None
    assert d.equal_entries == (12, 12, 12) and d.free_entries == (12,)
    assert verify_solution(d.kind, d.equal_entries, d.free_entries).ok


def test_double_triple_row():
    s = canonicalize(kind_by_name("quadratic-triple"), [2, 2], [1])
    d = double_solution(s)
    assert d.equal_entries == (4, 4) and d.free_entries == (2,)


def test_double_odd_equal_entry_is_none():
    s = canonicalize(kind_by_name("cubic-triple"), [5], [3, 4])
    assert double_solution(s) is None


@given(st.integers(min_value=1, max_value=60))
def test_doubling_closure_on_family(k):
    # (2^k, 2^k, 2^(k-1)) doubles to the next family member
    kind = kind_by_name("quadratic-triple")
    s = canonicalize(kind, [2**k, 2**k], [2 ** (k - 1)])
    d = double_solution(s)
    assert d is not None
    assert verify_solution(kind, d.equal_entries, d.free_entries).ok
    assert d.psi_value == 2 * s.psi_value and d.target == 4 * s.target


def test_json_round_trip():
    s = canonicalize(kind_by_name("quintic-quintuple"), [46], [19, 43, 47, 67])
    line = solution_to_json(s)
    assert '"target":"1934917632"' in line  # decimal string, may exceed 64 bits
    assert solution_from_json(line) == s


def test_a_float_power_cannot_fake_a_quadratic_pair():
    # in floats, psi(2**66)**2 = 9 * 2**130 and 2**132 + isqrt(5 * 2**130)**2
    # round to the same double, a discrepancy of 0.0; the kind refuses 2.0
    equal, free = [2**66], [math.isqrt(5 * 2**130)]
    with pytest.raises(InputError, match="power must be an integer, got 2.0"):
        TupleKind(2.0, 1, 1)
    report = verify_solution(TupleKind(2, 1, 1), equal, free)
    assert not report.ok and report.discrepancy != 0


def test_solution_from_json_verifies_the_line():
    line = solution_to_json(canonicalize(kind_by_name("cubic-triple"), [4], [5, 3]))
    obj = json.loads(line)
    # a reordered line is read back canonical
    assert solution_from_json(json.dumps({**obj, "free_entries": [5, 3]})) == solution_from_json(line)
    bad = [
        {"equal_entries": [2.5]},
        {"equal_entries": [4.0]},
        {"free_entries": [3, "5"]},
        {"free_entries": [3, 4, 5]},
        {"free_entries": [3, 6]},  # does not solve psi(4)**3 = 4**3 + 3**3 + 6**3
        {"psi": 2.5},
        {"psi": 7},
        {"target": 216},
        {"target": "217"},
    ]
    for change in bad:
        with pytest.raises(InputError) as exc:
            solution_from_json(json.dumps({**obj, **change}))
        # the inner InputError as it is, not wrapped in another one
        assert "InputError" not in str(exc.value), change


def test_csv_layout():
    kind = kind_by_name("cubic-quadruple")
    s = canonicalize(kind, [14, 16], [5, 19])
    assert csv_header(kind) == [
        "name", "power", "equal_1", "equal_2", "free_1", "free_2", "psi", "target",
    ]
    assert solution_to_csv_row(s) == [
        "cubic-quadruple", "3", "14", "16", "5", "19", "24", "13824",
    ]
