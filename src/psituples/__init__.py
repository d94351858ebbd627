"""Dedekind psi toolkit: tuple searches, obstruction classifiers, tables."""

from .arith import (
    Factorization,
    InputError,
    PsiSieve,
    build_sieve,
    factorize,
    int_kth_root,
    is_perfect_kth_power,
    psi,
)
from .search import (
    ORACLE_MAX_BOUND,
    PsiClassIndex,
    SearchConfig,
    brute_force_oracle,
    build_class_index,
    decompose_sum_of_powers,
    max_safe_bound,
    search,
)
from .tables import TABLES, TableDiff, TableSpec, reproduce_table
from .theorems import (
    EqualPairBranch,
    PairCase,
    PairObstructionReport,
    Theorem2Report,
    TheoremScan,
    Witness,
    classify_equal_pair,
    congruence_witness,
    pair_obstruction,
    triple_family,
    verify_theorem1,
    witness_holds,
)
from .tuples import (
    NAMED_KINDS,
    Solution,
    TupleKind,
    VerifyReport,
    canonicalize,
    csv_header,
    double_solution,
    kind_by_name,
    named_kinds,
    solution_from_json,
    solution_to_csv_row,
    solution_to_json,
    sort_solutions,
    verify_solution,
)

__version__ = "0.1.0"
