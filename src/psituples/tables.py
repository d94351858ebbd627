"""The seven published reference tables, embedded as data, plus the diff
machinery the table command uses to reproduce them.

Rows are transcribed exactly as printed: the first e numbers of a row are
the equal-class entries, the rest the free entries.  The published lists
are explicitly non-exhaustive, so reproduction treats unlisted finds as
informational extras, never as errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import PsiSieve
from .tuples import Solution, TupleKind, kind_by_name, verify_solution
from .search import SearchConfig, search

__all__ = ["TableSpec", "TableDiff", "TABLES", "reproduce_table"]


@dataclass(frozen=True)
class TableSpec:
    table_id: int
    kind: TupleKind
    rows: tuple[tuple[int, ...], ...]
    default_bound: int

    def split_row(self, row: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        e = self.kind.equal
        return row[:e], row[e:]

    def row_in_range(self, row: tuple[int, ...], bound: int) -> bool:
        equal, _ = self.split_row(row)
        return max(equal) <= bound


# Table 1: quadratic triples (the power-of-two family).
_T1_ROWS = tuple(
    (1 << k, 1 << k, 1 << (k - 1)) for k in range(1, 19)
)

# Table 2: quadratic quadruples.
_T2_ROWS = (
    (6, 6, 6, 6), (12, 12, 12, 12), (18, 18, 18, 18), (18, 22, 22, 2),
    (24, 24, 24, 24), (36, 36, 36, 36), (36, 44, 44, 4), (48, 48, 48, 48),
    (54, 54, 54, 54), (72, 72, 72, 72), (72, 88, 88, 8), (96, 96, 96, 96),
    (108, 108, 108, 108), (144, 144, 144, 144), (144, 176, 176, 16),
    (162, 162, 162, 162), (192, 192, 192, 192), (216, 216, 216, 216),
    (288, 288, 288, 288), (288, 352, 352, 32), (324, 324, 324, 324),
    (384, 384, 384, 384), (432, 432, 432, 432), (486, 486, 486, 486),
    (576, 576, 576, 576), (576, 704, 704, 64), (648, 648, 648, 648),
    (768, 768, 768, 768), (864, 864, 864, 864), (972, 972, 972, 972),
    (1152, 1152, 1152, 1152), (1152, 1408, 1408, 128), (1296, 1296, 1296, 1296),
)

# Table 3: cubic triples.
_T3_ROWS = (
    (4, 3, 5), (5, 3, 4), (6, 8, 10), (8, 6, 10), (12, 16, 20), (16, 12, 20),
    (18, 24, 30), (24, 32, 40), (25, 15, 20), (32, 24, 40), (36, 48, 60),
    (48, 64, 80), (53, 12, 19), (54, 72, 90), (58, 59, 69), (64, 48, 80),
    (72, 96, 120), (96, 128, 160), (102, 26, 208), (102, 117, 195),
    (108, 144, 180), (116, 118, 138), (118, 116, 138), (125, 75, 100),
    (128, 96, 160), (144, 192, 240), (162, 216, 270), (192, 256, 320),
    (204, 52, 416), (204, 234, 390), (216, 288, 360), (232, 236, 276),
    (236, 232, 276), (256, 192, 320), (258, 126, 504), (288, 384, 480),
    (306, 78, 624), (306, 351, 585), (324, 432, 540), (384, 512, 640),
    (408, 104, 832), (408, 468, 780), (426, 6, 828), (426, 646, 668),
    (432, 576, 720), (1615, 1065, 1670),
)

# Table 4: cubic quadruples.
_T4_ROWS = (
    (14, 16, 5, 19), (28, 32, 10, 38), (30, 45, 43, 56), (42, 48, 40, 86),
    (54, 68, 58, 84), (56, 64, 20, 76), (60, 72, 63, 129), (84, 96, 80, 172),
    (90, 135, 129, 168), (108, 136, 116, 168), (112, 128, 40, 152),
    (120, 126, 144, 258), (124, 161, 52, 95), (126, 144, 120, 258),
    (150, 225, 215, 280), (168, 192, 160, 344), (174, 200, 12, 322),
    (180, 216, 189, 387), (216, 272, 232, 336), (224, 256, 80, 304),
    (240, 252, 288, 516), (252, 288, 240, 516), (270, 405, 387, 504),
    (308, 322, 78, 504), (336, 384, 320, 688), (348, 400, 24, 644),
    (360, 378, 432, 774), (378, 432, 360, 774), (432, 544, 464, 672),
    (448, 512, 160, 608), (450, 675, 645, 840), (480, 504, 576, 1032),
    (504, 576, 480, 1032),
)

# Table 5: cubic quintuples.
_T5_ROWS = (
    (6, 9, 9, 3, 3), (12, 14, 16, 7, 17), (18, 27, 27, 9, 9),
    (24, 28, 32, 14, 34), (30, 36, 40, 48, 50), (30, 55, 55, 11, 23),
    (40, 44, 46, 12, 50), (40, 46, 51, 29, 38), (45, 46, 51, 21, 35),
    (48, 56, 64, 28, 68), (56, 63, 77, 7, 13), (62, 62, 69, 4, 43),
    (54, 81, 81, 27, 27), (60, 72, 72, 75, 117), (60, 72, 80, 96, 100),
    (66, 72, 72, 45, 123), (66, 72, 115, 2, 93), (66, 88, 92, 62, 100),
    (70, 88, 119, 12, 65), (70, 92, 99, 21, 96), (80, 88, 92, 24, 100),
    (92, 92, 94, 36, 82), (78, 78, 98, 82, 132), (96, 112, 128, 56, 136),
    (96, 124, 128, 69, 123), (930, 1280, 2101, 74, 379),
    (960, 1152, 1152, 1200, 1872), (960, 1152, 1280, 1536, 1600),
    (960, 1528, 1532, 117, 1611), (1056, 1152, 1152, 720, 1968),
    (1056, 1408, 1472, 992, 1600),
)

# Table 6: quartic quintuples.
_T6_ROWS = (
    (538, 96, 532, 548, 648),
    (34432, 6144, 34048, 35072, 41472),
    (68864, 12288, 68096, 70144, 82944),
    (137728, 24576, 136192, 140288, 165888),
    (275456, 49152, 272384, 280576, 331776),
    (550912, 98304, 544768, 561152, 663552),
)

# Table 7: quintic quintuples.
_T7_ROWS = (
    (46, 19, 43, 47, 67),
    (92, 38, 86, 94, 134),
    (94, 38, 86, 92, 134),
    (946, 418, 1012, 1034, 1474),
    (1139, 323, 731, 782, 799),
)

# Default bounds cover each printed range where an exhaustive run is
# desk-feasible (tables 1-4); the heavy tails of tables 5 and 7 fall back
# to the bounded runs used by the acceptance suite, with out-of-range rows
# spot-verified instead of searched.  Table 6 searches to 8192, where the
# quartic congruence descent keeps the run to a few seconds; its printed
# rows from 34432 on are spot-verified.
TABLES: dict[int, TableSpec] = {
    1: TableSpec(1, kind_by_name("quadratic-triple"), _T1_ROWS, 262144),
    2: TableSpec(2, kind_by_name("quadratic-quadruple"), _T2_ROWS, 1408),
    3: TableSpec(3, kind_by_name("cubic-triple"), _T3_ROWS, 1615),
    4: TableSpec(4, kind_by_name("cubic-quadruple"), _T4_ROWS, 675),
    5: TableSpec(5, kind_by_name("cubic-quintuple"), _T5_ROWS, 96),
    6: TableSpec(6, kind_by_name("quartic-quintuple"), _T6_ROWS, 8192),
    7: TableSpec(7, kind_by_name("quintic-quintuple"), _T7_ROWS, 94),
}


@dataclass(frozen=True)
class TableDiff:
    """Search output diffed against a printed table at some bound.

    matched/extra hold found solutions; missing holds printed in-range rows
    the search did not produce (always a failure); out_of_range holds
    printed rows beyond the bound, paired with their verification result.
    """

    table_id: int
    bound: int
    matched: tuple[Solution, ...]
    extra: tuple[Solution, ...]
    missing: tuple[tuple[int, ...], ...]
    out_of_range: tuple[tuple[tuple[int, ...], bool], ...]

    @property
    def ok(self) -> bool:
        return not self.missing and all(good for _, good in self.out_of_range)


def reproduce_table(
    table_id: int,
    bound: int | None = None,
    jobs: int = 1,
    sieve: PsiSieve | None = None,
) -> TableDiff:
    """Search at the table's (or given) bound and diff against the print.

    Printed rows beyond the bound are verified arithmetically rather than
    searched for.
    """
    spec = TABLES[table_id]
    bound = spec.default_bound if bound is None else bound
    found = search(SearchConfig(kind=spec.kind, bound=bound, jobs=jobs), sieve=sieve)
    printed_in_range: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    out_of_range: list[tuple[tuple[int, ...], bool]] = []
    for row in spec.rows:
        equal, free = spec.split_row(row)
        if spec.row_in_range(row, bound):
            printed_in_range.add((tuple(sorted(equal)), tuple(sorted(free))))
        else:
            report = verify_solution(spec.kind, equal, free, sieve)
            out_of_range.append((row, report.ok))
    matched = tuple(s for s in found if s.sort_key() in printed_in_range)
    extra = tuple(s for s in found if s.sort_key() not in printed_in_range)
    found_keys = {s.sort_key() for s in found}
    missing = tuple(
        row
        for row in spec.rows
        if spec.row_in_range(row, bound)
        and (
            tuple(sorted(spec.split_row(row)[0])),
            tuple(sorted(spec.split_row(row)[1])),
        )
        not in found_keys
    )
    return TableDiff(
        table_id=table_id,
        bound=bound,
        matched=matched,
        extra=extra,
        missing=missing,
        out_of_range=tuple(out_of_range),
    )
