"""Independent output checks for the benchmark.

Nothing here imports psituples: psi comes from trial division, every
identity is checked with Python big integers, and the named kinds are
transcribed again below.  A task's stdout passes only if its structure is
what the command promises and every emitted tuple satisfies the defining
equation psi(a_1)^p = ... = psi(a_e)^p = a_1^p + ... + a_e^p + b_1^p + ... + b_f^p.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

# name -> (power, equal, free), transcribed from the paper's definitions
KINDS = {
    "quadratic-pair": (2, 1, 1),
    "quadratic-triple": (2, 2, 1),
    "quadratic-quadruple": (2, 3, 1),
    "cubic-triple": (3, 1, 2),
    "cubic-quadruple": (3, 2, 2),
    "cubic-quintuple": (3, 3, 2),
    "quartic-quintuple": (4, 1, 4),
    "quintic-quintuple": (5, 1, 4),
}


def psi_trial(n: int) -> int:
    """Dedekind psi by trial division."""
    result, m, d = n, n, 2
    while d * d <= m:
        if m % d == 0:
            result = result // d * (d + 1)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        result = result // m * (m + 1)
    return result


def tuple_holds(power: int, equal: list[int], free: list[int]) -> bool:
    if not equal or not free or min(equal + free) < 1:
        return False
    v = psi_trial(equal[0])
    if any(psi_trial(a) != v for a in equal[1:]):
        return False
    return v**power == sum(a**power for a in equal) + sum(b**power for b in free)


def _canonical(rows: list[tuple[list[int], list[int]]]) -> bool:
    """Entry lists non-decreasing, rows strictly increasing."""
    keys = [(tuple(e), tuple(f)) for e, f in rows]
    return all(list(e) == sorted(e) and list(f) == sorted(f) for e, f in keys) and all(
        a < b for a, b in zip(keys, keys[1:])
    )


def check_search_json(text: str, kind: str) -> str | None:
    p, e, f = KINDS[kind]
    rows = []
    for line in text.splitlines():
        obj = json.loads(line)
        k = obj["kind"]
        equal, free = obj["equal_entries"], obj["free_entries"]
        if (k["power"], k["equal"], k["free"], k["name"]) != (p, e, f, kind):
            return f"wrong kind in {line}"
        if len(equal) != e or len(free) != f or not tuple_holds(p, equal, free):
            return f"row does not hold: {line}"
        if obj["psi"] != psi_trial(equal[0]) or int(obj["target"]) != obj["psi"] ** p:
            return f"wrong psi or target: {line}"
        rows.append((equal, free))
    return None if _canonical(rows) else "rows not in canonical order"


def check_search_csv(text: str, kind: str) -> str | None:
    p, e, f = KINDS[kind]
    table = list(csv.reader(io.StringIO(text)))
    header = ["name", "power"] + [f"equal_{i}" for i in range(1, e + 1)]
    header += [f"free_{j}" for j in range(1, f + 1)] + ["psi", "target"]
    if not table or table[0] != header:
        return "bad csv header"
    rows = []
    for cells in table[1:]:
        if len(cells) != len(header) or cells[:2] != [kind, str(p)]:
            return f"bad csv row {cells}"
        nums = [int(c) for c in cells[2:]]
        equal, free, v, target = nums[:e], nums[e : e + f], nums[-2], nums[-1]
        if not tuple_holds(p, equal, free) or v != psi_trial(equal[0]) or target != v**p:
            return f"row does not hold: {cells}"
        rows.append((equal, free))
    return None if _canonical(rows) else "rows not in canonical order"


_ROW = re.compile(r"^  \(([\d, ]+)\)")
_SECTION = re.compile(r"^(MATCHED|EXTRA|MISSING|OUT-OF-BOUND)[^(]*\((\d+)\)")


def check_table(text: str) -> str | None:
    """Every found or out-of-bound row holds, and nothing printed is missing."""
    lines = text.splitlines()
    head = re.match(r"^table \d+ \(([\w-]+)\), bound \d+$", lines[0]) if lines else None
    if head is None or head.group(1) not in KINDS:
        return "bad table header"
    p, e, _ = KINDS[head.group(1)]
    counts: dict[str, int] = {}
    seen: dict[str, int] = {}
    section = None
    for line in lines[1:]:
        m = _SECTION.match(line)
        if m:
            section = m.group(1)
            counts[section] = int(m.group(2))
            seen[section] = 0
            continue
        row = _ROW.match(line)
        if row is None or section is None:
            return f"unexpected line {line!r}"
        seen[section] += 1
        entries = [int(x) for x in row.group(1).split(",")]
        if section == "OUT-OF-BOUND" and not line.endswith("-> ok"):
            return f"printed row failed verification: {line}"
        if section != "MISSING" and not tuple_holds(p, entries[:e], entries[e:]):
            return f"row does not hold: {line}"
    if set(counts) != {"MATCHED", "EXTRA", "MISSING", "OUT-OF-BOUND"} or counts != seen:
        return "table sections incomplete"
    if counts["MISSING"] != 0:
        return f"MISSING ({counts['MISSING']})"
    return None


def check_scan(text: str, limit: int) -> str | None:
    obj = json.loads(text)
    if obj != {"checked": limit - 1, "failures": []}:
        return f"scan result {obj}"
    return None


def scan_independently(limit: int) -> bool:
    """No 2 <= x <= limit has psi(x)^2 - x^2 a positive square (own sieve)."""
    psi = list(range(limit + 1))
    for q in range(2, limit + 1):
        if psi[q] == q:  # untouched so far: q is prime
            for m in range(q, limit + 1, q):
                psi[m] = psi[m] // q * (q + 1)
    for x in range(2, limit + 1):
        y2 = psi[x] * psi[x] - x * x
        r = math.isqrt(y2)
        if y2 > 0 and r * r == y2:
            return False
    return True


def check_output(argv: list[str], text: str) -> str | None:
    """None when stdout is right for the command, else the reason."""
    if argv[0] == "scan":
        return check_scan(text, int(argv[1]))
    if argv[0] == "table":
        return check_table(text)
    kind = argv[argv.index("--kind") + 1]
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        return check_search_csv(text, kind)
    return check_search_json(text, kind)
