"""The seams between the search's modules: one definition of _KERNEL_BLOCK
that a patch reaches everywhere, the names the tracer patches, the
oracle's independence from the fast path, and what the pool and the
decomposition may import."""

import ast
import importlib
import types
from pathlib import Path

import numpy as np

import psituples
from psituples import SearchConfig, kind_by_name, search
from psituples.arith import int_kth_root
from psituples.decompose import _descend, _mitm4, _PairSumTable, _split_pairs

search_module = importlib.import_module("psituples.search")
decompose_module = importlib.import_module("psituples.decompose")

PACKAGE = Path(psituples.__file__).parent


def _trees():
    """Module name -> parsed source, for every module of the package."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _defined(tree):
    """The names a module's top level defines, imports left out."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("__")}


def _package_imports(tree):
    """The psituples modules a module imports, by their short names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "psituples":
                    continue
                module = module.partition(".")[2]
            found |= {module} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.partition(".")[2] or a.name
                      for a in node.names if a.name.split(".")[0] == "psituples"}
    return found


def test_a_patched_kernel_block_reaches_every_reader(monkeypatch):
    # one module assigns _KERNEL_BLOCK and the others import it, so a test
    # that sets the block in every module that binds it reaches every
    # reader: each of _search_runs, _split_pairs and _mitm4 then forms one
    # piece per item
    trees = _trees()
    assigners = [name for name, tree in trees.items()
                 if any(isinstance(node, ast.Assign) and any(
                     isinstance(t, ast.Name) and t.id == "_KERNEL_BLOCK" for t in node.targets)
                        for node in ast.walk(tree))]
    assert len(assigners) == 1, assigners
    binders = []
    for name in trees:
        module = importlib.import_module("psituples" + ("" if name == "__init__" else f".{name}"))
        if hasattr(module, "_KERNEL_BLOCK"):
            monkeypatch.setattr(module, "_KERNEL_BLOCK", 1)
            binders.append(name)
    assert {"search", "decompose"} <= set(binders)

    # _search_runs: one multiset per decoded block
    blocks = []
    block_columns = search_module._block_columns
    monkeypatch.setattr(search_module, "_block_columns",
                        lambda runs, e, lo, hi: blocks.append((lo, hi))
                        or block_columns(runs, e, lo, hi))
    kind = kind_by_name("quadratic-triple")
    runs = search_module._build_class_runs(200, kind)
    total = int(runs.tuple_start[-1])
    assert search_module._search_runs(kind, runs, None, 0, total)
    assert blocks == [(i, i + 1) for i in range(total)]

    # _split_pairs: one split per piece, each tested on its own
    tested = []
    exact_root_vec = decompose_module._exact_root_vec
    monkeypatch.setattr(decompose_module, "_exact_root_vec",
                        lambda values, p: tested.append(values.size) or exact_root_vec(values, p))
    sums = np.array([50, 65, 1000, 2**20 + 1], dtype=np.int64)
    splits = sum(min(int_kth_root(s // 2, 2), 100) for s in sums.tolist())
    pieces = list(_split_pairs(sums, 1, 2, 100))
    assert len(pieces) == len(tested) == splits and set(tested) == {1}
    assert any(rows.size for rows, _, _ in pieces)

    # _mitm4: one tail sum per needle block, each a one-entry slice of the table
    class Slices(np.ndarray):
        def __getitem__(self, key):
            if self is table.sums and isinstance(key, slice) and key.start is not None:
                taken.append(key.stop - key.start)
            return super().__getitem__(key)

    residual, taken = 1**2 + 4**2 + 5**2 + 8**2, []
    table = _PairSumTable(2, 10)
    tails = [s for s in table.sums.tolist() if residual - residual // 2 <= s <= residual - 2]
    table.sums = table.sums.view(Slices)
    assert (1, 4, 5, 8) in _mitm4(residual, 2, 10, table) == _descend(residual, 4, 2, 10)
    assert taken == [1] * len(tails) and len(tails) > 1


def test_the_tracer_names_intercept_the_kernel(monkeypatch):
    # perfbench's tracer wraps these names in psituples.search: the kernel
    # must keep calling them through that module's globals
    calls = {name: [] for name in ("decompose_sum_of_powers", "build_sieve", "sort_solutions")}
    for name, seen in calls.items():
        real = getattr(search_module, name)
        monkeypatch.setattr(search_module, name,
                            lambda *args, real=real, seen=seen: seen.append(args) or real(*args))
    assert search(SearchConfig(kind_by_name("quintic-quintuple"), 300))
    assert any(args[1] == 4 for args in calls["decompose_sum_of_powers"])
    assert calls["build_sieve"] and calls["sort_solutions"]


def test_the_oracle_shares_no_code_with_the_fast_path():
    # the names that the oracle's code objects, nested ones included, look
    # up: none is defined by the decomposition or the pool, and none is
    # the class-run kernel
    trees = _trees()
    fast = _defined(trees["decompose"]) | _defined(trees["pool"])
    fast |= {"_search_runs", "_block_columns", "_build_class_runs"}
    assert {"_two_pointer", "_mitm4", "_pool_parts"} <= fast
    names = set()
    codes = [getattr(search_module, name).__code__
             for name in ("brute_force_oracle", "_oracle_free_part", "_psi_trial")]
    while codes:
        code = codes.pop()
        names |= set(code.co_names)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    assert "_oracle_free_part" in names  # the walk reads the oracle's own calls
    assert not names & fast, sorted(names & fast)


def test_the_pool_and_the_decomposition_keep_their_seams():
    # the pool imports no psituples module, so that any scan can run its
    # chunks through it; the decomposition builds on arith and tuples only
    trees = _trees()
    assert _package_imports(trees["pool"]) == set()
    assert _package_imports(trees["decompose"]) <= {"arith", "tuples"}
    assert _package_imports(trees["search"]) >= {"decompose", "pool"}
