"""Outside-in layer tracing for one task process.

install() replaces public module-level names of psituples with timing
wrappers.  The pipeline reaches these names through module globals (cli
calls search and reproduce_table, search calls build_sieve,
build_class_index, decompose_sum_of_powers and sort_solutions, the
Theorem-1 scan calls build_sieve and pair_obstruction), so patching the
globals of the calling module times every call without touching the
package.  A name that no longer exists is reported as absent.

Each wrapper keeps a span on a stack; a span's self time is its duration
minus the durations of the spans it encloses.  Only per-name sums are
kept, since equal-class searches make millions of decompose calls.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

PAIR_CASES = ("PowerOfTwo", "OddOnly", "TwoThree", "TwoTimesPrimePower", "General")
WITNESS_KINDS = ("non-square", "odd-square-gap", "mod5", "gcd-drop")


class Tracer:
    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack = [[0.0]]  # per open span: time covered by its children
        self._open_search = None  # state of the innermost open search call

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so that each call is timed as one span called name."""
        stack, total, self_time, calls = self._stack, self.total, self.self_time, self.calls

        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                total[name] += dt
                self_time[name] += dt - frame[0]
                calls[name] += 1
            if on_result is not None:
                try:
                    on_result(args, kwargs, result)
                except (AttributeError, TypeError, KeyError):
                    # the result changed shape: its counters become absent
                    self.absent.append(name + ".result")
            return result

        return timed

    def patch(self, module: str, name: str, metric: str, make=None) -> None:
        """Replace module.name by its traced version, or record it absent."""
        try:
            mod = importlib.import_module(module)
        except ImportError:
            mod = None
        fn = getattr(mod, name, None)
        if not callable(fn):
            self.absent += [metric, metric + ".result"]
            return
        setattr(mod, name, make(fn) if make else self.span(metric, fn))

    # --- layer-specific wrappers ----------------------------------------

    def _sieve(self, fn):
        def counted(args, kwargs, sieve):
            self.counts["arith.sieve_entries"] += sieve.limit

        return self.span("arith.build_sieve", fn, counted)

    def _class_index(self, fn):
        def counted(args, kwargs, index):
            self.counts["search.psi_classes"] += len(index.classes)

        return self.span("search.class_index", fn, counted)

    def _decompose(self, fn):
        """One span per free-class size; the first call also ends prepare."""
        stack, total, self_time, calls, counts = (
            self._stack, self.total, self.self_time, self.calls, self.counts,
        )
        names: dict = {}

        def timed(*args, **kwargs):
            search = self._open_search
            if search is not None and search["first_decompose"] is None:
                search["first_decompose"] = (perf_counter(), search["frame"][0])
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                count = args[1] if len(args) > 1 else kwargs.get("count")
                name = names.get(count) or names.setdefault(count, f"search.decompose.f{count}")
                total[name] += dt
                self_time[name] += dt - frame[0]
                calls[name] += 1
            if result:
                counts["search.decompose_hits"] += 1
            return result

        return timed

    def _search(self, fn):
        """search(): split its self time into prepare, enumerate and pool wait.

        prepare runs from entry to the first decompose call, less the sieve
        and index spans in between; self time after that is enumeration.  A
        pool search makes no decompose call in this process, so its self
        time is spent waiting on the pool.  The public progress callback
        counts pool chunks and times the first one.
        """
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        has_progress = signature is not None and "progress" in signature.parameters
        if not has_progress:
            self.absent += ["search.pool_chunks", "search.pool_first_chunk_s"]
        stack, total, self_time, calls, counts = (
            self._stack, self.total, self.self_time, self.calls, self.counts,
        )

        def traced(*args, **kwargs):
            t0 = perf_counter()
            jobs = 1
            if has_progress:
                bound = signature.bind(*args, **kwargs)
                jobs = getattr(bound.arguments.get("config"), "jobs", 1)
                user_progress = bound.arguments.get("progress")

                def progress(i, n, part):
                    if jobs > 1:
                        counts["search.pool_chunks"] += 1
                        if i == 0:
                            counts["search.pool_first_chunk_s"] += perf_counter() - t0
                    if user_progress is not None:
                        user_progress(i, n, part)

                bound.arguments["progress"] = progress
                args, kwargs = bound.args, bound.kwargs
            outer = self._open_search
            frame = [0.0]
            self._open_search = state = {"frame": frame, "first_decompose": None}
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                self._open_search = outer
                own = dt - frame[0]
                total["search"] += dt
                self_time["search"] += own
                calls["search"] += 1
                first = state["first_decompose"]
                if first is not None:
                    prepare = (first[0] - t0) - first[1]
                    counts["search.prepare_s"] += prepare
                    counts["search.enumerate_s"] += own - prepare
                elif jobs > 1:
                    counts["search.pool_wait_s"] += own
                else:
                    counts["search.prepare_s"] += own

        return traced

    def _pair_obstruction(self, fn):
        def counted(args, kwargs, report):
            self.counts[f"theorems.case.{report.case_id.value}"] += 1
            self.counts[f"theorems.witness.{report.obstruction.kind}"] += 1

        return self.span("theorems.pair_obstruction", fn, counted)

    def _counter(self, metric, fn):
        def counted(*args, **kwargs):
            self.counts[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        patch = self.patch
        for module in ("psituples.search", "psituples.theorems"):
            patch(module, "build_sieve", "arith.build_sieve", self._sieve)
        patch("psituples.search", "build_class_index", "search.class_index", self._class_index)
        patch("psituples.search", "decompose_sum_of_powers", "search.decompose", self._decompose)
        patch("psituples.search", "sort_solutions", "search.sort")
        for module in ("psituples.cli", "psituples.tables"):
            patch(module, "search", "search", self._search)
        patch("psituples.tables", "verify_solution", "tables.verify_calls",
              lambda fn: self._counter("tables.verify_calls", fn))
        patch("psituples.cli", "reproduce_table", "tables.reproduce")
        for name in ("solution_to_json", "solution_to_csv_row", "csv_header"):
            patch("psituples.cli", name, "tuples.serialize")
        patch("psituples.cli", "main", "cli.main")
        patch("psituples.theorems", "pair_obstruction", "theorems.pair_obstruction",
              self._pair_obstruction)
        patch("psituples.theorems", "verify_theorem1", "theorems.scan")

    def report(self) -> dict:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "absent": sorted(set(self.absent)),
        }
