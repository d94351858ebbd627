"""The psituples benchmark: user commands, each in a fresh process.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 perfbench/run.py --record     (re-record expected digests)
       add --smoke for tiny bounds (the benchmark's self-test)

Run from the repository root.  A workload is a fixed list of tasks; each
pass runs every task once, one at a time (a closed loop with one client),
in an order shuffled by the seed.  Every workload is sized so that a pass
takes about PASS_S seconds at the commit that defined it, and a run makes
round(--seconds / PASS_S) passes: it measures for about --seconds, and
every run of a workload has the same number of samples, so the tail
percentile does not move with the machine's speed.  With --trace 0 the run
reports end-to-end metrics; with --trace 1 it alternates untraced and
traced passes and reports the per-layer metrics of the traced ones (see
layers.py) plus the tracing overhead.  Every task's stdout must match the
digest recorded in expected.json, which check.py verified independently
when it was recorded.  The last line of stdout is the JSON result; a
fuller record, with the environment and per-task samples, goes to
.bench_results/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

from check import check_output, scan_independently
from layers import PAIR_CASES, WITNESS_KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
EXPECTED = HERE / "expected.json"
PASS_S = 6
TASK_TIMEOUT_S = 60
SAMPLE_EVERY_S = 0.01


def search(kind: str, bound: int, jobs: int = 1, fmt: str = "json") -> tuple[str, ...]:
    argv = ("search", "--kind", kind, "--bound", str(bound), "--jobs", str(jobs))
    return argv + (("--format", "csv") if fmt == "csv" else ())


def table(table_id: int, bound: int | None = None, jobs: int = 1) -> tuple[str, ...]:
    argv = ("table", "--id", str(table_id))
    return argv + (("--bound", str(bound)) if bound else ()) + ("--jobs", str(jobs))


def scan(limit: int) -> tuple[str, ...]:
    return ("scan", str(limit))


# Each workload stresses one group of layers and bypasses the others; see
# README.md for the layer -> metric mapping.  A pass holds nine tasks of
# well-spread sizes.  Four passes give 36 samples, four per task, so both
# the median (18th/19th) and the tail sample (ten beyond it: the 26th) fall
# inside one task's four samples rather than between two tasks.  "smoke" lists keep the same shape at tiny bounds for the
# self-test.
WORKLOADS = {
    "equal-class": {
        "why": "equal-class enumeration and the f=1 perfect-power test do the work; "
        "no pair-sum table is built",
        "tasks": [
            search("quadratic-triple", 32768),
            search("quadratic-triple", 32768, fmt="csv"),
            table(1, 32768),
            search("quadratic-quadruple", 6000),
            search("quadratic-triple", 8192),
            search("quadratic-triple", 16384, fmt="csv"),
            table(1, 16384),
            table(2),
            search("quadratic-quadruple", 4000, fmt="csv"),
        ],
        "smoke": [search("quadratic-triple", 300), table(2, 200)],
    },
    "free-class": {
        "why": "two-pointer, pair-sum table and MITM decompositions do the work; "
        "equal-class enumeration is trivial",
        "tasks": [
            search("cubic-quintuple", 600, fmt="csv"),
            search("quartic-quintuple", 300),
            table(6, 300),
            search("quintic-quintuple", 300),
            table(3),
            table(4),
            table(5),
            table(7),
            search("cubic-triple", 800),
        ],
        "smoke": [table(3, 60), search("cubic-quintuple", 40, fmt="csv"),
                  search("quartic-quintuple", 70)],
    },
    "theorem1-scan": {
        "why": "the Theorem-1 scan (sieve, square test, per-x pair_obstruction) "
        "without any search",
        "tasks": [scan(limit) for limit in range(10000, 90001, 10000)],
        "smoke": [scan(2000), scan(5000)],
    },
    "pool-jobs2": {
        "why": "the same kernels behind the two-worker process pool: chunk dispatch, "
        "per-worker rebuilds, pickling",
        "tasks": [
            search("quartic-quintuple", 450, jobs=2),
            search("quadratic-triple", 65536, jobs=2),
            table(1, 65536, jobs=2),
            table(6, 300, jobs=2),
            search("cubic-quintuple", 600, jobs=2, fmt="csv"),
            search("quintic-quintuple", 300, jobs=2),
            search("quadratic-quadruple", 8000, jobs=2),
            table(3, jobs=2),
            table(4, jobs=2),
        ],
        "smoke": [search("quadratic-triple", 2000, jobs=2),
                  search("quartic-quintuple", 70, jobs=2)],
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "peak_rss_mb": "MB",
}
RSS_METHOD = (
    "max over tasks of: os.wait4 ru_maxrss of the task process, plus the sum of "
    f"the VmHWM of its descendant processes, sampled every {SAMPLE_EVERY_S}s from /proc"
)


def task_id(argv) -> str:
    return " ".join(argv)


def reference_id(argv) -> str:
    """The --jobs 1 command whose stdout a task must reproduce."""
    argv = list(argv)
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    return task_id(argv)


# --- running one task ----------------------------------------------------


class DescendantPeaks(threading.Thread):
    """Samples the VmHWM of every descendant of pid until stopped."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peaks: dict[int, int] = {}
        self.done = threading.Event()

    def _children(self, pid: int) -> list[int]:
        try:
            with open(f"/proc/{pid}/task/{pid}/children") as fh:
                return [int(c) for c in fh.read().split()]
        except OSError:
            return []

    def _hwm_kb(self, pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def run(self) -> None:
        while not self.done.wait(SAMPLE_EVERY_S):
            todo = self._children(self.pid)
            while todo:
                pid = todo.pop()
                self.peaks[pid] = max(self.peaks.get(pid, 0), self._hwm_kb(pid))
                todo += self._children(pid)

    def stop(self) -> int:
        self.done.set()
        self.join()
        return sum(self.peaks.values())


def run_task(argv, traced: bool, workdir: Path) -> dict:
    """Spawn one task process and wait for it; times are time.monotonic."""
    timing = workdir / "timing.json"
    timing.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "task.py"), str(timing), "1" if traced else "0", *argv]
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
    sampler = DescendantPeaks(proc.pid)
    sampler.start()
    watchdog = threading.Timer(TASK_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        t_end = time.monotonic()
        watchdog.cancel()
        descendants_kb = sampler.stop()
        try:  # leave no worker behind, whatever happened to the task
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {
        "argv": list(argv),
        "rc": proc.returncode,
        "wall_s": t_end - t_spawn,
        "rss_kb": usage.ru_maxrss + descendants_kb,
        "stdout": (workdir / "stdout").read_bytes(),
        "stderr": (workdir / "stderr").read_bytes()[-2000:].decode(errors="replace"),
        "layers": None,
    }
    if timing.exists():
        t = json.loads(timing.read_text())
        rec["setup_s"] = t["t_work"] - t_spawn
        rec["exit_s"] = t_end - t["t_done"]
        rec["layers"] = t if traced else None
    return rec


def check_task(rec: dict, expected: dict, verified: dict) -> str | None:
    """None when the task ran correctly, else why it failed."""
    if rec["rc"] != 0:
        return f"exit code {rec['rc']}: {rec['stderr'][-300:]}"
    if "setup_s" not in rec:
        return "task wrote no timing record"
    digest = hashlib.sha256(rec["stdout"]).hexdigest()
    want = expected.get(reference_id(rec["argv"]))
    if want is None:
        return "no recorded digest for this command"
    if digest != want:
        return f"stdout sha256 {digest} differs from the recorded {want}"
    if digest not in verified:
        verified[digest] = check_output(rec["argv"], rec["stdout"].decode())
    return verified[digest]


# --- statistics ------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer there is no such percentile; the maximum is
    reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes: list[list[dict]]) -> tuple[dict, dict]:
    tasks = [rec for p in passes for rec in p]
    walls = [rec["wall_s"] for rec in tasks]
    setups = [rec["setup_s"] for rec in tasks if "setup_s" in rec]
    tail_value, tail_pct = tail(walls)
    values = {
        "setup_s": statistics.median(setups or [0.0]),
        "wall_s": statistics.median(sum(rec["wall_s"] for rec in p) for p in passes),
        "task_p50_s": statistics.median(walls),
        "task_tail_s": tail_value,
        "peak_rss_mb": max(rec["rss_kb"] for rec in tasks) / 1024,
    }
    samples = {
        "setup_s": len(setups),
        "wall_s": len(passes),
        "task_p50_s": len(walls),
        "task_tail_s": len(walls),
        "task_tail_percentile": tail_pct,
        "peak_rss_mb": len(walls),
    }
    return values, samples


def _layer_metrics() -> list[tuple[str, str, str, object]]:
    """(name, unit, tracer name it depends on, how to read it from a task)."""

    def total(name):
        return lambda L, rec: L["total"].get(name, 0.0)

    def own(name):
        return lambda L, rec: L["self"].get(name, 0.0)

    def calls(name):
        return lambda L, rec: L["calls"].get(name, 0)

    def count(name):
        return lambda L, rec: L["counts"].get(name, 0)

    m = [
        ("arith.build_sieve_s", "s", "arith.build_sieve", total("arith.build_sieve")),
        ("arith.build_sieve_calls", "count", "arith.build_sieve", calls("arith.build_sieve")),
        ("arith.sieve_entries", "count", "arith.build_sieve.result", count("arith.sieve_entries")),
        ("search.class_index_s", "s", "search.class_index", total("search.class_index")),
        ("search.class_index_calls", "count", "search.class_index", calls("search.class_index")),
        ("search.psi_classes", "count", "search.class_index.result", count("search.psi_classes")),
        ("search.prepare_s", "s", "search", count("search.prepare_s")),
        ("search.enumerate_s", "s", "search", count("search.enumerate_s")),
        ("search.pool_wait_s", "s", "search", count("search.pool_wait_s")),
    ]
    for f in (1, 2, 4):
        span = f"search.decompose.f{f}"
        m += [
            (f"search.decompose_s.f{f}", "s", "search.decompose", total(span)),
            (f"search.decompose_calls.f{f}", "count", "search.decompose", calls(span)),
        ]
    m += [
        ("search.decompose_hits", "count", "search.decompose", count("search.decompose_hits")),
        ("search.sort_s", "s", "search.sort", total("search.sort")),
        ("search.pool_chunks", "count", "search.pool_chunks", count("search.pool_chunks")),
        ("search.pool_first_chunk_s", "s", "search.pool_first_chunk_s",
         count("search.pool_first_chunk_s")),
        ("tables.reproduce_s", "s", "tables.reproduce", total("tables.reproduce")),
        ("tables.diff_s", "s", "tables.reproduce", own("tables.reproduce")),
        ("tables.verify_calls", "count", "tables.verify_calls", count("tables.verify_calls")),
        ("tuples.serialize_s", "s", "tuples.serialize", total("tuples.serialize")),
        ("tuples.serialize_calls", "count", "tuples.serialize", calls("tuples.serialize")),
        ("cli.main_s", "s", "cli.main", total("cli.main")),
        ("cli.self_s", "s", "cli.main", own("cli.main")),
        ("cli.stdout_bytes", "B", "cli.main",
         lambda L, rec: len(rec["stdout"]) if rec["argv"][0] != "scan" else 0),
        ("theorems.scan_s", "s", "theorems.scan", total("theorems.scan")),
        ("theorems.square_test_s", "s", "theorems.scan", own("theorems.scan")),
        ("theorems.pair_obstruction_s", "s", "theorems.pair_obstruction",
         total("theorems.pair_obstruction")),
        ("theorems.pair_obstruction_calls", "count", "theorems.pair_obstruction",
         calls("theorems.pair_obstruction")),
    ]
    m += [(f"theorems.case.{c}", "count", "theorems.pair_obstruction.result",
           count(f"theorems.case.{c}")) for c in PAIR_CASES]
    m += [(f"theorems.witness.{w}", "count", "theorems.pair_obstruction.result",
           count(f"theorems.witness.{w}")) for w in WITNESS_KINDS]
    m += [
        ("task.setup_s", "s", "", lambda L, rec: rec["setup_s"]),
        ("task.exit_s", "s", "", lambda L, rec: rec["exit_s"]),
    ]
    return m


LAYER_METRICS = _layer_metrics()


def per_layer(traced: list[list[dict]], untraced: list[list[dict]]) -> tuple[dict, dict]:
    """Per-pass means of the traced passes, plus overhead and accounting.

    A task that crashed left no layer record; it is counted as failed and
    left out here.
    """
    tasks = [rec for p in traced for rec in p if rec["layers"]]
    n = len(traced)
    absent = {name for rec in tasks for name in rec["layers"].get("absent", [])}
    values: dict = {}
    for name, _, needs, read in LAYER_METRICS:
        values[name] = "absent" if needs in absent else (
            sum(read(rec["layers"], rec) for rec in tasks) / n)
    calls = sum(values[f"search.decompose_calls.f{f}"] for f in (1, 2, 4)
                if values[f"search.decompose_calls.f{f}"] != "absent")
    hits = values["search.decompose_hits"]
    values["search.decompose_hit_ratio"] = (
        "absent" if hits == "absent" else (hits / calls if calls else 0.0))
    traced_wall = statistics.fmean(sum(rec["wall_s"] for rec in p) for p in traced)
    untraced_wall = statistics.fmean(sum(rec["wall_s"] for rec in p) for p in untraced)
    accounted = sum(
        rec["setup_s"] + rec["exit_s"] + sum(rec["layers"]["self"].values()) for rec in tasks
    ) / n
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.unaccounted_s"] = traced_wall - accounted
    return values, {"traced_passes": n, "untraced_passes": len(untraced), "tasks": len(tasks)}


PER_LAYER_UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS} | {
    "search.decompose_hit_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


# --- environment -------------------------------------------------------------


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_sha": "unknown",
        "git_dirty": "unknown",
        "src_sha256": _tree_digest(SRC),
    }
    if (ROOT / ".git").exists():
        try:
            env["git_sha"] = _git("rev-parse", "HEAD")
            env["git_dirty"] = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            pass
    return env


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=30).stdout.strip()


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# --- main --------------------------------------------------------------------


def prepare(workdir: Path) -> None:
    """Byte-compile the package and import it once, untimed."""
    compileall.compile_dir(str(SRC), quiet=1)
    rec = run_task(("scan", "2"), False, workdir)
    if rec["rc"] != 0:
        raise SystemExit(f"error: psituples does not import: {rec['stderr']}")


def measure(args, expected: dict, workdir: Path) -> dict:
    tasks = WORKLOADS[args.workload]["smoke" if args.smoke else "tasks"]
    rng = random.Random(args.seed)
    verified: dict = {}
    failures: list[dict] = []
    untraced: list[list[dict]] = []
    traced_passes: list[list[dict]] = []
    for i in range(max(2, round(args.seconds / PASS_S))):
        traced = bool(args.trace) and i % 2 == 1
        done = []
        for argv in rng.sample(tasks, len(tasks)):
            rec = run_task(argv, traced, workdir)
            reason = check_task(rec, expected, verified)
            if reason is not None:
                failures.append({"task": task_id(argv), "traced": traced, "reason": reason})
            done.append(rec)
        (traced_passes if traced else untraced).append(done)
    attempted = sum(len(p) for p in untraced + traced_passes)
    if args.trace:
        metrics, samples = per_layer(traced_passes, untraced)
        units = PER_LAYER_UNITS
    else:
        metrics, samples = end_to_end(untraced)
        units = END_TO_END_UNITS
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "samples": samples,
        "tasks": [{"task": task_id(r["argv"]), "traced": bool(r["layers"]),
                   "wall_s": r["wall_s"], "setup_s": r.get("setup_s"), "rss_kb": r["rss_kb"]}
                  for p in untraced + traced_passes for r in p],
    }


def record(workdir: Path) -> int:
    """Run every reference command once, verify it independently, store digests."""
    refs = sorted({reference_id(argv) for w in WORKLOADS.values()
                   for argv in w["tasks"] + w["smoke"]})
    digests, bad = {}, 0
    for ref in refs:
        argv = ref.split()
        rec = run_task(argv, False, workdir)
        reason = f"exit code {rec['rc']}" if rec["rc"] else check_output(argv, rec["stdout"].decode())
        if reason is None and argv[0] == "scan" and not scan_independently(int(argv[1])):
            reason = "independent scan found a pair"
        print(f"{'ok ' if reason is None else 'BAD'} {rec['wall_s']:7.2f}s  {ref}"
              + (f"  ({reason})" if reason else ""), file=sys.stderr)
        bad += reason is not None
        digests[ref] = hashlib.sha256(rec["stdout"]).hexdigest()
    if bad:
        print(f"error: {bad} command(s) failed; expected.json not written", file=sys.stderr)
        return 1
    EXPECTED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny bounds (self-test)")
    parser.add_argument("--record", action="store_true",
                        help="re-record expected.json after verifying every output")
    args = parser.parse_args(argv)
    if not (SRC / "psituples" / "__init__.py").is_file():
        print(f"error: no psituples package under {SRC}", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        workdir = Path(tmp)
        prepare(workdir)
        if args.record:
            return record(workdir)
        if not EXPECTED.is_file():
            print(f"error: {EXPECTED} is missing; run with --record", file=sys.stderr)
            return 2
        result = measure(args, json.loads(EXPECTED.read_text()), workdir)
    result["environment"] = environment() | {"seed": args.seed, "workload": args.workload,
                                             "seconds": args.seconds, "trace": args.trace,
                                             "smoke": args.smoke, "rss_method": RSS_METHOD}
    name = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")
    for metric, m in result["metrics"].items():
        n = result["samples"].get(metric, "")
        print(f"{metric:34s} {m['value']!s:>24} {m['unit']:6s} {f'n={n}' if n != '' else ''}",
              file=sys.stderr)
    print(f"{'failed_frac':34s} {result['failed_frac']:>24} "
          f"({result['failed']}/{result['attempted']})", file=sys.stderr)
    for f in result["failures"][:10]:
        print(f"FAILED {f['task']}: {f['reason']}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
