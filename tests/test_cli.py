"""CLI surface: subcommands, formats, exit codes."""

import csv
import faulthandler
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys

import pytest

import psituples
from psituples import InputError, TheoremScan, cli
from psituples.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_expecting_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    capsys.readouterr()
    return exc.value.code


def run_expecting_input_error(capsys, *argv):
    """main returns 2 with nothing on stdout and one `error: ` line on
    stderr: the InputError of the function that refused the value."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return code


# --- psi ---------------------------------------------------------------------


def test_psi_command(capsys):
    assert run(capsys, "psi", "1")[:2] == (0, "1\n")
    assert run(capsys, "psi", "538")[:2] == (0, "810\n")


def test_psi_rejects_zero(capsys):
    assert run_expecting_input_error(capsys, "psi", "0") == 2


# --- search -------------------------------------------------------------------


def test_search_pair_is_empty(capsys):
    code, out, _ = run(capsys, "search", "--kind", "quadratic-pair",
                       "--bound", "100000", "--jobs", "1")
    assert code == 0 and out == ""


def test_search_csv_includes_first_quintuple(capsys):
    code, out, _ = run(capsys, "search", "--kind", "cubic-quintuple",
                       "--bound", "96", "--format", "csv", "--jobs", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:2] == ["name", "power"]
    assert ["cubic-quintuple", "3", "6", "9", "9", "3", "3"] == rows[1][:7]


def test_search_explicit_signature(capsys):
    code, out, _ = run(capsys, "search", "--power", "3", "--equal", "2",
                       "--free", "2", "--bound", "64", "--jobs", "1")
    assert code == 0
    found = [tuple(json.loads(line)["equal_entries"]) + tuple(json.loads(line)["free_entries"])
             for line in out.splitlines()]
    assert (14, 16, 5, 19) in found
    assert (28, 32, 10, 38) in found


def test_search_rejects_unsafe_bound(capsys, monkeypatch):
    # the plan-time memory check's InputError exits 2 like a usage error; the
    # budget is fixed at that of a machine with 4 GiB available, so that the
    # search is refused on any machine
    monkeypatch.setattr(importlib.import_module("psituples.arith"), "_memory_budget",
                        lambda: 2**31)
    code, out, err = run(capsys, "search", "--kind", "quintic-quintuple", "--bound", "99999999")
    assert code == 2 and out == ""
    assert err.startswith("error: a search to bound 99999999 needs ")
    assert "over the memory budget of 2147483648 bytes" in err


def test_search_rejects_unknown_kind(capsys):
    assert run_expecting_input_error(
        capsys, "search", "--kind", "sextic", "--bound", "10"
    ) == 2


@pytest.mark.parametrize("argv", [
    ("search", "--kind", "cubic-triple", "--bound", "0"),
    ("search", "--kind", "cubic-triple", "--bound", "10", "--jobs", "0"),
    ("table", "--id", "6", "--bound", "0"),
    ("search", "--power", "6", "--equal", "1", "--free", "2", "--bound", "10"),
    ("verify", "--kind", "cubic-triple", "--equal-entries", "0,1", "--free-entries", "2,3"),
], ids=["bound-0", "jobs-0", "table-bound-0", "power-6", "verify-entry-0"])
def test_invalid_values_are_input_errors(capsys, argv):
    assert run_expecting_input_error(capsys, *argv) == 2


def test_search_kind_and_signature_conflict(capsys):
    assert run_expecting_usage_error(
        capsys, "search", "--kind", "cubic-triple", "--power", "3",
        "--equal", "1", "--free", "2", "--bound", "10",
    ) == 2


@pytest.mark.parametrize("argv, message", [
    (("search", "--bound", "5"), "need --kind NAME or all of --power/--equal/--free"),
    (("verify", "--kind", "cubic-triple", "--power", "3", "--equal-entries", "4",
      "--free-entries", "3,5"), "give either --kind or --power/--equal/--free, not both"),
], ids=["search-no-kind", "verify-kind-and-power"])
def test_kind_usage_errors_name_the_subcommand(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith(f"usage: psituples {argv[0]} ")
    assert err.endswith(f"psituples {argv[0]}: error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("--power", "2", "--equal", "12", "--free", "1", "--bound", "100000"),
    ("--power", "2", "--equal", "20", "--free", "1", "--bound", "100000"),
    ("--power", "5", "--equal", "20", "--free", "1", "--bound", "3000"),
], ids=["square-12-equal", "square-20-equal", "quintic-20-equal"])
def test_search_too_many_multisets_is_refused(capsys, argv):
    # their counts would wrap int64, or one entry's multisets fill one block
    # past the memory budget: refused at plan time, not searched to nothing
    assert run_expecting_input_error(capsys, "search", *argv) == 2


def test_search_json_round_trips_through_verify(capsys):
    code, out, _ = run(capsys, "search", "--kind", "cubic-triple",
                       "--bound", "64", "--jobs", "1")
    assert code == 0 and out
    for line in out.splitlines():
        obj = json.loads(line)
        code, _, _ = run(
            capsys, "verify", "--kind", "cubic-triple",
            "--equal-entries", ",".join(map(str, obj["equal_entries"])),
            "--free-entries", ",".join(map(str, obj["free_entries"])),
        )
        assert code == 0


def test_search_csv_and_json_agree(capsys):
    _, json_out, _ = run(capsys, "search", "--kind", "quadratic-quadruple",
                         "--bound", "100", "--jobs", "1")
    _, csv_out, _ = run(capsys, "search", "--kind", "quadratic-quadruple",
                        "--bound", "100", "--format", "csv", "--jobs", "1")
    from_json = [
        tuple(json.loads(line)["equal_entries"]) + tuple(json.loads(line)["free_entries"])
        for line in json_out.splitlines()
    ]
    rows = list(csv.reader(io.StringIO(csv_out)))[1:]
    from_csv = [tuple(int(c) for c in row[2:6]) for row in rows]
    assert from_json == from_csv


def test_search_without_jobs_forks_no_child(capsys, monkeypatch, forks):
    # four usable CPUs and a search of several chunks: only --jobs forks
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    argv = ("search", "--kind", "quadratic-triple", "--bound", "4096")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out and forks == []
    assert run(capsys, *argv, "--jobs", "2") == (0, out, "") and len(forks) == 1


def test_search_emit_partial_streams_progress(capsys):
    code, out, err = run(capsys, "search", "--kind", "cubic-triple",
                         "--bound", "64", "--jobs", "1", "--emit-partial")
    assert code == 0
    assert "chunk" in err
    _, plain, _ = run(capsys, "search", "--kind", "cubic-triple",
                      "--bound", "64", "--jobs", "1")
    assert out == plain  # stdout stays deterministic


@pytest.mark.parametrize("argv", [
    ("--kind", "quadratic-triple", "--bound", "4096"),
    ("--kind", "quadratic-quadruple", "--bound", "500", "--format", "csv"),
    ("--kind", "quadratic-pair", "--bound", "3000"),
    ("--kind", "cubic-quintuple", "--bound", "300", "--format", "csv"),
    ("--kind", "cubic-triple", "--bound", "800"),
    ("--kind", "quartic-quintuple", "--bound", "450"),
])
def test_search_jobs_one_and_two_byte_identical(capsys, argv):
    code1, out1, _ = run(capsys, "search", *argv, "--jobs", "1")
    code2, out2, _ = run(capsys, "search", *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_crashed_worker_exit_four(capsys, monkeypatch):
    pool_module = importlib.import_module("psituples.pool")

    def crash(*args):
        os._exit(1)

    monkeypatch.setattr(pool_module, "_init_worker", crash)
    code, out, err = run(capsys, "search", "--kind", "quartic-quintuple",
                         "--bound", "100", "--jobs", "2")
    assert code == 4
    assert out == ""
    assert err.startswith("error: a search worker process died")


def _die(*args):
    # module level, so that the pool can pickle it by name
    os._exit(1)


def test_search_crashed_mid_chunk_exit_four(capsys, monkeypatch):
    # the worker dies on its first chunk while this process runs its own
    pool_module = importlib.import_module("psituples.pool")
    monkeypatch.setattr(pool_module, "_run_chunk", _die)
    faulthandler.dump_traceback_later(120, exit=True, file=sys.__stderr__)  # no hang
    try:
        code, out, err = run(capsys, "search", "--kind", "quartic-quintuple",
                             "--bound", "450", "--jobs", "2")
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert code == 4
    assert out == ""
    assert err.startswith("error: a search worker process died")


@pytest.mark.parametrize("argv", [
    ("--power", "3", "--equal", "2", "--free", "3", "--bound", "100"),
    ("--power", "4", "--equal", "2", "--free", "4", "--bound", "60"),
    ("--kind", "quartic-quintuple", "--bound", "450", "--format", "csv"),
    ("--kind", "quintic-quintuple", "--bound", "200"),
])
def test_search_class_and_range_chunks_jobs_one_two_three(capsys, argv):
    # ('classes', ...) chunks for the first two, ('range', ...) for the rest
    outs = set()
    for jobs in ("1", "2", "3"):
        code, out, _ = run(capsys, "search", *argv, "--jobs", jobs)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1 and outs.pop()


@pytest.mark.parametrize("argv", [
    ("--kind", "quadratic-triple", "--bound", "4096"),
    ("--kind", "cubic-quintuple", "--bound", "300", "--format", "csv"),
    ("--kind", "quartic-quintuple", "--bound", "600"),
    ("--power", "3", "--equal", "2", "--free", "3", "--bound", "100"),
    ("--kind", "quadratic-triple", "--bound", "65536"),
    ("--kind", "quadratic-quadruple", "--bound", "8000"),
])
def test_search_one_two_three_processes_byte_identical(capsys, monkeypatch, forks, argv):
    # f = 1 and 2 split in int64, then f = 4 and f = 3 residuals one at a
    # time, and f = 1 again over many blocks of the uint32 class runs; four
    # usable CPUs, so that --jobs 3 runs 3 processes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    outs = set()
    faulthandler.dump_traceback_later(120, exit=True, file=sys.__stderr__)  # no hang
    try:
        for jobs in (1, 2, 3):
            del forks[:]
            code, out, _ = run(capsys, "search", *argv, "--jobs", str(jobs))
            assert code == 0 and len(forks) == jobs - 1
            outs.add(out)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert len(outs) == 1 and outs.pop()


def test_search_chunks_inside_one_entry_byte_identical(capsys, monkeypatch, forks):
    # the largest entry of (2, 6, 1) to 1000 starts 169911 multisets, more
    # than a chunk of --jobs 2 (3615746 multisets in 32 chunks), so a chunk
    # edge falls inside that entry's multisets
    search_module = importlib.import_module("psituples.search")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    kind = psituples.TupleKind(2, 6, 1)
    runs = search_module._build_class_runs(1000, kind)
    edges = {lo for lo, _ in search_module._plan_chunks(runs, 2)}
    assert edges - set(runs.tuple_start.tolist())
    argv = ("search", "--power", "2", "--equal", "6", "--free", "1", "--bound", "1000")
    outs = set()
    for jobs in (1, 2, 3):
        del forks[:]
        code, out, _ = run(capsys, *argv, "--jobs", str(jobs))
        assert code == 0 and len(forks) == jobs - 1
        outs.add(out)
    assert len(outs) == 1
    assert hashlib.sha256(outs.pop().encode()).hexdigest()[:12] == "69ad85961975"


def test_search_internal_value_error_is_not_exit_two(monkeypatch):
    # only an InputError is the user's fault; an internal ValueError, here
    # from the batched kernel, propagates
    search_module = importlib.import_module("psituples.search")

    def broken(*args):
        raise ValueError("need at least one array to concatenate")

    monkeypatch.setattr(search_module, "_search_runs", broken)
    with pytest.raises(ValueError, match="concatenate") as exc:
        main(["search", "--kind", "quadratic-triple", "--bound", "4096", "--jobs", "1"])
    assert not isinstance(exc.value, InputError)
    assert issubclass(InputError, ValueError)


def test_search_child_exception_is_raised_in_the_parent(monkeypatch):
    # the same fault in a forked child only: the command raises it, as
    # --jobs 1 would, instead of reporting a dead worker
    search_module = importlib.import_module("psituples.search")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, runs = os.getpid(), search_module._search_runs

    def broken_in_child(*args):
        if os.getpid() != parent:
            raise ValueError("need at least one array to concatenate")
        return runs(*args)

    monkeypatch.setattr(search_module, "_search_runs", broken_in_child)
    with pytest.raises(ValueError, match="concatenate") as exc:
        main(["search", "--kind", "quadratic-triple", "--bound", "4096", "--jobs", "2"])
    assert not isinstance(exc.value, InputError)


def test_search_emit_partial_in_chunk_order_with_pool(capsys):
    code, out, err = run(capsys, "search", "--kind", "quadratic-triple",
                         "--bound", "16384", "--jobs", "2", "--emit-partial")
    assert code == 0
    lines = err.splitlines()
    total = len(lines)
    assert total > 1
    counts = []
    for i, line in enumerate(lines, start=1):
        head, tail = line.split(": ")
        assert head == f"# chunk {i}/{total}"
        counts.append(int(tail.split()[0]))
    assert sum(counts) == len(out.splitlines()) > 0


# --- verify --------------------------------------------------------------------


def test_verify_published_quintic_row(capsys):
    code, out, _ = run(
        capsys, "verify", "--kind", "quintic-quintuple",
        "--equal-entries", "1139", "--free-entries", "323,731,782,799",
    )
    assert code == 0
    assert "ok:          True" in out


def test_verify_failure_exit_one(capsys):
    code, out, _ = run(
        capsys, "verify", "--kind", "quadratic-pair",
        "--equal-entries", "3", "--free-entries", "2",
    )
    assert code == 1
    assert "discrepancy: 3" in out


def test_verify_wrong_arity(capsys):
    assert run_expecting_input_error(
        capsys, "verify", "--kind", "quadratic-pair",
        "--equal-entries", "3,4", "--free-entries", "2",
    ) == 2


# --- table ----------------------------------------------------------------------


def test_table_one_bounded(capsys):
    code, out, _ = run(capsys, "table", "--id", "1", "--bound", "1024")
    assert code == 0
    assert "MATCHED (10)" in out
    assert "MISSING (0)" in out


def test_table_six_bounded(capsys):
    code, out, _ = run(capsys, "table", "--id", "6", "--bound", "600", "--jobs", "2")
    assert code == 0
    assert "MATCHED (1)" in out
    assert "(538, 96, 532, 548, 648)" in out
    assert "OUT-OF-BOUND, verified arithmetically (5)" in out
    assert "FAILED" not in out


def test_table_three_bounded(capsys):
    code, out, _ = run(capsys, "table", "--id", "3", "--bound", "432")
    assert code == 0
    assert "MATCHED (45)" in out
    assert "(1615, 1065, 1670) -> ok" in out


def test_table_jobs_help(capsys):
    with pytest.raises(SystemExit):
        main(["table", "--help"])
    assert "parallel workers (default: 1)" in " ".join(capsys.readouterr().out.split())


def test_search_jobs_help(capsys):
    with pytest.raises(SystemExit):
        main(["search", "--help"])
    assert "parallel workers (default: 1)" in " ".join(capsys.readouterr().out.split())


def test_table_rejects_bad_id(capsys):
    assert run_expecting_usage_error(capsys, "table", "--id", "9") == 2


# --- reports ----------------------------------------------------------------------


def test_obstruct_command(capsys):
    code, out, _ = run(capsys, "obstruct", "8")
    assert code == 0
    assert "case:  PowerOfTwo" in out
    assert "v1:    5" in out


def test_obstruct_rejects_one(capsys):
    assert run(capsys, "obstruct", "1")[0] == 2


def test_theorem1_limit_past_the_kernel_is_refused_before_the_sieve(capsys, monkeypatch):
    def fail(limit):
        raise AssertionError("sieve built for a refused limit")

    monkeypatch.setattr(importlib.import_module("psituples.theorems"), "build_sieve", fail)
    code, _, err = run(capsys, "theorem1", str(2**32))
    assert code == 2 and "2**32" in err


def test_theorem1_sieve_over_the_memory_budget_exits_2(capsys, monkeypatch):
    # the scan builds psi one segment at a time; a segment peaks at 13 B per
    # x, and below 5.3e5 a segment is 32768 x: 425984 bytes
    arith = importlib.import_module("psituples.arith")
    monkeypatch.setattr(arith, "_memory_budget", lambda: 425983)
    code, out, err = run(capsys, "theorem1", "100000")
    assert code == 2 and out == ""
    assert "[2, 32770) needs 425984 bytes, over the memory budget of 425983 bytes" in err
    monkeypatch.setattr(arith, "_memory_budget", lambda: 425984)
    code, out, _ = run(capsys, "theorem1", "100000")
    assert code == 0 and out.startswith("checked:  99999\nfailures: []\n")


def test_theorem1_command(capsys, monkeypatch):
    code, out, _ = run(capsys, "theorem1", "100")
    assert code == 0
    assert out.splitlines() == [
        "checked:  99",
        "failures: []",
        "cases:",
        "  PowerOfTwo:         6",
        "  OddOnly:            49",
        "  TwoThree:           9",
        "  TwoTimesPrimePower: 27",
        "  General:            8",
    ]
    assert run(capsys, "theorem1", "1")[0] == 2
    monkeypatch.setattr(cli, "verify_theorem1", lambda limit: TheoremScan(limit - 1, (4,)))
    code, out, _ = run(capsys, "theorem1", "10")
    assert code == 1 and "failures: [4]" in out


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "10")
    assert code == 0
    assert "branch: MixedBranch" in out
    assert "H:      124" in out and "12 mod 16" in out


def test_family_command(capsys):
    assert run(capsys, "family", "--k", "5")[:2] == (0, "(32, 32, 16)\n")


def test_family_rejects_out_of_range(capsys):
    assert run(capsys, "family", "--k", "0")[0] == 2
    assert run(capsys, "family", "--k", "63")[0] == 2


# --- recorded stdout ------------------------------------------------------------


@pytest.mark.parametrize("argv, digest", [
    (("theorem1", "200000"), "e67c5a93d928"),
    (("table", "--id", "6"), "419daf1b4d36"),
    (("obstruct", "26"), "acd4b5f5f845"),
    (("table", "--id", "7", "--bound", "1139", "--jobs", "2"), "4b85bda95d77"),
], ids=["theorem1-200000", "table-6", "obstruct-26", "table-7-1139"])
def test_stdout_matches_its_recorded_digest(capsys, argv, digest):
    # the first 12 hex digits of the SHA-256 of stdout, as recorded
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == digest


# --- the frozen import-time heap -----------------------------------------------


def python(*args):
    """Run this Python with the psituples under test importable."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(psituples.__file__)))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_command_line_import_leaves_csv_out():
    # csv serves only --format csv, and is imported there
    assert python("-c", "import sys, psituples.cli; print('csv' in sys.modules)") == "False\n"


def test_only_the_command_line_freezes_the_heap():
    probe = "import gc, {}; print(gc.get_freeze_count())"
    assert int(python("-c", probe.format("psituples"))) == 0
    assert int(python("-c", probe.format("psituples.cli"))) > 0


def test_frozen_heap_pool_output_matches_serial():
    argv = ["-m", "psituples.cli", "search", "--kind", "quintic-quintuple", "--bound", "300"]
    serial = python(*argv, "--jobs", "1")
    assert serial and serial == python(*argv, "--jobs", "2")
