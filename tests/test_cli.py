"""CLI surface: subcommands, formats, exit codes."""

import csv
import faulthandler
import importlib
import io
import json
import os
import sys

import pytest

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


# --- psi ---------------------------------------------------------------------


def test_psi_command(capsys):
    assert run(capsys, "psi", "1")[:2] == (0, "1\n")
    assert run(capsys, "psi", "538")[:2] == (0, "810\n")


def test_psi_rejects_zero(capsys):
    assert run_expecting_usage_error(capsys, "psi", "0") == 2


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


def test_search_rejects_unsafe_bound(capsys):
    code = run_expecting_usage_error(
        capsys, "search", "--kind", "quintic-quintuple", "--bound", "99999999"
    )
    assert code == 2


def test_search_rejects_unknown_kind(capsys):
    assert run_expecting_usage_error(
        capsys, "search", "--kind", "sextic", "--bound", "10"
    ) == 2


def test_search_kind_and_signature_conflict(capsys):
    assert run_expecting_usage_error(
        capsys, "search", "--kind", "cubic-triple", "--power", "3",
        "--equal", "1", "--free", "2", "--bound", "10",
    ) == 2


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
    search_module = importlib.import_module("psituples.search")

    def crash(*args):
        os._exit(1)

    monkeypatch.setattr(search_module, "_init_worker", crash)
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
    search_module = importlib.import_module("psituples.search")
    monkeypatch.setattr(search_module, "_run_chunk", _die)
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
])
def test_search_one_two_three_processes_byte_identical(capsys, monkeypatch, forks, argv):
    # ('runs', ...) chunks for the first two, then ('range', ...) and
    # ('classes', ...); four usable CPUs, so that --jobs 3 runs 3 processes
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
    assert run_expecting_usage_error(
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
