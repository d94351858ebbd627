"""Self-test of the benchmark: python -m pytest perfbench/test_perfbench.py

Smoke runs use tiny bounds, so the whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
from check import check_output, check_table, psi_trial
from layers import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    out = json.loads(stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    rc, stdout = bench(ROOT, "--workload", workload, "--seed", "3", "--trace", trace)
    out = result(stdout)
    assert rc == 0 and out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end" if trace == "0" else "per_layer"]}
    assert {k: m["unit"] for k, m in out["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
    if trace == "0":
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def copy_benchmark(tmp_path: Path, with_src: bool) -> Path:
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_corrupted_digest_fails_the_run(tmp_path):
    root = copy_benchmark(tmp_path, with_src=True)
    expected_file = root / "perfbench" / "expected.json"
    expected = json.loads(expected_file.read_text())
    expected["search --kind quadratic-triple --bound 300 --jobs 1"] = "0" * 64
    expected_file.write_text(json.dumps(expected))
    rc, stdout = bench(root, "--workload", "equal-class", "--seed", "1", "--trace", "0")
    out = result(stdout)
    assert rc != 0 and not out["correct"] and out["failed"] > 0
    record = json.loads((root / ".bench_results" / "equal-class-smoke-seed1-trace0.json").read_text())
    assert record["failed_frac"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    root = copy_benchmark(tmp_path, with_src=False)
    rc, stdout = bench(root, "--workload", "equal-class", "--seed", "1", "--trace", "0")
    assert rc != 0 and stdout == ""


def test_independent_checks_reject_wrong_rows():
    assert [psi_trial(n) for n in (1, 2, 12, 538)] == [1, 3, 24, 810]
    good = '{"kind":{"power":2,"equal":2,"free":1,"name":"quadratic-triple"},' \
           '"equal_entries":[2,2],"free_entries":[1],"psi":3,"target":"9"}'
    argv = ["search", "--kind", "quadratic-triple"]
    assert check_output(argv, good) is None
    assert check_output(argv, good.replace("[1]", "[2]")) is not None
    table = "table 3 (cubic-triple), bound 10\nMATCHED (1):\n  (4, 3, 5)\nEXTRA (0):\n" \
            "MISSING ({n}):\n{missing}OUT-OF-BOUND, verified arithmetically (0):\n"
    assert check_table(table.format(n=0, missing="")) is None
    assert check_table(table.format(n=1, missing="  (5, 3, 4)\n")) == "MISSING (1)"
    assert check_table(table.format(n=0, missing="").replace("(4, 3, 5)", "(4, 3, 6)"))


def test_missing_traced_name_is_reported_absent():
    tracer = Tracer()
    tracer.patch("psituples.search", "no_such_function", "search.sort")
    assert tracer.report()["absent"] == ["search.sort", "search.sort.result"]
    layers = {"total": {}, "self": {}, "calls": {}, "counts": {}, "absent": ["search.sort"]}
    rec = {"argv": ["scan", "2"], "stdout": b"", "wall_s": 1.0, "setup_s": 0.5,
           "exit_s": 0.1, "layers": layers}
    values, _ = run.per_layer([[rec]], [[rec]])
    assert values["search.sort_s"] == "absent"
    assert values["arith.build_sieve_s"] == 0.0


def test_changed_result_shape_makes_its_counters_absent():
    tracer = Tracer()
    sieve = tracer._sieve(lambda limit: object())  # a result without .limit
    sieve(10)
    report = tracer.report()
    assert report["absent"] == ["arith.build_sieve.result"]
    assert report["calls"] == {"arith.build_sieve": 1}
