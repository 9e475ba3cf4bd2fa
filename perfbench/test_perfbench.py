"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import formulas  # noqa: E402
import workloads  # noqa: E402
from finabel import counting, errors, functions, grouptype  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


SPEC = load(os.path.join(ROOT, "BENCHMARK.json"))
EXPECTED = load(os.path.join(HERE, "expected.json"))


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_and_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.NAMES)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


def test_type_strings_match_the_library():
    ours = formulas.types_up_to(64)
    theirs = [str(T) for T in grouptype.types_up_to(64)]
    assert sorted(ours) == sorted(theirs)


def test_formulas_agree_with_the_library():
    assert formulas.gl_order(3, 2) == 168 == counting.aut_count(grouptype.canonicalize([2, 2, 2]))
    F25 = grouptype.canonicalize([2] * 5)
    for k in range(6):
        Fk = grouptype.canonicalize([2] * k)
        assert counting.sub_count(Fk, F25) == formulas.gaussian(5, k, 2)
    types = list(grouptype.types_up_to(32))
    for A in types:
        assert str(counting.aut_count(A)) == formulas.formula_value(f"aut|{A}")
        assert str(functions.phi(A)) == formulas.formula_value(f"f:phi|{A}")
        for B in types:
            assert counting.hom_count(A, B) == formulas.hom_count(str(A), str(B))


def test_probes_are_refused_or_answered_correctly():
    refused = 0
    for key in workloads.probe_keys():
        kind, *args = key.split("|")
        groups = [grouptype.parse_group_spec(a) for a in args]
        call = {
            "aut": counting.aut_count,
            "sub": counting.sub_count,
            "profile": counting.subgroup_order_profile,
        }.get(kind) or functions.builtin_function(kind[2:])
        try:
            got = workloads.answer_string(call(*groups))
        except errors.BoundExceededError:
            refused += 1
            continue
        assert got == formulas.formula_value(key), key
    assert refused == 12


def test_expected_answers_agree_with_closed_forms():
    assert workloads.consistency_problems(EXPECTED) == []


def test_query_stream_is_seeded_and_covered():
    keys = workloads.query_keys(3)
    assert keys == workloads.query_keys(3) != workloads.query_keys(4)
    assert len(keys) == workloads.QUERY_COUNT + len(workloads.probe_keys())
    answers = EXPECTED["query-session"]["answers"]
    probes = set(workloads.probe_keys())
    for key in keys:
        if key not in probes and not key.startswith("hom|"):
            assert key in answers, key


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_listed_metric_is_reported(trace, section):
    proc = run_bench("query-session", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("query-session", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_times_are_scaled_by_the_calibration_loop():
    proc = run_bench("query-session", 0)
    assert proc.returncode == 0, proc.stderr
    scale = float(re.search(r"scaled by (\S+)$", proc.stdout, re.M)[1])
    raw_wall = float(re.search(r"^raw, unscaled: .* wall_s (\S+) s$", proc.stdout, re.M)[1])
    wall = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["wall_s"]["value"]
    assert 0.2 < scale < 5
    assert wall == pytest.approx(raw_wall * scale, rel=1e-3)
