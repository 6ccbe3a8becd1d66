#!/usr/bin/env python3
"""Contract check for the server benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Takes a few minutes: it builds the benchmark
and makes short runs. It checks that:
  - two seeds of analytics both pass, record their seed, and generate
    different inputs;
  - the untraced run prints exactly the end-to-end metrics of
    BENCHMARK.json, with their units, and a traced run of each workload
    exactly the per-layer metrics;
  - a directory holding only BENCHMARK.json and perfbench/ (no sources)
    fails with a non-zero exit and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, seed, trace, seconds=3, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_result(lines, expected):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, (sorted(set(got) ^ set(want)), got, want)
    return json.loads(lines[-2])["report"]


def main():
    reports = []
    for seed in (1, 2):
        code, lines, err = run("analytics", seed, 0)
        assert code == 0, err[-2000:]
        report = check_result(lines, SPEC["end_to_end"])
        assert report["seed"] == seed, report
        reports.append(report)
    assert reports[0]["trace_digest"] != reports[1]["trace_digest"]
    print("selftest: two seeds pass with different inputs")

    for workload in ("analytics", "mixed"):
        code, lines, err = run(workload, 3, 1)
        assert code == 0, err[-2000:]
        check_result(lines, SPEC["per_layer"])
    print("selftest: traced runs print every per-layer metric")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    code, lines, _ = run("analytics", 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not any(line.startswith("{") for line in lines)
    print("selftest: fails without the sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
