#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size.

Run from the repository root:

    python3 perfbench/test.py

For each workload it runs `perfbench/run.py --seconds 1`, untraced and
traced, and asserts that the last stdout line is the result object, that
every metric `BENCHMARK.json` names prints with its unit, and that every
check passed (`correct`, no failed op). It also runs one seed twice and
requires the deterministic outputs (digest, SRAM, power, energy) to
repeat exactly. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(lines[-1]), lines


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, _ = run(w["name"], 7, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], f"{w['name']} trace={trace}: {got} != {expected[trace]}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok {w['name']} trace={trace}: {result['attempted']} ops, {len(got)} metrics")

    first, lines_a = run("compile-cold", 3, 0)
    second, lines_b = run("compile-cold", 3, 0)
    digest = lambda lines: [l for l in lines if "digest" in l]
    assert digest(lines_a) == digest(lines_b), (digest(lines_a), digest(lines_b))
    for name in ("sram_kb", "power_mw", "energy_pj"):
        assert first["metrics"][name] == second["metrics"][name], name
    print("ok compile-cold repeats its deterministic outputs")


if __name__ == "__main__":
    main()
