#!/usr/bin/env python3
"""Self-test of the whole-grid benchmark.

    python3 gridbench/selftest.py

Run from the repository root. It checks that:
  * a tiny-size pass of every workload, untraced and traced, passes its
    outcome checks and prints exactly the metric names and units that
    BENCHMARK.json declares;
  * a deliberately wrong expected outcome (a Figure 3 artifact whose
    reference row is off by one step) makes the command fail;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the command fails without printing a result.
Exit code 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402  (the benchmark's own module, for its build dir)

failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def invoke(args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable,
                           os.path.join(cwd, "gridbench", "run.py")] + args,
                          cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[section]}, spec


def main():
    e2e, spec = declared("end_to_end")
    layers, _ = declared("per_layer")
    names = [w["name"] for w in spec["workloads"]]
    expect(sorted(names) == sorted(run.WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")

    for workload in run.WORKLOADS:
        for trace, want in ((0, e2e), (1, layers)):
            code, result, proc = invoke(
                ["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"])
            label = f"{workload} tiny --trace {trace}"
            expect(code == 0 and result is not None,
                   f"{label}: exits 0 with a result"
                   + ("" if code == 0 else f" (exit {code}: {proc.stderr[-500:]})"))
            if result is None:
                continue
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result has exactly the keys correct, attempted, failed, metrics")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label}: outcome checks pass")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want,
                   f"{label}: every declared metric printed with its unit")
            if trace == 0:
                expect(all(v["value"] != 0 for v in result["metrics"].values()),
                       f"{label}: no end-to-end metric reads 0")

    # A wrong expectation must fail the run: shift the reference row by one.
    artifact = os.path.join(ROOT, "BENCH_fig3_scalability.json")
    with open(artifact) as f:
        doc = json.load(f)
    for row in doc["series"]:
        if row["resources"] == 256:
            row["steps_to_recall"] += 1
    os.makedirs(run.build_dir(), exist_ok=True)
    wrong = os.path.join(run.build_dir(), "selftest_wrong_fig3.json")
    with open(wrong, "w") as f:
        json.dump(doc, f)
    code, result, _ = invoke(["--workload", "scale_plain", "--seed", "0",
                              "--seconds", "1", "--trace", "0", "--size", "tiny",
                              "--fig3-artifact", wrong])
    expect(code != 0 and result is not None and result["correct"] is False
           and result["failed"] > 0,
           "a wrong expected outcome makes the command fail")

    # Without the repository's sources the benchmark cannot build: it must
    # fail and print no result.
    bare = os.path.join(run.build_dir(), "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    code, result, _ = invoke(["--workload", "quest_arm", "--seed", "0",
                              "--seconds", "1", "--trace", "0"], cwd=bare, env=env)
    expect(code != 0 and result is None,
           "without the sources: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
