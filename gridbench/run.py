#!/usr/bin/env python3
"""Whole-grid benchmark of kgrid: build, run one workload, check, report.

    python3 gridbench/run.py --workload scale_plain --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and compiles the
benchmark (gridbench/CMakeLists.txt, which builds the kgrid libraries from
src/) into .bench_build/gridbench, or into $CARGO_TARGET_DIR/gridbench when
that is set; later calls only rebuild what changed.

--workload   scale_plain | quest_arm | live_paillier, or `all` for the three
             in turn
--seed       draws the grid's secrets (keys, share tables, per-resource
             randomness); data, overlay and delays are each figure
             experiment's own, see README.md
--seconds    measuring budget of one run (repetitions stop after it)
--trace      0: end-to-end metrics, untraced; 1: per-layer metrics from
             traced repetitions, plus the tracing overhead
--size       full (default) or tiny, the self-test's quick sizes
--threads    override the executor lanes (defaults: scale_plain 1,
             quest_arm 1, live_paillier min(4, nproc))
--fig3-artifact  the Figure 3 artifact scale_plain's cells are checked
             against (default: BENCH_fig3_scalability.json at the
             repository root)

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
when every outcome check passed, 1 when one failed, 2 when the benchmark
could not run (build failure, crash, bad arguments).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scale_plain", "quest_arm", "live_paillier")

# End-to-end metrics: name -> unit. Printed by every --trace 0 run.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "msgs_per_s": "1/s",
    "steps_to_recall": "steps",
    "recall": "ratio",
    "precision": "ratio",
    "msg_latency_p50_ms": "ms",
    "msg_latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer span self times: metric -> span name recorded by gridbench.cpp.
SPAN_METRICS = {
    "data.env_build_s": "data.env_build",
    "net.topology_s": "net.topology",
    "core.grid_ctor_s": "core.grid_ctor",
    "arm.reference_s": "arm.reference",
    "core.run_steps_s": "core.run_steps",
    "core.recall_eval_s": "core.recall_eval",
}

# Per-layer counters (from the traced repetitions): metric -> unit.
COUNTER_METRICS = {
    "crypto.paillier.keygens": "count",
    "arm.reference_rules": "count",
    "core.broker.messages_out": "count",
    "core.broker.edge_evaluations": "count",
    "core.broker.candidates_registered": "count",
    "core.controller.sfe_sends": "count",
    "core.controller.sfe_outputs": "count",
    "core.controller.sends_granted": "count",
    "core.controller.gate_reveals": "count",
    "core.controller.detections": "count",
    "core.accountant.replies": "count",
    "core.grant_ratio": "ratio",
    "core.monitor_grants": "count",
    "core.monitor_violations": "count",
    "crypto.hom.encrypts": "count",
    "crypto.hom.decrypts": "count",
    "crypto.hom.adds": "count",
    "crypto.hom.rerandomizes": "count",
    "sim.events_processed": "count",
    "sim.timers_fired": "count",
    "sim.events_per_s": "1/s",
    "sim.queue.pushes": "count",
    "sim.queue.max_depth": "count",
    "sim.queue.resizes": "count",
    "sim.event_pool.max_in_use": "count",
    "sim.event_pool.overflow": "count",
    "sim.timer_wheel.cascades": "count",
    "sim.shard.windows": "count",
    "sim.shard.mailbox_events": "count",
    "sim.shard.max_skew": "count",
    "sim.executor.jobs": "count",
    "sim.executor.batches": "count",
    "sim.executor.batch_items": "count",
    "sim.executor.busy_s": "s",
    "sim.executor.wait_s": "s",
    "crypto.paillier.modexps": "count",
    "crypto.paillier.batch_modexps": "count",
    "crypto.paillier.mont_muls": "count",
    "crypto.modexps_per_msg": "count/msg",
    "crypto.pool.hit_ratio": "ratio",
    "net.live.frames_out": "count",
    "net.live.bytes_out": "bytes",
    "net.live.coalesced_frames": "count",
    "net.live.backpressure_stalls": "count",
    "net.live.bytes_per_frame": "bytes/frame",
}

PER_LAYER = {**{m: "s" for m in SPAN_METRICS}, **COUNTER_METRICS,
             "trace.overhead_frac": "ratio"}


class BenchError(Exception):
    """The benchmark could not produce a result (exit code 2)."""


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "gridbench")


def build(jobs):
    """Configure once, then bring the binary up to date; return its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(jobs)])
    with open(logfile, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                with open(logfile) as g:
                    tail = g.read()[-4000:]
                raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}")
    return os.path.join(out, "gridbench")


def run_binary(binary, args, workload):
    cmd = [binary, f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--size={args.size}"]
    if args.threads is not None:
        cmd.append(f"--threads={args.threads}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: gridbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: gridbench printed nothing")
    return json.loads(lines[-1])


# -- Outcome checks ------------------------------------------------------------

def fig3_rows(path, resources):
    """(significance -> (steps, messages)) of the artifact's row at n."""
    try:
        with open(path) as f:
            artifact = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read Figure 3 artifact {path}: {e}")
    return {round(r["significance"], 6): (r["steps_to_recall"],
                                          r["messages_delivered"])
            for r in artifact.get("series", []) if r["resources"] == resources}


def check(data, fig3_artifact):
    """Return (attempted, failed, problems) for one workload's raw output."""
    workload = data["workload"]
    reps = data["reps"]
    problems = []
    attempted = failed = 0

    # Every repetition runs the same inputs, so outcomes must repeat.
    outcomes = {json.dumps([(c["steps_to_recall"], c["messages_delivered"])
                            for c in r["cells"]]) for r in reps}
    if len(outcomes) > 1:
        problems.append(f"repetitions disagree on outcomes: {sorted(outcomes)}")

    if workload == "scale_plain":
        cells = [c for r in reps for c in r["cells"]]
        expected = fig3_rows(fig3_artifact, cells[0]["resources"]) if cells else {}
        for cell in cells:
            attempted += 1
            bad = []
            if not cell["converged"]:
                bad.append("did not reach 98% recall within 400 steps")
            want = expected.get(round(cell["significance"], 6))
            got = (cell["steps_to_recall"], cell["messages_delivered"])
            if want is None:
                bad.append("no Figure 3 row to compare with")
            elif tuple(want) != got:
                bad.append(f"steps/messages {got} != Figure 3 row {tuple(want)}")
            if bad:
                failed += 1
                problems.append(f"cell n={cell['resources']} "
                                f"sig={cell['significance']}: " + "; ".join(bad))
    elif workload == "quest_arm":
        for r in reps:
            attempted += 1
            c = r["cells"][0]
            bad = []
            if c["recall"] < 0.9:
                bad.append(f"recall {c['recall']:.4f} < 0.9")
            if c["monitor_violations"] != 0:
                bad.append(f"{c['monitor_violations']} k-TTP monitor violations")
            if bad:
                failed += 1
                problems.append("quest_arm: " + "; ".join(bad))
    elif workload == "live_paillier":
        for r in reps:
            c = r["cells"][0]
            attempted += c["frames_out"]
            lost = abs(c["frames_out"] - c["frames_in"]) + c["in_flight"]
            bad = []
            if lost:
                bad.append(f"frames out {c['frames_out']} / in {c['frames_in']}"
                           f" / in flight {c['in_flight']}")
            if c["bytes_in"] != c["bytes_out"]:
                bad.append(f"bytes out {c['bytes_out']} != in {c['bytes_in']}")
                lost = c["frames_out"]
            if c["steps_to_recall"] == 0:
                bad.append("98% recall not reached within the run")
            failed += min(lost, c["frames_out"])
            if bad:
                problems.append("live_paillier: " + "; ".join(bad))
    if attempted == 0:
        problems.append("no operation attempted")
    return attempted, failed, problems


# -- Metrics -------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(data):
    reps = [r for r in data["reps"] if not r["traced"]]
    return {
        "setup_s": median(data["setup_samples"]),
        "run_s": median([r["run_s"] for r in reps]),
        "msgs_per_s": median([r["messages"] / r["run_s"] for r in reps]),
        "steps_to_recall": median([r["steps_to_recall"] for r in reps]),
        "recall": median([r["recall"] for r in reps]),
        "precision": median([r["precision"] for r in reps]),
        "msg_latency_p50_ms": data["latency_ms"]["p50"],
        "msg_latency_p99_ms": data["latency_ms"]["p99"],
        "peak_rss_mb": data["peak_rss_mb"],
    }


def self_times(spans):
    """Span name -> summed self time (duration minus its children's)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    out = {}
    for i, s in enumerate(spans):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[i]
    return out


def per_layer(data):
    traced = [r for r in data["reps"] if r["traced"]]
    plain = [r for r in data["reps"] if not r["traced"]]
    selfs = [self_times(r["spans"]) for r in traced]
    out = {m: median([s.get(span, 0.0) for s in selfs])
           for m, span in SPAN_METRICS.items()}
    for m in COUNTER_METRICS:
        out[m] = median([r["counters"].get(m, 0.0) for r in traced])
    out["trace.overhead_frac"] = (median([r["run_s"] for r in traced]) /
                                  median([r["run_s"] for r in plain]) - 1.0)
    return out


def write_spans(data, args):
    """Keep the traced repetitions' spans next to the build for inspection."""
    out = os.path.join(build_dir(), "spans")
    os.makedirs(out, exist_ok=True)
    rows = []
    traced = [r for r in data["reps"] if r["traced"]]
    for i, rep in enumerate(traced):
        run_id = f"{data['workload']}/seed{args.seed}/rep{i}"
        for j, s in enumerate(rep["spans"]):
            rows.append({"run": run_id, "id": f"{run_id}#{j}", "name": s["name"],
                         "start": s["start"], "end": s["end"],
                         "parent": f"{run_id}#{s['parent']}" if s["parent"] >= 0 else None})
    path = os.path.join(out, f"{data['workload']}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump(rows, f, indent=1)
    return path


def run_workload(binary, args, workload):
    data = run_binary(binary, args, workload)
    attempted, failed, problems = check(data, args.fig3_artifact)
    host = data["host"]
    print(f"# {workload}  seed={args.seed} size={data['size']} "
          f"trace={args.trace}  nproc={host['nproc']} "
          f"fixword={host['fixword_backend']} build={host['build_type']} "
          f"flags='{host['cxx_flags']}' shards={host['shards']} "
          f"threads={host['threads']}")
    reps = data["reps"]
    print(f"#   repetitions: {sum(not r['traced'] for r in reps)} untraced, "
          f"{sum(r['traced'] for r in reps)} traced; "
          f"{len(data['setup_samples'])} set-ups; "
          f"{data['latency_ms']['count']} latency samples")
    print("#   run_s samples: " + " ".join(
        f"{r['run_s']:.3f}{'*' if r['traced'] else ''}" for r in reps)
        + ("  (* traced)" if args.trace else ""))
    if args.trace:
        metrics = per_layer(data)
        units = PER_LAYER
        print(f"#   spans: {write_spans(data, args)}")
    else:
        metrics = end_to_end(data)
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    frac = failed / attempted if attempted else 1.0
    print(f"  {'ops_failed_frac':<36} {frac:>16.6g} ratio "
          f"({failed} of {attempted})")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    result = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    return not problems, attempted, failed, result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--threads", type=int)
    p.add_argument("--fig3-artifact",
                   default=os.path.join(ROOT, "BENCH_fig3_scalability.json"))
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")

    try:
        binary = build(min(4, os.cpu_count() or 1))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for w in workloads:
            ok, a, f, m = run_workload(binary, args, w)
            correct, attempted, failed = correct and ok, attempted + a, failed + f
            if len(workloads) > 1:
                m = {f"{w}.{k}": v for k, v in m.items()}
            metrics.update(m)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as e:
        print(f"gridbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
