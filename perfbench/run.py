#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the program and the perfbench
binary from source into .bench_build/ (the first run compiles; later runs
only check that the build is current), runs the binary's self-test, then
runs the workload in its own process. Everything the binary prints is
passed through; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics, where metrics holds the
end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer metrics
(--trace 1). The full report, with run metadata, is written to
.bench_build/reports/ and a traced run's Chrome trace to .bench_build/traces/.

An end_to_end metric that reads 0 or has no samples means the work it
times did not happen, and counts as a failed check. In a traced run only
the per_layer metrics layer_map.json lists as unreached on the workload
read 0; any other missing metric stops the run.

Exit codes: 0 when every output check passed, 1 when a check failed (the
result line is still printed), 2 when the benchmark could not run at all
(no result line).
"""
import argparse
import hashlib
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def clean_env():
    """The environment for every child: no GEO_* overrides, temporaries kept
    inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GEO_")}
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_checked(cmd, log, timeout):
    """Run a build step, appending its output to `log`; exit 2 on failure."""
    with open(log, "a") as out:
        out.write(f"$ {' '.join(cmd)}\n")
        out.flush()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(), stdout=out,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)} (log: {log})")
    if proc.returncode != 0:
        sys.stderr.write(pathlib.Path(log).read_text()[-4000:])
        fail(f"build step failed: {' '.join(cmd)} (log: {log})")


def build():
    if not any((ROOT / "src").rglob("*.cpp")):
        fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD_ROOT / "build.log"
    start = time.monotonic()
    if not (BUILD / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", str(BUILD), "-j", jobs], log,
                BUILD_TIMEOUT_S - (time.monotonic() - start))
    run_checked([str(BINARY), "--self-test"], log, 60)


def check_layer_map(spec):
    """layer_map.json must name each per_layer metric exactly once, map it
    only onto end_to_end metrics and workloads that exist, and say for every
    workload which per_layer metrics it does not reach. Returns those."""
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    groups = layer_map["groups"]
    per_layer = sorted(m["name"] for m in spec["per_layer"])
    listed = sorted(name for g in groups for name in g["metrics"])
    if listed != per_layer:
        fail("layer_map.json does not list every per_layer metric exactly once")
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for g in groups:
        for workload, names in g["moves"].items():
            if workload not in workloads or not set(names) <= e2e:
                fail(f"layer_map.json maps {g['metrics'][0]} onto unknown names")
    unreached = layer_map["unreached"]
    if set(unreached) != workloads or not all(set(v) <= set(per_layer)
                                              for v in unreached.values()):
        fail("layer_map.json's unreached lists do not match BENCHMARK.json")
    return {w: set(names) for w, names in unreached.items()}


def source_digest():
    """sha256 over the program and benchmark sources: identifies the code a
    number came from when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    files = [p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_workload(args):
    traces = BUILD_ROOT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(traces)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"workload {args.workload} printed no report (exit code {proc.returncode})")
    return report, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    unreached = check_layer_map(spec)[args.workload]
    if not args.trace:
        unreached = set()

    build()
    report, code = run_workload(args)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if m["name"] in unreached:
            if got is not None:
                fail(f"workload {args.workload} reported {m['name']}, which "
                     "layer_map.json lists as unreached")
            got = report["metrics"][m["name"]] = {
                "value": 0.0, "unit": m["unit"], "samples": 0,
                "note": "not on this workload's path"}
        if got is None or got["unit"] != m["unit"]:
            fail(f"workload {args.workload} did not report {m['name']} in {m['unit']}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            fail(f"workload {args.workload} reported a non-finite {m['name']}")
        if not args.trace and (got["value"] <= 0 or got["samples"] == 0):
            what = f"end_to_end metric {m['name']} is {got['value']} over {got['samples']} samples"
            print(f"  FAILED: {what}")
            report["attempted"] += 1
            report["failed"] += 1
            report["correct"] = False
            report["failures"].append(what)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    report["run"].update({"git_commit": git_commit(), "source_digest": source_digest(),
                          "seconds": args.seconds, "python": sys.version.split()[0]})
    reports = BUILD_ROOT / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (reports / name).write_text(json.dumps(report, indent=1) + "\n")
    print(f"  source_digest={report['run']['source_digest'][:16]} "
          f"git_commit={report['run']['git_commit']} report={reports / name}")

    correct = bool(report["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
