#!/usr/bin/env python3
"""Build and run the OFFRAMPS end-to-end benchmark.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The first call configures and builds the
repository's libraries and the `perfbench` program under .bench_build/
(or $CARGO_TARGET_DIR when set); later calls rebuild incrementally.

The program's last stdout line is the result object; this wrapper adds two
checks before printing it:

  * exact counts: a traced run's deterministic counts are stored per
    workload and seed, keyed by a digest of the sources, and any count
    that moves between two runs of the same sources is a determinism bug;
  * fleetd parity: a traced `campaign` run at seed 1 must render the same
    report bytes as `offramps_fleetd --demo 16 --sabotage 4 --jobs 1 --json`.

--smoke runs every workload in its tiny size, traced and untraced, and
checks that every metric BENCHMARK.json names is emitted with its unit and
that the correctness gate passes.

Exit status: 0 when the run and its checks pass, 1 when a correctness
check fails (the result line is still printed), 2 when the benchmark
cannot be built or run (no result line).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("campaign", "sweep", "replay")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target) if not os.path.isabs(target) else target


def source_digest():
    """SHA-256 over the program and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    tops = ["CMakeLists.txt", "src", "perfbench"]
    files = []
    for top in tops:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(top)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            for name in sorted(filenames):
                files.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in files:
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    if not (os.path.exists(os.path.join(ROOT, ".git")) and
            shutil.which("git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True, check=False)
    return r.stdout.strip() or "unknown"


def build(out_dir):
    """Configures (once) and builds perfbench and offramps_fleetd."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no OFFRAMPS sources next to perfbench/")
    if not shutil.which("cmake"):
        raise RuntimeError("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs, "--target",
                    "perfbench", "offramps_fleetd"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def run_perfbench(exe, args, work, results, digest):
    """Runs perfbench; returns (exit code, stdout lines, result object)."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--out", results, "--commit", commit_id(),
           "--source-digest", digest]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    return proc.returncode, lines, result


def tag(args):
    return "%s-seed%d%s" % (args.workload, args.seed,
                            "-tiny" if args.tiny else "")


def check_counts(results, args, digest):
    """Compares this traced run's exact counts with the last run's of the
    same sources; returns the names of counts that moved."""
    with open(os.path.join(results, tag(args) + "-trace1.json")) as f:
        counts = json.load(f)["counts"]
    ledger = os.path.join(results, "counts-" + tag(args) + ".json")
    if os.path.isfile(ledger):
        with open(ledger) as f:
            prior = json.load(f)
        if prior.get("source_digest") == digest:
            return sorted(k for k in set(counts) | set(prior["counts"])
                          if counts.get(k) != prior["counts"].get(k))
    with open(ledger, "w") as f:
        json.dump({"source_digest": digest, "counts": counts}, f, indent=1)
    return []


def fleetd_matches(out_dir, results):
    exe = os.path.join(out_dir, "offramps", "src", "host", "offramps_fleetd")
    proc = subprocess.run([exe, "--demo", "16", "--sabotage", "4", "--jobs",
                           "1", "--json"], stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, check=False)
    with open(os.path.join(results, "report-campaign-seed1.json"), "rb") as f:
        ours = f.read()
    # fleetd exits 1 when any rig alarmed, as the demo's sabotaged rigs do.
    return proc.returncode in (0, 1) and proc.stdout.rstrip(b"\n") == ours


def bench(args):
    out_dir = os.path.join(build_root(), "perfbench")
    results = os.path.join(build_root(), "results")
    work = os.path.join(build_root(), "work")
    build(out_dir)
    digest = source_digest()
    rc, lines, result = run_perfbench(os.path.join(out_dir, "perfbench"),
                                      args, work, results, digest)
    if result is None:
        sys.stdout.write("\n".join(lines) + "\n")
        raise RuntimeError("perfbench exited %d without a result" % rc)
    print("\n".join(lines[:-1]))
    problems = []
    if args.trace == 1 and result["correct"]:
        moved = check_counts(results, args, digest)
        if moved:
            problems.append("DETERMINISM BUG: counts moved between two runs "
                            "of the same sources: " + ", ".join(moved))
        if args.workload == "campaign" and args.seed == 1 and not args.tiny:
            if fleetd_matches(out_dir, results):
                print("fleetd parity: campaign report is byte-identical to "
                      "offramps_fleetd --demo 16 --sabotage 4 --jobs 1 --json")
            else:
                problems.append("campaign report differs from offramps_fleetd "
                                "--demo 16 --sabotage 4 --jobs 1 --json")
    for p in problems:
        print(p)
        result["correct"] = False
        result["failed"] += 1
        result["attempted"] += 1
    print(json.dumps(result))
    return 0 if rc == 0 and not problems else 1


def smoke():
    """Tiny-size self-test of every workload, traced and untraced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run([sys.executable, os.path.abspath(__file__),
                                  "--workload", workload, "--seed", "1",
                                  "--seconds", "1", "--trace", str(trace),
                                  "--tiny"],
                                 stdout=subprocess.PIPE, text=True,
                                 check=False)
            name = "%s trace %d" % (workload, trace)
            before = len(failures)
            try:
                result = json.loads(out.stdout.rstrip("\n").split("\n")[-1])
            except (ValueError, IndexError):
                result = None
                failures.append(name + ": no result line")
            if result is not None:
                if out.returncode != 0 or not result["correct"]:
                    failures.append(name + ": correctness gate failed")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want[trace]:
                    failures.append(name + ": metrics or units differ from "
                                    "BENCHMARK.json: %s" % sorted(
                                        set(got.items()) ^
                                        set(want[trace].items())))
            print("smoke %-16s %s" % (name, "ok" if len(failures) == before
                                      else "FAIL"), flush=True)
    for f in failures:
        print("FAIL: " + f)
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest fleets, for the self-test")
    p.add_argument("--smoke", action="store_true",
                   help="run the tiny self-test of every workload")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            p.error("--workload is required")
        return bench(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
