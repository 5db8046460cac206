#!/usr/bin/env python3
"""Repository benchmark: build the workload runner from source and run one workload.

    python3 perfbench/run.py --workload train-resident --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (the repository's libraries plus the workload runner) into .bench_build,
or into $CARGO_TARGET_DIR when set; later calls only rebuild what changed.

--trace 0 runs the workload untraced and reports every end-to-end metric
listed in BENCHMARK.json. --trace 1 alternates untraced and traced training
trials (timing decorators around the transport and the dataset view), replays
rank 0's kernels, writes the spans to .bench_out/, checks that traced and
untraced losses are bitwise equal, and reports every per-layer metric,
trace_overhead_pct included.

Shards and checkpoints live in a per-run directory under .bench_tmp/ that is
removed on exit, also on failure. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
DEADLINE_S = 170.0  # the whole invocation, build excluded


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(REPO, d)


def build(targets):
    """Configure once, then build incrementally; serialised by a lock file."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", *targets],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def revision():
    """git HEAD when the checkout is a repository, else a hash of the sources."""
    try:
        r = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt", "cmake"):
        path = os.path.join(REPO, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, REPO).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def run_phase(exe, args, phase, checkpoint, tmp, spans, rev, deadline, log_path):
    cmd = [exe, "--workload=" + args.workload, "--phase=" + phase, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--checkpoint=" + checkpoint, "--tmp=" + tmp, "--revision=" + rev]
    if spans:
        cmd.append("--spans=" + spans)
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    with open(log_path, "w") as f:
        f.write(proc.stdout + proc.stderr)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or result is None:
        raise RuntimeError("%s phase exited with %d" % (phase, proc.returncode))
    return result


def pick(result, names):
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise RuntimeError("the workload did not report " + ", ".join(missing))
    return {n: result["metrics"][n] for n in names}


def main():
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(REPO, "src"))):
        log("perfbench: no Plexus sources next to perfbench/ (run from a full checkout)")
        return 2
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="build and run the harness self-check")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    try:
        out = build(["perfbench_workload", "perfbench_selftest"])
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    tmp_root = os.path.join(REPO, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        if args.selftest:
            return subprocess.run([os.path.join(out, "perfbench_selftest"),
                                   os.path.join(tmp, "selftest")]).returncode
        deadline = time.monotonic() + DEADLINE_S
        exe = os.path.join(out, "perfbench_workload")
        rev = revision()
        outdir = os.path.join(REPO, ".bench_out")
        os.makedirs(outdir, exist_ok=True)
        tag = "%s-seed%d" % (args.workload, args.seed)

        # Two processes, as a deployment would run them: train (and write
        # the checkpoint), then load the checkpoint in a fresh server process.
        checkpoint = os.path.join(tmp, "checkpoint")
        phases = {}
        for phase in ("train", "serve"):
            name = "%s-%s-trace%d" % (tag, phase, args.trace)
            spans = os.path.join(outdir, "spans-%s.json" % name) if args.trace else None
            phases[phase] = run_phase(exe, args, phase, checkpoint, os.path.join(tmp, phase),
                                       spans, rev, deadline,
                                       os.path.join(outdir, "log-%s.txt" % name))
        train, serve = phases["train"], phases["serve"]
        metrics = dict(train["metrics"], **serve["metrics"])
        names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        final = {"correct": bool(train["correct"] and serve["correct"]),
                 "attempted": train["attempted"] + serve["attempted"],
                 "failed": train["failed"] + serve["failed"],
                 "metrics": pick({"metrics": metrics}, names)}
        with open(os.path.join(outdir, "result-%s-trace%d.json" % (tag, args.trace)), "w") as f:
            json.dump({"final": final, "phases": phases}, f, indent=1)
        env = dict(train["env"], **{"serve_" + k: v for k, v in serve["env"].items()
                                    if k.startswith(("loadavg", "steal"))})
        print("env: " + ", ".join("%s=%s" % kv for kv in sorted(env.items())))
        print("fail_frac: %.6g" % (final["failed"] / final["attempted"]))
        print(json.dumps(final))
        return 0
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
