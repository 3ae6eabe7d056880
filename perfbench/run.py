#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload signature --seed 42 --seconds 10 --trace 0

Builds the benchmark binary (`perfbench/Cargo.toml`, release profile,
into `$CARGO_TARGET_DIR`, default `.bench_build`), measures set-up time
over several short-lived processes, runs the workload once, and prints
the binary's result line with `setup_s` added (untraced runs). A run
stamp line precedes the result. Exits non-zero without a result line if
the build or the run fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("signature", "hierarchy", "serve", "expansion-xl")
SETUP_PROBES = 101
# A run must end within 180 s of its start, build excluded; this leaves
# a few seconds for start-up and the result line.
DEADLINE_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark binary and return its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "topogen-perfbench")


def setup_seconds(binary, base_args, workdir):
    """Median over several processes of spawn-to-ready time: process start
    plus the workload's set-up (store open, daemon bind and /healthz for
    serve)."""
    samples = []
    for i in range(SETUP_PROBES):
        args = base_args + ["--setup-only", "--workdir", os.path.join(workdir, f"setup-{i}")]
        t0 = time.perf_counter()
        with subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            t1 = time.perf_counter()
            p.stdout.read()
            if p.wait(timeout=60) != 0 or line.strip() != "ready":
                fail("set-up probe failed")
        samples.append(t1 - t0)
    return statistics.median(samples)


def tool_version(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if opts.trace == "1" else "end_to_end"]

    binary = build()
    deadline = time.monotonic() + DEADLINE_S
    scratch_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{opts.workload}-", dir=scratch_root)
    try:
        base = [
            "--workload", opts.workload, "--seed", str(opts.seed),
            "--size", opts.size,
        ]
        setup_s = None
        if opts.trace == "0":
            setup_s = setup_seconds(binary, base, workdir)
        args = base + [
            "--seconds", str(opts.seconds), "--trace", opts.trace,
            "--workdir", os.path.join(workdir, "run"),
        ]
        try:
            run = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                                 timeout=deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            fail(f"run did not end within {DEADLINE_S} s of the build")
        if run.returncode != 0:
            fail(f"run exited with {run.returncode}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run is still using it

    lines = run.stdout.strip().splitlines()
    stamp = next((l[len("stamp "):] for l in lines if l.startswith("stamp ")), None)
    if stamp is None or not lines:
        fail("run printed no stamp or result")
    result = json.loads(lines[-1])
    stamp = json.loads(stamp)
    stamp["rustc"] = tool_version(["rustc", "--version"])
    # A checkout without git metadata (an exported tree) has no commit.
    has_git = os.path.exists(os.path.join(ROOT, ".git"))
    stamp["commit"] = tool_version(["git", "-C", ROOT, "rev-parse", "HEAD"]) if has_git else "unknown"
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if set(got) != set(units) or any(got[n]["unit"] != u for n, u in units.items()):
        fail(f"metrics do not match BENCHMARK.json: {sorted(set(got) ^ set(units))}")
    result["metrics"] = {n: got[n] for n in units}
    print("stamp " + json.dumps(stamp))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
