#!/usr/bin/env python3
"""Build and run the glitchlock end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary (a package of its own in this directory,
depending on the in-repo crates by path) into $CARGO_TARGET_DIR, default
`.bench_build`, runs it, and relays its output. The last line of standard
output is the result object. Before relaying, the result's metric names
and units are checked against BENCHMARK.json. Exits non-zero without a
result if the build, the run or that check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no crates/ next to {os.path.basename(HERE)}/: run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail(f"build failed with code {build.returncode}")
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                          "release", "perfbench")
    try:
        run = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"run failed with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("run printed no result")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
