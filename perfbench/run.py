#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the Rust package in
`perfbench/` (into $CARGO_TARGET_DIR, default `.bench_build`), generates
the workload's circuits to BLIF twice in two separate processes and
refuses to run if the two generations differ, then runs the measurement
in a third process. The last line of standard output is the JSON result
the measuring program printed. Scratch files (inputs, report, Chrome trace) go to
`.bench_out/` in the checkout.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
# A cold build may take most of the first run's allowance; everything
# after it must end within three minutes of the build.
BUILD_SECONDS = 840
RUN_SECONDS = 170
deadline = time.monotonic() + BUILD_SECONDS


def remaining():
    return max(1.0, deadline - time.monotonic())


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, **kw):
    """Runs a child to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, timeout=remaining(), **kw)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")


def revision():
    """The git revision when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(os.path.join(ROOT, top)):
            with open(os.path.join(ROOT, top), "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def digest(directory):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("run from the root of a checkout of the repository")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(BENCH, "Cargo.toml")
    build = run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
                env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    global deadline
    deadline = time.monotonic() + RUN_SECONDS
    exe = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release", "perfbench")

    work = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}")
    gens = []
    for side in ("a", "b"):
        d = os.path.join(work, "inputs-" + side)
        if os.path.isdir(d):
            for name in os.listdir(d):
                os.remove(os.path.join(d, name))
        r = run([exe, "gen", "--workload", args.workload, "--out", d], stdout=sys.stderr)
        if r.returncode != 0:
            fail("input generation failed")
        gens.append(digest(d))
    if gens[0] != gens[1]:
        fail(f"two generations of the {args.workload} inputs differ; refusing to run")
    print(f"perfbench: inputs sha256 {gens[0]}", file=sys.stderr)

    r = run([exe, "measure", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--inputs", os.path.join(work, "inputs-a"), "--out", work,
             "--revision", revision()],
            stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"measurement failed (exit {r.returncode})")
    result = json.loads(lines[-1])
    if args.trace == "1":
        with open(os.path.join(work, "trace.json")) as f:
            json.load(f)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
