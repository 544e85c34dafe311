#!/usr/bin/env python3
"""Builds the benchmark and `shardd` from source, then runs one workload.

    python3 perfbench/run.py --workload simplify|serve|live|cluster \
        --seed N --seconds S --trace 0|1

Run it from the repository root. Build output goes to standard error and
into $CARGO_TARGET_DIR (default `.bench_build`); the run's own output goes
to standard output and ends with one JSON line. The exit code is non-zero
when the build fails, when a correctness or durability check fails, or
when an operation fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo(*args, env):
    done = subprocess.run(["cargo", *args], stdout=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit(f"perfbench: cargo {' '.join(args[:2])} failed")


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env["CARGO_TARGET_DIR"] = target
    # shardd comes from the repository's own workspace, with its release
    # profile; the benchmark is a workspace of its own next to it.
    cargo("build", "--release", "--offline", "--quiet",
          "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
          "-p", "traj-serve", "--bin", "shardd", env=env)
    cargo("build", "--release", "--offline", "--quiet",
          "--manifest-path", os.path.join(HERE, "Cargo.toml"), env=env)
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    print(f"context: {rustc.stdout.strip()} | release profile, lto = thin", flush=True)
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--shardd", os.path.join(release, "shardd")]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
