#!/usr/bin/env python3
"""Builds the perfbench binary when its sources changed, then runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to `$CARGO_TARGET_DIR`
(default `.bench_build`). Cargo's own freshness check cannot be used on
every run: outside a git checkout the telemetry crate's build script
names a `.git/HEAD` that does not exist, which makes cargo rebuild the
whole workspace each time. So this launcher fingerprints the sources
(every file under `crates/`, `shims/` and `perfbench/`, plus the root
manifest), runs `cargo build` only when the fingerprint differs from the
one stored next to the binary, and then replaces itself with the binary.
A failed build exits with cargo's status and prints no result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP_DIRS = {"target", "out", ".bench_build"}


def fingerprint():
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml")]
    for top in ("crates", "shims", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        if not os.path.isfile(path):
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    binary = os.path.join(target, "release", "perfbench")
    stamp = os.path.join(target, "perfbench.fingerprint")
    want = fingerprint()
    have = open(stamp).read().strip() if os.path.isfile(stamp) else None
    if have != want or not os.path.isfile(binary):
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
            env=dict(os.environ, CARGO_TARGET_DIR=target),
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            sys.exit(build.returncode)
        with open(stamp, "w") as f:
            f.write(want + "\n")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
