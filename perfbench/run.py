#!/usr/bin/env python3
"""Builds and runs the rcc end-to-end benchmark.

    python3 perfbench/run.py --workload point_hot|currency_rw|fleet_routed \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the rcc libraries from src/ plus the harness) in Release mode
under $CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed. Build output goes to stderr; stdout carries the benchmark's report,
whose last line is one JSON object. With --trace 1 the spans of the traced
run are written to <build dir>/perfbench/spans/.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def arg_value(argv, key):
    for i in range(len(argv) - 1):
        if argv[i] == key:
            return argv[i + 1]
    return None


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: rcc sources not found under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build, "--target", "rcc_perfbench",
                    "-j", str(os.cpu_count() or 2)],
                   stdout=sys.stderr, check=True)

    # Relative to the checkout, which keeps the socket path inside the
    # 108-byte sun_path limit wherever the checkout lives.
    socket = os.path.relpath(os.path.join(build, "rcc-%d.sock" % os.getpid()),
                             ROOT)
    cmd = [os.path.join(build, "rcc_perfbench")] + argv + [
        "--socket", socket, "--commit", source_id()]
    if arg_value(argv, "--trace") == "1":
        spans = os.path.join(build, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, "%s-seed%s.jsonl" % (
            arg_value(argv, "--workload"), arg_value(argv, "--seed")))]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except subprocess.CalledProcessError as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        sys.exit(2)
