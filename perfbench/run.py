#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the program from source (the `vqmc-cli` and `vqmc-mkckpt`
binaries of the repository workspace, and the `vqmc-perfbench` binary in
this directory), then runs one workload and passes its output through.
The last line of standard output is the result object.

    python3 perfbench/run.py --workload tim_le --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  Build output goes to `$CARGO_TARGET_DIR`
(default `.bench_build`); checkpoints and traced-run spans go to
`.bench_build/perfbench-work`.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One workload run (after the build) must finish well inside 180 s.
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the sources the benchmark builds, for provenance."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "third_party", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, subdirs, fs in os.walk(path)
            for f in fs
            if not d.startswith(os.path.join(ROOT, ".bench_build"))
        )
        for f in files:
            if f.endswith((".rs", ".toml", ".lock", ".py", ".json")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "vqmc", "--bin", "vqmc-cli",
         "-p", "vqmc-bench", "--bin", "vqmc-mkckpt"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        # Cargo's output goes to stderr so the result stays the last
        # line of standard output.
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            die(f"build failed: {' '.join(cmd)}", 3)


def main():
    args = sys.argv[1:]
    for needed in ["Cargo.toml", "Cargo.lock", "crates", "src"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"{needed} not found next to perfbench/: run from a full checkout of the repository")
    if "--self-test" not in args:
        for flag in ["--workload", "--seed", "--seconds", "--trace"]:
            if flag not in args:
                die(f"{flag} is required")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build(env)

    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(release, "vqmc-perfbench"), *args,
        "--cli", os.path.join(release, "vqmc-cli"),
        "--mkckpt", os.path.join(release, "vqmc-mkckpt"),
        "--work-dir", work,
        "--pins", os.path.join(HERE, "pins.json"),
        "--rev", f"{git_rev()} src:{source_digest()}",
        "--rustc", rustc_version(),
    ]
    timeout = None if "--self-test" in args else RUN_TIMEOUT_S
    # Own process group, so a run that overstays takes its server child
    # down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"workload run exceeded {RUN_TIMEOUT_S} s", 4)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
