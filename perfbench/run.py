#!/usr/bin/env python3
"""Run one workload of the D-core decomposition benchmark.

    python3 perfbench/run.py --workload wv-ac-vc --seed 101 --seconds 10 --trace 0

Run from the repository root. The first call builds the harness (an sbt
project in this directory that compiles ../src/main/scala with it) and
records its classpath; later calls reuse the build while the sources are
unchanged. The harness runs in a JVM of its own, which this script waits for.
Its last line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`, is checked against BENCHMARK.json and
printed as this script's last line. Spans and reports go to perfbench/work/.

Environment: SPARK_HOME (Spark 4 distribution, required), SPARK_GRAFT_CPUS
(cores for local[N], default: all).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
WORK = os.path.join(HERE, "work")
CLASSPATH_FILE = os.path.join(TARGET, "classpath.txt")
# JVM options the build writes beside the classpath (the java.base packages
# Spark needs opened on JDK 17).
JAVA_OPTIONS_FILE = os.path.join(TARGET, "java-options.txt")
STAMP_FILE = os.path.join(TARGET, "source-digest.txt")
MAIN_CLASS = "repro.perfbench.Bench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "4g"


def fail(msg):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src", "main")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_quiet(cmd, cwd, env, timeout):
    """Run cmd to completion with its output sent to stderr; return its exit code."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")


def build(digest):
    """Compile the harness unless a build of these exact sources exists."""
    if all(os.path.exists(f) for f in (CLASSPATH_FILE, JAVA_OPTIONS_FILE, STAMP_FILE)):
        with open(STAMP_FILE) as fh:
            if fh.read().strip() == digest:
                return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    code = run_quiet(["sbt", "--batch", "-J-XX:-UsePerfData", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
                      "writeClasspath"], HERE, env, BUILD_TIMEOUT_S)
    if code != 0 or not (os.path.exists(CLASSPATH_FILE) and os.path.exists(JAVA_OPTIONS_FILE)):
        fail(f"build failed (sbt exit code {code})")
    with open(STAMP_FILE, "w") as fh:
        fh.write(digest + "\n")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="relabels the graph's vertex ids (default: the dataset's own seed, no relabelling)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("the repository's sources (src/main/scala) are missing; run from a full checkout")
    expected = expected_metrics(args.trace == 1)
    if not os.environ.get("SPARK_HOME"):
        fail("SPARK_HOME is not set")

    digest = source_digest()
    build(digest)
    with open(CLASSPATH_FILE) as fh:
        classpath = fh.read().strip()
    with open(JAVA_OPTIONS_FILE) as fh:
        java_options = fh.read().split()

    # Temporary files of this run only (the JVM's, Spark's block and shuffle
    # files), removed when the run ends.
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # Spark prefers this over spark.local.dir; keep its files in run_dir.
    env["SPARK_LOCAL_DIRS"] = os.path.join(run_dir, "spark-local")
    env.pop("SPARK_EXECUTOR_DIRS", None)
    cmd = (["java", "-XX:-UsePerfData", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}", "-Dspark.driver.host=127.0.0.1"]
           + java_options
           + ["-cp", classpath, MAIN_CLASS,
              "--workload", args.workload, "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--work-dir", WORK,
              "--info", f"git_sha={git_sha()}", "--info", f"source_digest={digest[:16]}"])
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]

    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"harness timed out after {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"harness exited with code {proc.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("harness printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}")
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}, "
             f"unit mismatch {sorted(n for n in got if n in expected and got[n] != expected[n])}")
    for l in lines[:-1]:
        print(l)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
