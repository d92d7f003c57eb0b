#!/usr/bin/env python3
"""Outside-in benchmark for DeepJoin search, HNSW and the join baselines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dj-query --seed 1 --seconds 10 --trace 0

Workloads: dj-query, ann-query, baselines (see BENCHMARK.json). The first run
in a checkout compiles the library sources (src/main/scala) together with
the benchmark code (perfbench/src) with sbt, and records the classpath under
.bench_build/perfbench; later runs reuse it while the sources are unchanged.
The benchmark then runs in its own JVM. Its last line of standard output, a JSON
object with the keys correct, attempted, failed and metrics, is printed as
the last line here too. Exit codes: 0 on a result, 2 on bad arguments or a
checkout without the library sources, 1 on any other failure.

Self-tests at tiny sizes: `cd perfbench && sbt test`.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
LIB_SRC = os.path.join(ROOT, "src", "main", "scala")
WORKLOADS = ("dj-query", "ann-query", "baselines")
BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 175
JVM_OPTS = [
    "-Xms2g", "-Xmx2g", "-XX:-UsePerfData",
    "-Dspark.ui.enabled=false",
    "-Dspark.driver.host=127.0.0.1",
    # Spark on Java 17 needs these packages opened to it.
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
]


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [LIB_SRC, os.path.join(BENCH, "src", "main")]
    files = [os.path.join(BENCH, "build.sbt"),
             os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def source_hash():
    h = hashlib.sha256(ROOT.encode())
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found (set SPARK_HOME)", 1)
    return home


def run_bounded(cmd, cwd, env, timeout_s, capture):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout_s:.0f} s", 1)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, (out.decode("utf-8", "replace") if capture else "")


def classpath(env):
    """Compile with sbt when the sources changed since the last build."""
    stamp = source_hash()
    stamp_file = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath")
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as f, open(cp_file) as g:
            if f.read().strip() == stamp:
                return stamp, g.read().strip()
    os.makedirs(BUILD, exist_ok=True)
    if not shutil.which("sbt"):
        fail("sbt is not on PATH", 1)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
           "export Runtime/fullClasspath"]
    print("perfbench: building with sbt", file=sys.stderr)
    code, out = run_bounded(cmd, BENCH, env, BUILD_TIMEOUT_S, capture=True)
    sys.stderr.write(out)
    lines = [l for l in out.splitlines() if not l.startswith("[") and os.pathsep in l]
    if code != 0 or not lines:
        fail("build failed", 1)
    cp = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return stamp, cp


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)
    if not os.path.isdir(LIB_SRC) or not os.path.isdir(BENCH):
        fail("run from the root of a checkout holding src/main/scala and perfbench/", 2)

    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env["SPARK_HOME"] = spark_home()
    env["SPARK_LOCAL_DIRS"] = os.path.join(BUILD, "spark-local")
    stamp, cp = classpath(env)

    start = time.monotonic()
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java_home = os.environ.get("JAVA_HOME", "")
    java = os.path.join(java_home, "bin", "java")
    cmd = ([java if os.path.isfile(java) else "java"] + JVM_OPTS +
           [f"-Djava.io.tmpdir={tmp}",
            f"-Dspark.local.dir={env['SPARK_LOCAL_DIRS']}",
            f"-Dspark.sql.warehouse.dir={os.path.join(BUILD, 'warehouse')}",
            "-cp", cp, "repro.perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", args.trace,
            "--out", os.path.join(BUILD, "results"),
            "--sha", git_sha(), "--source-hash", stamp])
    code, out = run_bounded(cmd, BUILD, env, RUN_DEADLINE_S - (time.monotonic() - start),
                            capture=True)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail(f"benchmark exited with code {code}", 1)
    last = json.loads(lines[-1])
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line", 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(last))


if __name__ == "__main__":
    main()
