#!/usr/bin/env python3
"""Build (if needed) and run the pipeline benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run compiles the program and the
benchmark from source with sbt (offline) and caches the class path under
.bench_build/; later runs start the JVM directly. The last line of standard
output is the benchmark's JSON result; build and Spark logs go to standard
error. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# Pinned JVM: a fixed heap (the repository's test JVM sizes its heap from
# SPARK_DRIVER_MEM, 48g by default) and a fixed throughput collector with a
# fixed young generation, so heap sizing does not drift during a run.
HEAP = "3g"
JVM_FLAGS = [f"-Xms{HEAP}", f"-Xmx{HEAP}", "-Xmn1g", "-XX:+UseParallelGC",
             "-XX:-UsePerfData"]  # no hsperfdata file outside the checkout
# The module opens Spark's launcher adds for Java 17.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


CHILD = None  # the sbt or JVM process running now, stopped with this script


def stop_group(proc):
    """Kill proc and everything it started (its own process group), and
    wait until all of them have ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(cmd, timeout, **kwargs):
    """Run cmd to completion in a process group of its own; kill the group
    and return None when it times out."""
    global CHILD
    CHILD = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, start_new_session=True, **kwargs)
    try:
        out, _ = CHILD.communicate(timeout=timeout)
        return CHILD.returncode, out
    except subprocess.TimeoutExpired:
        return None, None
    finally:
        stop_group(CHILD)
        CHILD = None


def stop(signum, _frame):
    if CHILD is not None:
        stop_group(CHILD)
    sys.exit(128 + signum)


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_stamp():
    """Hash of every file the build reads: both build definitions and all sources."""
    h = hashlib.sha256()
    tops = ["build.sbt", "project", "src/main", "perfbench/build.sbt",
            "perfbench/project", "perfbench/src"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, subdirs, names in os.walk(path):
            subdirs[:] = sorted(s for s in subdirs if s != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile with sbt when the sources changed; return the class path."""
    stamp_file = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath")
    stamp = source_stamp()
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as fh:
                    return fh.read()
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    log("building: " + " ".join(cmd))
    code, out = run_child(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=env,
                          stdout=subprocess.PIPE, text=True)
    lines = [l for l in (out or "").splitlines() if l.strip()]
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if code != 0 or not lines or lines[-1].startswith("["):
        log(f"build failed (exit {code})")
        sys.exit(1)
    classpath = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(classpath)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    classpath = build()
    work = os.path.join(BUILD, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = ([java] + JVM_FLAGS + [f"--add-opens={o}=ALL-UNNAMED" for o in OPENS] +
           ["-Djdk.reflect.useDirectMethodHandle=false", f"-Djava.io.tmpdir={work}",
            "-cp", classpath, "repro.perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace])
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark"))
    code, _ = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
    if code is None:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        code = 1
    shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
