#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness and the miner with sbt when a source is newer than the
last build, then runs the harness in one JVM. The harness prints the metrics
and, as the last line of standard output, one JSON result object. Its
standard error goes to perfbench/out/<workload>.log.
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CLASSPATH = BENCH / "target" / "runtime.classpath"
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
# Parallel GC with a fixed-size heap: on a 4-core box it ran the mining jobs
# faster and with less run-to-run spread than the default G1.
HEAP = "3g"

# Module options that spark-submit passes to a JDK 17 JVM; without them
# Kryo and Unsafe fail with InaccessibleObjectException.
JAVA_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar")
]


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    for base in (ROOT / "src" / "main", ROOT / "jobs", BENCH / "src", ROOT / "project", BENCH / "project"):
        if base.is_dir():
            yield from (p for p in base.rglob("*") if p.is_file() and "target" not in p.parts)
    yield from (p for p in (ROOT / "build.sbt", BENCH / "build.sbt") if p.is_file())


def run_bounded(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build() -> None:
    newest = max(p.stat().st_mtime for p in sources())
    if CLASSPATH.is_file() and CLASSPATH.stat().st_mtime >= newest:
        return
    with open(OUT / "build.log", "wb") as log:
        try:
            code, _ = run_bounded(["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.supershell=false",
                                   "writeClasspath"], BUILD_TIMEOUT_S, cwd=BENCH,
                                  stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
        except subprocess.TimeoutExpired:
            fail(f"build timed out; see {OUT / 'build.log'}")
    if code != 0 or not CLASSPATH.is_file():
        fail(f"build failed; see {OUT / 'build.log'}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no repository sources next to {BENCH.name}/; run from a full checkout")
    OUT.mkdir(exist_ok=True)
    build()

    cp = CLASSPATH.read_text().strip()
    tmp = OUT / "tmp"
    tmp.mkdir(exist_ok=True)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC",
           "-XX:+IgnoreUnrecognizedVMOptions", *JAVA_OPENS,
           "-Djdk.reflect.useDirectMethodHandleAccessor=false", f"-Djava.io.tmpdir={tmp}",
           "-cp", cp, "perfbench.Bench",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with open(OUT / f"{args.workload}.log", "wb") as log:
        try:
            code, out = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=log)
        except subprocess.TimeoutExpired:
            fail(f"run timed out after {RUN_TIMEOUT_S} s; see {log.name}")
    text = out.decode()
    sys.stdout.write(text)
    sys.stdout.flush()
    if code != 0:
        print(f"perfbench: harness exited with {code}; see {OUT / (args.workload + '.log')}", file=sys.stderr)
        sys.exit(code)


if __name__ == "__main__":
    main()
