#!/usr/bin/env python3
"""Query-set benchmark for the CycleRank demo platform.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the repository's main sources together with the benchmark program
(perfbench/build.sbt) on first use, then runs one workload in a fresh JVM.
The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. Build outputs, the datastore
of each pass and the span files of traced runs go to the build directory
($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1-queryset", "cr-small", "cr-large")
HEAP = "4g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800
# Module opens the spark-submit launcher would add (as in the root build).
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def source_digest():
    h = hashlib.sha256()
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for base in (ROOT / "src" / "main", HERE / "src"):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def classpath(out):
    """Compile with sbt when the sources changed; return the runtime classpath."""
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        fail(f"program sources not found under {ROOT / 'src' / 'main' / 'scala'}")
    digest = source_digest()
    cp_file, stamp = out / "classpath.txt", out / "classpath.stamp"
    if cp_file.exists() and stamp.exists() and stamp.read_text() == digest:
        return cp_file.read_text().strip()
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=HERE, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=BUILD_TIMEOUT_S)
    sys.stderr.write(proc.stdout)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or lines[-1].startswith("["):
        fail("sbt build failed")
    out.mkdir(parents=True, exist_ok=True)
    cp_file.write_text(lines[-1])
    stamp.write_text(digest)
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    out = build_dir()
    cp = classpath(out)
    work = out / "work"
    tmp = out / "tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    java = str(Path(os.environ["JAVA_HOME"]) / "bin" / "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
    cmd += ["-cp", cp, "repro.perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace, "--workdir", str(work)]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    if not lines:
        fail(f"no output (exit code {child.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail(f"last line is not a result (exit code {child.returncode})")
    print(json.dumps(result))
    if child.returncode != 0 or not result.get("correct"):
        print(f"perfbench: run failed the correctness gate (exit code {child.returncode})",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
