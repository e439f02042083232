"""Build file of the benchmark package.

Compiles the program's main sources (src/main/scala) together with the
benchmark harness (perfbench/src) using the Scala compiler that ships with
the Spark distribution, so the build needs neither sbt nor a network. The
output goes to .bench_build/perfbench/classes-<hash>, where the hash covers
every source file and the Spark jars, so a changed source means a rebuild.

    python3 perfbench/build.py      # build only; prints the classes directory
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


class BuildError(Exception):
    pass


def spark_jars():
    """The jars of the Spark distribution: SPARK_HOME, else spark-submit's."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        exe = shutil.which("spark-submit")
        if exe:
            home = os.path.dirname(os.path.dirname(os.path.realpath(exe)))
    jars = sorted(glob.glob(os.path.join(home, "jars", "*.jar"))) if home else []
    if not any(os.path.basename(j).startswith("scala-compiler") for j in jars):
        raise BuildError("no Spark distribution with a Scala compiler found; set SPARK_HOME")
    return jars


def sources():
    main = os.path.join(ROOT, "src", "main", "scala")
    if not os.path.isdir(main):
        raise BuildError(f"no program sources: {os.path.relpath(main, ROOT)} is missing")
    srcs = sorted(glob.glob(os.path.join(main, "**", "*.scala"), recursive=True))
    bench = sorted(glob.glob(os.path.join(HERE, "src", "*.scala")))
    if not srcs or not bench:
        raise BuildError("no Scala sources to compile")
    return srcs + bench


def ensure_built():
    """Returns (classes directory, Spark jars), compiling first if needed."""
    jars = spark_jars()
    srcs = sources()
    h = hashlib.sha256()
    for path in srcs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    for jar in jars:
        h.update(os.path.basename(jar).encode())
    out = os.path.join(BUILD_DIR, "classes-" + h.hexdigest()[:16])
    if os.path.isdir(out):
        return out, jars
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    cp = os.pathsep.join(jars)
    cmd = ["java", "-Xmx2g", "-Xss8m", "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + os.path.join(BUILD_DIR, "tmp"),
           "-cp", cp, "scala.tools.nsc.Main", "-nowarn", "-d", tmp, "-classpath", cp, *srcs]
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr, flush=True)
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"compilation failed with exit code {res.returncode}")
    os.rename(tmp, out)
    return out, jars


if __name__ == "__main__":
    try:
        print(ensure_built()[0])
    except BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
