"""Build file of the benchmark package.

Compiles the repository's main sources (`src/main/scala`) together with the
benchmark's own Scala sources (`perfbench/scala`) into
`.bench_build/perfbench/perfbench.jar`, using the Scala compiler jar that
ships in the Spark distribution (`$SPARK_HOME/jars`, or the Spark whose
`spark-submit` is on PATH).
No sbt, no dependency resolution, no network. A stamp of the sources' hashes
skips the compile when nothing changed.

    python3 perfbench/build.py          # from the repository root
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys
import zipfile

HERE = os.path.dirname(os.path.abspath(__file__))
# No hsperfdata file under /tmp: every JVM writes only inside the checkout.
NO_PERF_DATA = "-XX:-UsePerfData"
# Java 17 module opens that Spark needs, as its own launcher passes them.
SPARK_JVM_FLAGS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def spark_jars_dir():
    """`$SPARK_HOME/jars`, else the `jars` beside the first `bin/spark-submit`
    on PATH that has one (a Spark distribution, not a pip wrapper)."""
    homes = [os.environ["SPARK_HOME"]] if os.environ.get("SPARK_HOME") else [
        os.path.dirname(os.path.dirname(os.path.realpath(os.path.join(d, "spark-submit"))))
        for d in os.environ.get("PATH", "").split(os.pathsep)
        if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        if os.path.isdir(os.path.join(home, "jars")):
            return os.path.join(home, "jars")
    raise SystemExit("perfbench: no Spark distribution found; set SPARK_HOME")


def scala_library_jar():
    jars = glob.glob(os.path.join(spark_jars_dir(), "scala-library-*.jar"))
    if not jars:
        raise SystemExit(f"perfbench: no scala-library jar under {spark_jars_dir()}")
    return jars[0]


def sources(root):
    main = os.path.join(root, "src", "main", "scala")
    if not os.path.isdir(main):
        raise SystemExit(f"perfbench: {main} not found; run from the repository root")
    found = []
    for base in (main, os.path.join(HERE, "scala")):
        for d, _, files in os.walk(base):
            found += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def out_dir(root):
    return os.path.join(root, ".bench_build", "perfbench")


def spark_classpath(root):
    """The build JVM's classpath: the benchmark jar, then Spark's jars in a fixed
    order."""
    jars = sorted(glob.glob(os.path.join(spark_jars_dir(), "*.jar")))
    return os.pathsep.join([os.path.join(out_dir(root), "perfbench.jar")] + jars)


def fork_classpath(root):
    return os.pathsep.join([os.path.join(out_dir(root), "perfbench.jar"), scala_library_jar()])


def build_jvm_cmd(root, heap, extra, args):
    """Command line of a build JVM (`BuildRun`) with `key=value` arguments."""
    return (["java", NO_PERF_DATA, f"-Xms{heap}", f"-Xmx{heap}"] + SPARK_JVM_FLAGS + extra +
            ["-cp", spark_classpath(root), "repro.perfbench.BuildRun"] +
            [f"{k}={v}" for k, v in args.items()])


def fork_jvm_cmd(root, heap, extra, args):
    """Command line of an answer fork (`AnswerFork`) with `key=value` arguments.
    The harness loops (`AnswerLoops`) compile at 1 % of the usual thresholds;
    the program's own code compiles as usual. The heap is touched at start, so
    no page of it is first faulted in while the answers are timed."""
    return (["java", NO_PERF_DATA, f"-Xms{heap}", f"-Xmx{heap}", "-XX:+AlwaysPreTouch",
             "-XX:+UseSerialGC", "-Xbatch",
             "-XX:CompileCommand=quiet",
             "-XX:CompileCommand=CompileThresholdScaling,repro.perfbench.AnswerLoops::*,0.01"] + extra +
            ["-cp", fork_classpath(root), "repro.perfbench.AnswerFork"] +
            [f"{k}={v}" for k, v in args.items()])


def compile_jar(root, srcs):
    out = out_dir(root)
    tmp = os.path.join(out, "classes")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", NO_PERF_DATA, "-Xss8m", "-Xmx2g", f"-Djava.io.tmpdir={out}",
           "-cp", os.path.join(spark_jars_dir(), "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + srcs
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        raise SystemExit("perfbench: compile failed")
    with zipfile.ZipFile(os.path.join(out, "perfbench.jar"), "w") as z:
        for d, _, files in sorted(os.walk(tmp)):
            for f in sorted(files):
                z.write(os.path.join(d, f), os.path.relpath(os.path.join(d, f), tmp))
    shutil.rmtree(tmp)


def ensure_built(root):
    """Compiles the jar if the sources changed since the last build."""
    srcs = sources(root)
    h = hashlib.sha256(spark_jars_dir().encode())
    for s in srcs + [os.path.abspath(__file__)]:
        h.update(os.path.relpath(s, root).encode())
        with open(s, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    stamp = h.hexdigest()
    out = out_dir(root)
    stamp_file = os.path.join(out, "stamp")
    if os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                return
        os.remove(stamp_file)
    os.makedirs(out, exist_ok=True)
    compile_jar(root, srcs)
    with open(stamp_file, "w") as f:
        f.write(stamp + "\n")


if __name__ == "__main__":
    ensure_built(os.getcwd())
