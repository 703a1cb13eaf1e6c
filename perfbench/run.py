#!/usr/bin/env python3
"""lclscape end-to-end benchmark entry point.

Builds lcl_perfbench and lcld from the source tree one directory up
(CMake + Ninja, RelWithDebInfo, into $CARGO_TARGET_DIR or .bench_build),
runs one workload and relays its output; the last stdout line is
the result document. See perfbench/README.md.

    python3 perfbench/run.py --workload survey-cold --seed 1 --seconds 15 --trace 0
"""

import argparse
import os
import pathlib
import shutil
import signal
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("survey-cold", "survey-warm", "service-mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build(build_dir):
    """Configures once, then builds lcl_perfbench and lcld incrementally."""
    log = build_dir / "perfbench-build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as out:
        if not (build_dir / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=out, stderr=out) != 0:
                return False
        compile_cmd = ["cmake", "--build", str(build_dir), "--target",
                       "lcl_perfbench", "lcld", "-j", "4"]
        if subprocess.call(compile_cmd, stdout=out, stderr=out) != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny family and short phases (plumbing check)")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        return fail(f"no lclscape source tree at {ROOT}")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(build_dir):
        log = build_dir / "perfbench-build.log"
        tail = log.read_text(errors="replace")[-4000:] if log.is_file() else ""
        return fail(f"build failed; see {log}\n{tail}")

    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    command = [str(build_dir / "lcl_perfbench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--verdicts={BENCH_DIR / 'verdicts.tsv'}",
               f"--workdir={workdir}",
               f"--lcld={build_dir / 'tools' / 'lcld'}"]
    if args.smoke:
        command.append("--smoke")
    # Its own process group, so a timeout also takes down the lcld it started.
    child = subprocess.Popen(command, cwd=ROOT, preexec_fn=os.setpgrp)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
