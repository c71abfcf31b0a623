#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload engine-sparse --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
library, the `evencycle` CLI and the perfbench driver from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build. All other arguments go to the driver, whose last
line of standard output is the JSON result. --self-test builds, runs the
metric-math self-tests, then every workload (BENCHMARK.json's and the
hand-run service-mixed) at --smoke size with and without tracing, and
checks each result against BENCHMARK.json.
"""
import json
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "RelWithDebInfo"
TARGETS = ["perfbench", "perfbench_selftest", "evencycle_cli"]
RUN_TIMEOUT_S = 170
HAND_RUN = ["service-mixed"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not base.is_absolute():
        base = pathlib.Path.cwd() / base
    return base / "perfbench"


def build(bdir):
    if not (ROOT / "src" / "evencycle" / "api.hpp").is_file():
        fail(f"no evencycle sources under {ROOT}; run from a full checkout")
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    with open(log, "w") as out:
        if not (bdir / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", str(HERE), "-B", str(bdir),
                         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *generator]
            if subprocess.run(configure, stdout=out, stderr=subprocess.STDOUT).returncode:
                shutil.rmtree(bdir / "CMakeFiles", ignore_errors=True)
                (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                print(log.read_text()[-4000:], file=sys.stderr)
                fail("configure failed")
        jobs = str(os.cpu_count() or 1)
        command = ["cmake", "--build", str(bdir), "-j", jobs, "--target", *TARGETS]
        if subprocess.run(command, stdout=out, stderr=subprocess.STDOUT).returncode:
            print(log.read_text()[-4000:], file=sys.stderr)
            fail("build failed")


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def driver_command(bdir, args):
    out = bdir / "out"
    out.mkdir(exist_ok=True)
    # The service socket lives here; a relative path keeps it inside the
    # 108-byte sockaddr_un limit however deep the checkout is.
    out_arg = os.path.relpath(out)
    if len(out_arg) > len(str(out)):
        out_arg = str(out)
    cli = bdir / "evencycle" / "tools" / "evencycle"
    return [str(bdir / "perfbench"), *args, "--server-bin", str(cli), "--out-dir", out_arg,
            "--build-type", BUILD_TYPE, "--git-commit", git_commit()]


def run_driver(command, capture=False):
    """Runs the driver in its own process group; on timeout the whole group
    (the driver and any server it started) is killed and waited for."""
    proc = subprocess.Popen(command, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, stdout


def self_test(bdir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(spec) != ["command", "end_to_end", "paths", "per_layer", "run_seconds",
                        "workloads"]:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + \
        [w["name"] for w in spec["workloads"]]
    problems += [f"bad or repeated name {n}" for n in names
                 if not name_re.match(n) or names.count(n) > 1]
    problems += [f"{m['name']}: bound above 0.25" for m in spec["end_to_end"]
                 if not 0 < m["bound"] <= 0.25]
    code, _ = run_driver([str(bdir / "perfbench_selftest")])
    if code:
        problems.append("perfbench_selftest failed")
    # service-mixed is not one of BENCHMARK.json's workloads (see README.md)
    # but stays runnable by hand and prints the same metrics.
    for workload in [w["name"] for w in spec["workloads"]] + HAND_RUN:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
                    "--smoke"]
            code, stdout = run_driver(driver_command(bdir, args), capture=True)
            label = f"{workload} trace={trace}"
            try:
                result = json.loads(stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                problems.append(f"{label}: last line is not JSON (exit {code})")
                continue
            wanted = spec["per_layer" if trace == "1" else "end_to_end"]
            if code != 0 or result.get("correct") is not True:
                problems.append(f"{label}: exit {code}, correct={result.get('correct')}")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result.get("attempted", 0) < 1:
                problems.append(f"{label}: attempted < 1")
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} missing or unit {got}")
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                problems.append(f"{label}: metric set differs from BENCHMARK.json")
            if trace == "1":
                trace_file = bdir / "out" / f"trace-{workload}-7-smoke.json"
                events = json.loads(trace_file.read_text()).get("traceEvents")
                if not events or any(e.get("ph") != "X" for e in events):
                    problems.append(f"{label}: {trace_file} is not a Chrome trace")
            print(f"self-test: {label}: exit {code}", file=sys.stderr)
    for problem in problems:
        print(f"self-test FAIL: {problem}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def main(argv):
    bdir = build_dir()
    build(bdir)
    if argv == ["--self-test"]:
        return self_test(bdir)
    code, _ = run_driver(driver_command(bdir, argv))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
