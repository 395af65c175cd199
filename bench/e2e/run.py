#!/usr/bin/env python3
"""Build and run the bsk end-to-end farm benchmark (see README.md here).

    python3 bench/e2e/run.py --workload farm_shm --seed 7 --seconds 10 --trace 0
    python3 bench/e2e/run.py --selftest

Run from the repository root. The first run configures and builds the bsk
libraries, bskd and the driver from source into .bench_build (or
$CARGO_TARGET_DIR); later runs only re-check the build. Every metric is
printed by name with its unit; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. --selftest plants each
seeded defect and exits non-zero unless every checker catches its defect.
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

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("farm_local", "farm_shm", "farm_tcp", "am_fig3")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    """Configure (once) and build the driver and bskd; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no src/CMakeLists.txt here: run from the repository root")
        return False
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                  "--target", "bsk_e2e", "bskd"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build failed: {e}")
            return False
        if r.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-sha256-" + h.hexdigest()[:16]


def run_driver(out, args):
    """Run the driver once; returns (stdout lines, parsed result) or None."""
    env = dict(os.environ)
    tmp = out / "tmp"  # bskd port files stay inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    (out / "e2e-out").mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "bsk_e2e"), *args, "--bskd", str(out / "bskd"),
           "--out", str(out / "e2e-out"), "--commit", source_id()]
    # Own process group, so a timeout also takes down any bskd it spawned.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                         start_new_session=True)
    try:
        stdout, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        log("driver timed out")
        return None
    lines = stdout.rstrip("\n").split("\n")
    if p.returncode != 0 or not lines:
        log(f"driver exited with {p.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("driver's last line is not JSON")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("driver's result has the wrong keys")
        return None
    return lines[:-1], result


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in json.loads(spec.read_text())[key]}


def bench(a):
    out = build_dir()
    if not build(out):
        return 1
    got = run_driver(out, ["--workload", a.workload, "--seed", str(a.seed),
                           "--seconds", str(a.seconds), "--trace",
                           str(a.trace)])
    if got is None:
        return 1
    lines, result = got
    want = expected_metrics(a.trace)
    have = {k: v["unit"] for k, v in result["metrics"].items()}
    # An incorrect run (e.g. one whose program hung) may carry no metrics.
    if result["correct"] and want is not None and have != want:
        log("metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(have))}, "
            f"extra {sorted(set(have) - set(want))}, units "
            f"{sorted(k for k in want if k in have and want[k] != have[k])}")
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


def selftest(a):
    """Prove each checker can fail: plant a defect, expect the catch."""
    out = build_dir()
    if not build(out):
        return 1
    common = ["--seed", str(a.seed), "--seconds", "3", "--trace", "1"]
    ok = True

    def run(workload, defect):
        got = run_driver(out, ["--workload", workload, *common,
                               "--defect", defect])
        if got is None:
            raise SystemExit(1)
        return got

    for workload in ("farm_local", "farm_shm"):
        base_lines, base = run(workload, "none")
        if not base["correct"] or base["failed"] != 0:
            log(f"{workload}: the defect-free run is not clean")
            ok = False
        for defect in ("drop", "dup"):
            _, r = run(workload, defect)
            caught = r["failed"] > 0 and not r["correct"]
            print(f"{workload} {defect}: failed={r['failed']} "
                  f"correct={r['correct']} -> "
                  f"{'caught' if caught else 'MISSED'}")
            ok &= caught
        lines, r = run(workload, "delay")
        hop = "light.net.process_us_p50"
        before = base["metrics"][hop]["value"]
        after = r["metrics"][hop]["value"]
        # The planted delay is 200 µs per process() call.
        shown = after - before >= 150
        held = not any("hop accounting" in x for x in lines)
        print(f"{workload} delay: {hop} {before:.1f} -> {after:.1f} us "
              f"({'shown' if shown else 'MISSED'}), accounting "
              f"{'holds' if held else 'BROKEN'} "
              f"(hop sum/e2e {r['metrics']['light.trace.hop_sum_frac']['value']:.3f})")
        ok &= shown and held
    print("selftest:", "pass" if ok else "FAIL", flush=True)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.selftest:
        return selftest(a)
    if a.workload is None:
        ap.error("--workload is required")
    return bench(a)


if __name__ == "__main__":
    sys.exit(main())
