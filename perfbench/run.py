#!/usr/bin/env python3
"""The end-to-end benchmark of this repository.

Run from the root of a checkout:

    python3 perfbench/run.py --workload avl-churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

A measuring run builds `perfbench/perfbench.exe` and `bin/alphonsec.exe`
from source with dune, runs one workload, forwards its report and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones. `--smoke` runs every workload in both modes on tiny
inputs and checks that every metric of BENCHMARK.json prints with its
unit and that every oracle passes.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
ALPHONSEC = os.path.join("_build", "default", "bin", "alphonsec.exe")
STATE_DIR = ".perfbench-state"
NEEDED = ["dune-project", "lib", os.path.join("bin", "alphonsec.ml"),
          os.path.join("perfbench", "dune"), "BENCHMARK.json"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        fail("not the root of a checkout (missing %s)" % ", ".join(missing))
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = shutil.which("dune")
    if dune is None:
        # an opam switch that is installed but not on PATH
        found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
        if not found:
            fail("dune is not on PATH")
        dune = found[-1]
        env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    cmd = [dune, "build", "--root", ".", "--display", "quiet",
           "./perfbench/perfbench.exe", "./bin/alphonsec.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed", r.returncode)


def run_exe(args, timeout):
    """Runs the benchmark executable in its own process group, so that a
    timeout also stops the daemon it spawned. Returns (code, stdout)."""
    shutil.rmtree(STATE_DIR, ignore_errors=True)
    cmd = [EXE, "--alphonsec", ALPHONSEC, "--state-dir", STATE_DIR] + args
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        return 124, ""
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(STATE_DIR, ignore_errors=True)
    return p.returncode, out


def result_of(out):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        r = json.loads(lines[-1])
    except ValueError:
        return None
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return r


def smoke(spec):
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_exe(["--workload", w, "--seed", "1", "--seconds",
                                 "0.5", "--trace", trace, "--smoke"], 170)
            r = result_of(out) if code == 0 else None
            problems = []
            if r is None:
                problems.append("no result (exit %d)" % code)
            else:
                if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                    problems.append("oracle failed: %d of %d"
                                    % (r["failed"], r["attempted"]))
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v.get("unit") for k, v in r["metrics"].items()}
                if want != got:
                    problems.append("metrics differ from BENCHMARK.json: %s"
                                    % sorted(set(want.items()) ^ set(got.items())))
            print("%-13s trace %s: %s" % (w, trace, "; ".join(problems) or "ok"))
            ok = ok and not problems
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload, both modes, tiny inputs")
    a = ap.parse_args()
    build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if a.smoke:
        sys.exit(0 if smoke(spec) else 1)
    if a.workload not in [x["name"] for x in spec["workloads"]]:
        fail("unknown workload %r" % a.workload)
    code, out = run_exe(["--workload", a.workload, "--seed", str(a.seed),
                         "--seconds", str(a.seconds), "--trace", a.trace], 165)
    if code != 0 or result_of(out) is None:
        fail("benchmark run failed (exit %d)" % code, code or 1)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
