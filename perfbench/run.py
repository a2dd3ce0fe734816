#!/usr/bin/env python3
"""Build the server and the benchmark from source, then run the benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload read-ucq --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 12]

The first form passes every argument through to the benchmark executable
(see perfbench/README.md); the last line of its stdout is the JSON result.
The second runs every workload untraced and prints each end-to-end metric
by name with its unit, and the result of the answer checks; it exits
non-zero when a check fails. The build goes to dune's own _build
directory and its output to stderr. A failed build exits non-zero
without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OBDA = os.path.join("_build", "default", "bin", "obda.exe")
WORKLOADS = ["read-ucq", "read-datalog", "prepare-miss", "write-mix"]


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune is not installed")


def run_all(argv):
    parser = argparse.ArgumentParser(prog="run.py --all")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="12")
    args = parser.parse_args(argv)
    ok = True
    print("%-13s %-22s %14s  %s" % ("workload", "metric", "value", "unit"))
    for workload in WORKLOADS:
        out = subprocess.run(
            [EXE, "--obda", OBDA, "--workload", workload, "--seed", args.seed,
             "--seconds", args.seconds, "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("%-13s failed to run (exit %d)" % (workload, out.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        metrics = dict(result["metrics"])
        for line in lines[:-1]:
            metrics.update(json.loads(line).get("also", {}))
        for name, m in metrics.items():
            print("%-13s %-22s %14.6g  %s" % (workload, name, m["value"], m["unit"]))
        print("%-13s checks: correct=%s attempted=%d failed=%d" % (
            workload, str(result["correct"]).lower(), result["attempted"], result["failed"]))
        ok = ok and result["correct"]
    sys.exit(0 if ok else 1)


def main():
    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the root of the repository (no dune-project here)")
    # No shared dune cache: the build reads and writes inside the checkout.
    build = subprocess.run(
        dune() + ["build", "--root", ".", "bin/obda.exe", "perfbench/main.exe"],
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    if "--all" in sys.argv[1:]:
        run_all(sys.argv[1:])
    sys.stdout.flush()
    os.execv(EXE, [EXE, "--obda", OBDA] + sys.argv[1:])


if __name__ == "__main__":
    main()
