#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny size, end to end.

    python3 perfbench/selftest.py

Run from the repository root. For each workload it runs run.py --tiny
untraced and traced and asserts that the result line carries exactly the
metric names and units of BENCHMARK.json and that every correctness check
passed; then it reruns untraced with --corrupt-expected (one reference
digest deliberately wrong) and asserts the run reports a failure. Last it
cuts a step off at its drain deadline and asserts that the next step on
the same generator takes none of the late replies for its own. Exits 0
when everything holds.
"""

import json
import os
import random
import shutil
import subprocess
import sys

RUN = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "2", "--tiny"]


def result(workload, *extra):
    proc = subprocess.run(RUN + ["--workload", workload, *extra], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} {extra}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(got, expected, label):
    names = {m["name"]: m["unit"] for m in expected}
    printed = {name: m["unit"] for name, m in got["metrics"].items()}
    assert printed == names, f"{label}: metrics/units differ: {set(printed) ^ set(names)}"
    for name, m in got["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} is not a number"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, spec in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            got = result(workload, "--trace", trace)
            label = f"{workload} --trace {trace}"
            check_metrics(got, spec, label)
            assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1, \
                f"{label}: correctness failed: {got['attempted']} attempted, {got['failed']} failed"
            print(f"ok   {label}: {len(spec)} metrics, {got['attempted']} attempted, 0 failed")
        bad = result(workload, "--trace", "0", "--corrupt-expected")
        assert not bad["correct"] and bad["failed"] >= 1, \
            f"{workload}: a wrong reference digest was not counted as a failure"
        print(f"ok   {workload} --corrupt-expected: {bad['failed']} failed, as it must")
    deadline_step()
    print("selftest passed")


def deadline_step():
    """A burst with no drain time leaves replies owed on every connection;
    the paced step after it must see no digest mismatch."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import run
    bins = run.build()
    work = os.path.join(run.BUILD, "run", f"selftest-deadline-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    dep = run.Deployment(bins, work)
    try:
        dep.start()
        keys = [("S-1", topology, None) for topology in range(4)]
        path = os.path.join(work, "warm-replies.txt")
        run.loadgen(bins, work, dep, keys, [(0, 1)], 7, 1e9, replies=path)
        digest = {(r["spec"], r["topology"]): r["digest"] for r in run.read_replies(path)}
        pick = random.Random(7)
        stream = [k[:2] + (digest[k[:2]],) for k in (pick.choice(keys) for _ in range(600))]
        burst, paced = run.loadgen(bins, work, dep, stream, [(20000, 0.02), (200, 1)], 7,
                                   1e9, drain_ms=0)
    finally:
        dep.stop()
        shutil.rmtree(work, ignore_errors=True)
    assert burst["failed"] > 0, "the burst was not cut by its deadline; the case tests nothing"
    assert paced["mismatched"] == 0, \
        f"{paced['mismatched']} replies of the cut step were taken by the next one"
    assert paced["ok"] > paced["sent"] // 2, f"paced step: only {paced['ok']} of {paced['sent']} ok"
    print(f"ok   deadline: {burst['failed']} cut, next step {paced['ok']}/{paced['sent']} ok, "
          "0 mismatched")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as error:
        print(f"selftest FAILED: {error}", file=sys.stderr)
        sys.exit(1)
