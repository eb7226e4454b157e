#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: python3 e2ebench/selftest.py

Checks, on the e2ebench binary that run.py builds:
  * two runs of each workload give the same simulated-stats digest, and a
    traced run gives the digest of an untraced one;
  * devmem_fleet on the parallel event core matches its serial digest;
  * a second seed passes every check too;
  * the traced breakdown follows BENCHMARK.json's predictions: host
    hierarchy plus PCIe/SMMU dominate host_contention, devmem plus accel
    dominate devmem_fleet's model layers, and the serial workloads cross no
    barrier.
Exits 1 on the first failed check.
"""

import json
import subprocess
import sys

import run

HOST_PATH = ("mem.membus", "cache", "mem.hostmem", "pcie.rc", "pcie.switch",
             "pcie.link", "smmu")
MODEL_LAYERS = HOST_PATH + ("mem.devmem", "accel", "cpu", "workload")


def once(workload, seed, traced=False, threads=None):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if threads is not None:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170,
                          check=False)
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = (proc.returncode == 0 and not rec["problems"]
          and rec["failed_ops"] == 0 and not rec.get("unmapped", []))
    check(ok, f"{workload} seed {seed} threads {rec['threads']}: problems "
              f"{rec['problems']}, unmapped {rec.get('unmapped', [])}")
    return rec


def check(cond, what):
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def share(layers, names):
    total = sum(layers[n + ".host_ms"] for n in MODEL_LAYERS)
    return sum(layers[n + ".host_ms"] for n in names) / total


def main():
    run.build()
    digests = {}
    for w in run.WORKLOADS:
        a = once(w, 1)
        b = once(w, 1)
        t = once(w, 1, traced=True)
        check(a["stats_digest"] == b["stats_digest"] == t["stats_digest"],
              f"{w}: repeat and traced runs share digest {a['stats_digest']}")
        digests[w] = a["stats_digest"]
        layers = t["layers"]
        if w == "host_contention":
            s = share(layers, HOST_PATH)
            check(s > 0.6, f"{w}: host hierarchy + PCIe/SMMU take {s:.0%}")
        if w == "devmem_fleet":
            s = share(layers, ("mem.devmem", "accel"))
            check(s > 0.6, f"{w}: devmem + accel take {s:.0%}")
        if t["threads"] == 1:
            check(layers["sim.barriers"] == 0, f"{w}: no barriers (serial)")
        else:
            check(layers["sim.barriers"] > 0, f"{w}: barriers (parallel)")

    serial = once("devmem_fleet", 1, threads=1)
    check(serial["stats_digest"] == digests["devmem_fleet"],
          "devmem_fleet: serial digest equals parallel digest")

    # GEMM timing does not depend on operand values, so only the serving
    # workload's digest (its arrival schedule) changes with the seed.
    for w in run.WORKLOADS:
        other = once(w, 2)
        check(w != "serving_overload" or other["stats_digest"] != digests[w],
              f"{w}: seed 2 passes every check (digest "
              f"{other['stats_digest']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
