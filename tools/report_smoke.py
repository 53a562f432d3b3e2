#!/usr/bin/env python3
"""End-to-end smoke for the streaming analysis engine, driven through
the `jdrag` CLI the way a user would hit it:

    report_smoke.py <jdrag-binary> <workdir>

The chain, on the `jess` workload (deterministic replayable VM), once
per wire fixture -- v4 (`--compress=off`) and v6 (default, compressed):

  1. record the .jdev fixture;
  2. for each of report / timeline / lagdragvoid: run the streaming
     pass and the sharded (`--jobs 4`) streaming pass, and require both
     stdouts byte-identical;
  3. report: the streamed report must also equal the one rendered from
     the materialized object log (`jdrag replay --out LOG`, then
     `jdrag report <bench> LOG`), and the replay's own report;
  4. export: the streamed CSV file, compared across fixtures below;
  5. cross-fixture: the v4 and v6 recordings describe the same run, so
     every report of one must equal the same report of the other.

The curves, lifetimes and CSV are checked against the materialized
reference functions by the golden digests in
tests/data/golden/reports.txt (ReportGolden.*).

Exit status 0 = every diff came back empty; the first failing step
prints both sides' context and exits 1. No temp files outside
<workdir>.
"""

import os
import subprocess
import sys


def fail(msg):
    print(f"report_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(argv):
    r = subprocess.run(argv, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT)
    if r.returncode != 0:
        fail(f"{' '.join(argv)} exited {r.returncode}:\n"
             + r.stdout.decode(errors="replace"))
    return r.stdout


def expect_same(what, a, b):
    if a != b:
        fail(f"{what}: outputs differ\n--- first ---\n"
             f"{a.decode(errors='replace')}\n--- second ---\n"
             f"{b.decode(errors='replace')}")


def main():
    if len(sys.argv) != 3:
        fail("usage: report_smoke.py <jdrag-binary> <workdir>")
    jdrag, work = sys.argv[1], sys.argv[2]
    os.makedirs(work, exist_ok=True)
    bench = "jess"

    outputs = {}  # (fixture, command) -> canonical stdout
    for fixture, extra in (("v4", ["--compress=off"]), ("v6", [])):
        jdev = os.path.join(work, f"{bench}_{fixture}.jdev")
        run([jdrag, "record", bench, jdev] + extra)

        for cmd in ("report", "timeline", "lagdragvoid"):
            streamed = run([jdrag, cmd, bench, jdev])
            sharded = run([jdrag, cmd, bench, jdev, "--jobs", "4"])
            expect_same(f"{fixture} {cmd}: streaming vs --jobs 4",
                        streamed, sharded)
            outputs[(fixture, cmd)] = streamed

        log = os.path.join(work, f"{bench}_{fixture}.jdlog")
        replayed = run([jdrag, "replay", bench, jdev, "--out", log])
        from_log = run([jdrag, "report", bench, log])
        expect_same(f"{fixture} report: streaming vs replay",
                    outputs[(fixture, "report")], replayed)
        expect_same(f"{fixture} report: streaming vs the replayed .jdlog",
                    outputs[(fixture, "report")], from_log)

        csv_s = os.path.join(work, f"{bench}_{fixture}_stream.csv")
        run([jdrag, "export", bench, csv_s, jdev])
        with open(csv_s, "rb") as f:
            outputs[(fixture, "export")] = f.read()

    # The two fixtures are recordings of the same deterministic run, so
    # every analysis must agree across them too.
    for cmd in ("report", "timeline", "lagdragvoid", "export"):
        expect_same(f"v4 vs v6: {cmd}", outputs[("v4", cmd)],
                    outputs[("v6", cmd)])

    print("report_smoke: OK")


if __name__ == "__main__":
    main()
