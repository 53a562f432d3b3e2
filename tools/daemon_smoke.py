#!/usr/bin/env python3
"""End-to-end smoke test for the jdragd collector daemon.

Spawns a real `jdragd serve` on Unix sockets in a temp directory, streams
one exact benchmark run and then one sampled run of a second benchmark
into it with `jdrag record --connect`, and asserts the daemon's output
surfaces against offline ground truth:

  1. each per-session recording is byte-identical to a plain local
     `jdrag record` of the same benchmark and flags;
  2. after the exact session, the live admin `TOP` is byte-identical to
     `jdragd top` replaying the recorded session file offline; after the
     sampled one, the fleet-wide `TOP` holds exactly the rows of
     `jdragd top` over each session file, in the same order per
     benchmark;
  3. `HEALTH` accounting shows two clean sessions and no errors, and
     `SHUTDOWN` exits the daemon with status 0.

Usage: daemon_smoke.py <jdragd-binary> <jdrag-binary>
"""

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
import time

# The sampled client: a second benchmark, recorded at this sampling rate.
SAMPLED_BENCH = "jack"
SAMPLE_BYTES = "8192"


def fail(msg):
    print(f"daemon_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(argv, **kw):
    return subprocess.run(argv, capture_output=True, text=True, **kw)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("jdragd")
    ap.add_argument("jdrag")
    ap.add_argument("--bench", default="jess")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="jdragd_smoke_") as d:
        sess_sock = os.path.join(d, "s.sock")
        admin_sock = os.path.join(d, "a.sock")
        admin = "unix:" + admin_sock

        def query(cmd):
            return run([args.jdragd, "query", admin] + cmd.split())

        daemon = subprocess.Popen(
            [args.jdragd, "serve", "--unix", sess_sock,
             "--admin-unix", admin_sock, "--dir", d])
        try:
            for _ in range(500):
                r = query("PING")
                if r.returncode == 0 and "PONG" in r.stdout:
                    break
                time.sleep(0.01)
            else:
                fail("daemon did not answer PING")

            spool = os.path.join(d, "spool.jdev")
            r = run([args.jdrag, "record", args.bench, spool,
                     "--connect", "unix:" + sess_sock])
            if r.returncode != 0:
                fail(f"jdrag record --connect rc={r.returncode}: {r.stderr}")
            if os.path.exists(spool):
                fail("spool file exists after a successful streamed run")

            session = os.path.join(d, f"session-0-{args.bench}.jdev")
            if not os.path.exists(session):
                fail(f"daemon wrote no session recording at {session}")

            # (1) daemon-side recording == local recording, byte for byte.
            local = os.path.join(d, "local.jdev")
            r = run([args.jdrag, "record", args.bench, local])
            if r.returncode != 0:
                fail(f"local jdrag record rc={r.returncode}: {r.stderr}")
            if not filecmp.cmp(session, local, shallow=False):
                fail("daemon session recording differs from local record")

            # (2) live aggregate == offline replay of the recording.
            live = query("TOP 10")
            if live.returncode != 0:
                fail(f"TOP query rc={live.returncode}: {live.stderr}")
            offline = run([args.jdragd, "top", args.bench, session,
                           "--top", "10"])
            if offline.returncode != 0:
                fail(f"jdragd top rc={offline.returncode}: {offline.stderr}")
            if live.stdout != offline.stdout or not live.stdout.strip():
                fail("admin TOP differs from offline `jdragd top`:\n"
                     f"--- live ---\n{live.stdout}"
                     f"--- offline ---\n{offline.stdout}")

            # A sampled client of a second benchmark joins the fleet.
            sampled = SAMPLED_BENCH
            flags = ["--sample-bytes", SAMPLE_BYTES]
            r = run([args.jdrag, "record", sampled, spool,
                     "--connect", "unix:" + sess_sock] + flags)
            if r.returncode != 0:
                fail(f"sampled jdrag record --connect rc={r.returncode}: "
                     f"{r.stderr}")
            for _ in range(500):
                if "sessions_clean=2" in query("HEALTH").stdout:
                    break
                time.sleep(0.01)
            else:
                fail("sampled session was never finalized")
            session2 = os.path.join(d, f"session-1-{sampled}.jdev")
            local2 = os.path.join(d, "local-sampled.jdev")
            r = run([args.jdrag, "record", sampled, local2] + flags)
            if r.returncode != 0:
                fail(f"local sampled record rc={r.returncode}: {r.stderr}")
            if not filecmp.cmp(session2, local2, shallow=False):
                fail("sampled session recording differs from local record")

            # Fleet TOP == the union of both sessions' offline rows. The
            # rank column differs once rows interleave, so compare rows
            # without it: same set, same order within each benchmark.
            def rows(text):
                return [line.split(None, 1)[1]
                        for line in text.splitlines() if line.strip()]

            live = query("TOP 100000")
            if live.returncode != 0:
                fail(f"TOP query rc={live.returncode}: {live.stderr}")
            fleet = rows(live.stdout)
            offline_rows = []
            for bench, path in ((args.bench, session), (sampled, session2)):
                r = run([args.jdragd, "top", bench, path, "--top", "100000"])
                if r.returncode != 0:
                    fail(f"jdragd top {bench} rc={r.returncode}: {r.stderr}")
                mine = rows(r.stdout)
                in_fleet = [row for row in fleet
                            if f"  {bench}  " in row]
                if mine != in_fleet or not mine:
                    fail(f"fleet TOP rows for {bench} differ from "
                         f"`jdragd top`:\n--- live ---\n{live.stdout}"
                         f"--- offline ---\n{r.stdout}")
                offline_rows += mine
            if sorted(fleet) != sorted(offline_rows):
                fail("fleet TOP holds rows no session file accounts for")
            if "[sampled estimate]" not in live.stdout:
                fail("fleet TOP does not flag the sampled session's rows")
            clients = query("CLIENTS").stdout
            if f"sample={SAMPLE_BYTES}" not in clients:
                fail(f"CLIENTS does not show the sampling rate:\n{clients}")

            # (3) accounting and clean shutdown.
            health = query("HEALTH").stdout
            for want in ("sessions_total=2", "sessions_clean=2",
                         "decode_errors=0", "protocol_errors=0",
                         "bye_mismatches=0"):
                if want not in health:
                    fail(f"HEALTH missing '{want}':\n{health}")
            if query("SHUTDOWN").returncode != 0:
                fail("SHUTDOWN query failed")
            rc = daemon.wait(timeout=30)
            if rc != 0:
                fail(f"daemon exited with status {rc}")
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    print("daemon_smoke: OK (recordings, exact and mixed-fleet TOP, and "
          "HEALTH all match)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
