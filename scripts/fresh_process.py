#!/usr/bin/env python3
"""What each dgzsl command costs in a process of its own.

Runs every COMMAND (one quoted string of dgzsl words each, in order) as
`python -m dgzsl.cli WORDS` in a new interpreter pinned to one BLAS thread
(no other *_THREADS variable overrides DGZSL_THREADS), with its standard
output discarded. For each it prints one JSON line, read from os.wait4:

  wall_s        wall time from spawn to exit
  maxrss_mb     peak resident set (ru_maxrss, KiB on Linux, / 1024)
  minflt        minor page faults
  user_s sys_s  CPU time in user and kernel mode
  rc            exit code

The command is run with the dgzsl that `python -m dgzsl.cli` finds, so
PYTHONPATH picks the tree to measure. The exit code is 1 if any command
failed.

Example:
    PYTHONPATH=src python3 scripts/fresh_process.py \\
        "synth --out /tmp/d --seed 0" \\
        "train --config configs/synth-transductive.cfg --data /tmp/d --out /tmp/r" \\
        "eval --checkpoint /tmp/r/model.ckpt --data /tmp/d"

A command may repeat. Three exports into one --out time a first write and
two rewrites of the same files, which is where a filesystem that flushes
on rename shows:
    PYTHONPATH=src python3 scripts/fresh_process.py \\
        "export --checkpoint /tmp/r/model.ckpt --data /tmp/d --out /tmp/e" \\
        "export --checkpoint /tmp/r/model.ckpt --data /tmp/d --out /tmp/e" \\
        "export --checkpoint /tmp/r/model.ckpt --data /tmp/d --out /tmp/e"
"""

import argparse
import json
import os
import shlex
import sys
import time


def measure(words: list[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    env["DGZSL_THREADS"] = "1"
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "dgzsl.cli", *words], env, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {
        "command": shlex.join(words),
        "wall_s": round(wall, 4),
        "maxrss_mb": round(usage.ru_maxrss / 1024, 1),
        "minflt": usage.ru_minflt,
        "user_s": round(usage.ru_utime, 4),
        "sys_s": round(usage.ru_stime, 4),
        "rc": os.waitstatus_to_exitcode(status),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commands", nargs="+", metavar="COMMAND", help="dgzsl words in one string")
    args = parser.parse_args(argv)
    failed = False
    for command in args.commands:
        record = measure(shlex.split(command))
        print(json.dumps(record, sort_keys=True), flush=True)
        failed |= record["rc"] != 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
