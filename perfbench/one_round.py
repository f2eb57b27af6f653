"""Run one untraced round of a workload in this fresh interpreter.

    python3 perfbench/one_round.py <workload> <seed> <round>

``run.py`` starts one of these per round, so that no cache of the library
(``models(12)``, the subgroup keys, ...) carries over from one round to the
next: every round pays what a fresh session pays.  Prints the round as one
JSON line: the timed part in reference seconds and raw wall seconds, the
operations attempted and failed, the problems the checks found, the
process's peak memory (for cli-proofs that of its largest command) and the
round's details.
"""

import json
import resource
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from clock import Clock  # noqa: E402


def main(name, seed, index):
    with Clock() as clock:
        rnd = workloads.WORKLOADS[name](seed, index, clock)
    if name == "cli-proofs":
        peak_kb = rnd.details["peak_rss_kb"]
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    details = {k: v for k, v in rnd.details.items() if k not in ("stdout", "trace")}
    print(json.dumps({"ref_s": rnd.ref_s, "wall_s": rnd.wall_s, "attempted": rnd.attempted, "failed": rnd.failed,
                      "problems": rnd.problems, "peak_rss_kb": peak_kb, "details": details}))


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
