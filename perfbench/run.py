"""Benchmark of the triality library and CLI.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from a checkout of the repository; triality is imported from its
``src``.  A run repeats whole rounds of its workload, each in a fresh
interpreter, until the timed part has lasted ``--seconds`` (at least one
round), checks every output, and prints one JSON line last: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run makes one traced round
and reports the per-layer metrics.  The run's details (raw wall times,
per-round figures) go to ``out/details-<workload>-<seed>-<trace>.json``.
``--workload all`` runs every workload in turn, each in its own process.
The exit code is 0 when every check passed and no operation failed
unexpectedly, 1 otherwise, and 2 on a usage error or when the checkout
holds no triality sources.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = ("setup_s", "run_s", "peak_rss_mb")
UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
ROUND_TIMEOUT_S = 165


def fresh_round(name, seed, index):
    """One untraced round in a fresh interpreter (``one_round.py``), so that
    no cache of the library carries over from an earlier round."""
    import workloads

    argv = [sys.executable, str(HERE / "one_round.py"), name, str(seed), str(index)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except BaseException as exc:
        proc.terminate()  # one_round.py unwinds and stops its own child
        try:
            proc.wait(10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return workloads.Round(attempted=1, failed=1, problems=[f"round {index} outlived {ROUND_TIMEOUT_S} s"])
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return workloads.Round(attempted=1, failed=1, problems=[f"round {index}: exit {proc.returncode}"])
    r = json.loads(lines[-1])
    details = dict(r["details"], peak_rss_kb=r["peak_rss_kb"])
    return workloads.Round(r["ref_s"], r["wall_s"], r["attempted"], r["failed"], r["problems"], details)


def untraced(name, seed, seconds):
    import workloads
    from clock import Clock

    with Clock() as clock:
        setup = workloads.measure_setup(clock)
    rounds = []
    while not rounds or sum(r.ref_s for r in rounds) < seconds:
        rounds.append(fresh_round(name, seed, len(rounds)))
    metrics = {
        "setup_s": statistics.median(ref for ref, _wall in setup),
        "run_s": statistics.median(r.ref_s for r in rounds),
        "peak_rss_mb": max(r.details.get("peak_rss_kb", 0) for r in rounds) / 1024,
    }
    details = {
        "setup_s": setup,
        "rounds": [{"ref_s": r.ref_s, "wall_s": r.wall_s, **r.details} for r in rounds],
    }
    return rounds, metrics, details


def per_layer_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def traced(name, seed):
    """One traced round: spans and counters in this process, or for
    cli-proofs in one traced launcher per command."""
    import tracing
    import workloads
    from clock import Clock

    tracer = None
    if name != "cli-proofs":
        tracer = tracing.Tracer()
        tracer.install()
    try:
        with Clock() as clock:
            rnd = workloads.WORKLOADS[name](seed, 0, clock, traced=True)
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        tracer.write(workloads.OUT / f"trace-{name}")
        summary = tracing.summarize([tracer], clock)
    else:
        summary = rnd.details["trace"]

    values = {}
    for span, row in summary["spans"].items():
        for q, v in row.items():
            values[f"{span}.{q}"] = v
    c = summary["counters"]
    values.update({k: v for k, v in c.items() if k.endswith(".calls")})
    values["scalars.mul.rational_ratio"] = c["scalars.mul.rational"] / c["scalars.mul.calls"] if c["scalars.mul.calls"] else 0.0
    inserts = summary["spans"].get("linalg.Echelon.insert", {}).get("calls", 0)
    values["linalg.Echelon.insert.useful_ratio"] = c["linalg.Echelon.insert.useful"] / inserts if inserts else 0.0
    for label, wall in rnd.details.get("cli_wall_s", {}).items():
        values[f"cli.{label}.wall_s"] = wall
    if "decisions" in rnd.details:
        values["sweep.decisions_per_s"] = rnd.details["decisions"] / rnd.details["decide_s"]
        values["sweep.invariants_per_s"] = rnd.details["builds"] / rnd.details["invariants_s"]
    values["trace.run_s"] = rnd.ref_s
    metrics = {n: {"value": values.get(n, 0), "unit": u} for n, u in per_layer_names()}
    details = {"ref_s": rnd.ref_s, "wall_s": rnd.wall_s, **{k: v for k, v in rnd.details.items() if k not in ("stdout", "trace")}}
    return [rnd], metrics, details


def result(rounds, metrics):
    """The problems of the rounds, and the result line.  An operation that
    failed unexpectedly is a problem of its round (``Round.fail``)."""
    problems = [p for r in rounds for p in r.problems]
    return problems, {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def run_one(args):
    import workloads

    workloads.OUT.mkdir(exist_ok=True)
    if args.trace:
        rounds, metrics, details = traced(args.workload, args.seed)
    else:
        rounds, values, details = untraced(args.workload, args.seed, args.seconds)
        metrics = {n: {"value": values[n], "unit": UNITS[n]} for n in END_TO_END}
    problems, res = result(rounds, metrics)
    for p in problems[:20]:
        sys.stderr.write(f"CHECK FAILED: {p}\n")
    path = workloads.OUT / f"details-{args.workload}-{args.seed}-{args.trace}.json"
    path.write_text(json.dumps({"metrics": {k: v["value"] for k, v in metrics.items()}, "details": details}, indent=1))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


def run_all(args):
    """Each workload in its own process; a table of every metric."""
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            code = code or proc.returncode or 1
            if not lines:
                continue
        res = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:48s} {m['value']:>14.6g} {m['unit']}")
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "triality" / "__init__.py").is_file():
        sys.stderr.write(f"no triality sources under {SRC}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    import triality
    import clock
    import workloads

    if not Path(triality.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"triality was imported from {triality.__file__}, not from {SRC}\n")
        return 2

    if args.workload == "all":
        return run_all(args)
    clock.pin()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    t0 = time.perf_counter()
    code = main()
    sys.stderr.write(f"run.py: {time.perf_counter() - t0:.1f} s\n")
    sys.exit(code)
