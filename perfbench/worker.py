"""Runs one in-process workload; also holds the closed loop shared with
the CLI workload.

Usage (from the root of a checkout, with src on PYTHONPATH):

    python3 perfbench/worker.py < job.json

The job is one JSON object: {"workload", "ops", "seconds", "deadline",
"pass_limit", "trace", "probe"}.  The worker imports the package, turns the ops into
program objects, prints "ready", and then (unless it is only a set-up
probe) prints one JSON line with the per-operation results of the
untraced pass and, with "trace", of a traced replay of the same rounds.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
from fractions import Fraction
from time import perf_counter


class EntryTimeout(Exception):
    pass


def run_rounds(ops, call, seconds: float, deadline: float, limit: float,
               rounds: int | None = None) -> dict:
    """Closed loop over whole rounds of ops, one operation at a time.

    Without a fixed round count, the loop runs the whole number of rounds
    nearest to `seconds` at the pace of the rounds so far: another round
    starts while it would end at most half a round past `seconds`.  The
    first round always runs.  Whole rounds keep the mix of entries the
    same in every run.  Entries reached after `limit` seconds are recorded
    as not run.  Returns {"results", "rounds", "wall", "round_walls"}.
    """
    results = []
    round_walls = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for index, op in enumerate(ops):
            t = perf_counter()
            if t - start > limit:
                status, output = "not run: pass time limit", None
            else:
                status, output = call(op, deadline)
            results.append({"op": index, "s": perf_counter() - t,
                            "status": status, "out": output})
        round_walls.append(perf_counter() - round_start)
        done = len(round_walls)
        elapsed = perf_counter() - start
        if rounds is not None:
            if done >= rounds:
                break
        elif elapsed + elapsed / done / 2 > seconds or elapsed > limit:
            break
    return {"results": results, "rounds": len(round_walls),
            "wall": perf_counter() - start, "round_walls": round_walls}


def peak_rss_kb() -> int:
    """Peak resident set of this process image, in KiB.

    ru_maxrss is not used: Linux carries the parent's resident set at
    spawn time across exec, so it would report the benchmark's own
    process whenever that is the larger one."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _on_alarm(signum, frame):
    raise EntryTimeout()


def guarded(fn, deadline: float):
    """(status, output) of fn() under a wall-clock deadline.  A timeout or
    an exception is recorded, never dropped."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        return "ok", fn()
    except EntryTimeout:
        return "timeout", None
    except Exception as exc:  # the loop must go on and count the failure
        return f"error: {type(exc).__name__}: {exc}", None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _grading_call(lie, grading):
    def build(op):
        return op["kind"], op["n"], tuple(op["lam"])

    def run(entry):
        kind, n, lam = entry
        rep = grading.report(lie.make_classical(kind, n), grading.HodgeCocharacter(lam))
        return {"levels": [list(x) for x in rep.levels],
                "flag_dim": rep.flag_dim, "hcodim": rep.hcodim}

    return build, run


def _trdeg_call(flags, ratfunc, polys, fields):
    def build(op):
        field = ratfunc.FunctionField(fields.QQ, tuple(f"t{i + 1}" for i in range(op["k"])))
        vectors = tuple(
            tuple(field.from_poly(polys.Poly(field.ring, {tuple(e): Fraction(c) for c, e in entry}))
                  for entry in vector)
            for vector in op["vectors"])
        return field, op["d"], vectors, op["trdeg_seed"]

    def run(entry):
        field, d, vectors, seed = entry
        flag = flags.FlagPoint(field, d, ((1, vectors),))
        return {"value": flags.trdeg(flag, seed=seed).value}

    return build, run


def main() -> int:
    job = json.load(sys.stdin)
    import hodgescreen
    from hodgescreen import fields, flags, grading, lie, polys, ratfunc

    workload = job["workload"]
    if workload == "grading_ladder":
        build, run = _grading_call(lie, grading)
    elif workload in ("trdeg_symbolic", "trdeg_seeded"):
        build, run = _trdeg_call(flags, ratfunc, polys, fields)
    else:
        build, run = (lambda op: op), None
    entries = [build(op) for op in job["ops"]]
    print("ready", hodgescreen.__version__, flush=True)
    if job["probe"]:
        return 0

    def call(entry, deadline):
        return guarded(lambda: run(entry), deadline)

    budget = job["seconds"] / 2 if job["trace"] else job["seconds"]
    untraced = run_rounds(entries, call, budget, job["deadline"], job["pass_limit"])
    out = {"untraced": untraced, "maxrss_kb": peak_rss_kb()}
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        out["traced"] = run_rounds(entries, call, budget, job["deadline"],
                                   job["pass_limit"], untraced["rounds"])
        out["traced"]["spans"] = tracer.summary()
    out["sympy_loaded"] = "sympy" in sys.modules
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
