"""The hodgescreen benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from src/.
Each workload is a closed loop over whole rounds of entries, one
operation at a time, with at most one child process alive.  Every
output is checked against perfbench/oracle.py.  The last line of
standard output is one JSON object with "correct", "attempted",
"failed" and "metrics": the end-to-end metrics with --trace 0, the
per-layer metrics (from a traced replay) with --trace 1.  The line
before it is the run record.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads as W  # noqa: E402
from tracecli import SPANS_PREFIX  # noqa: E402
from worker import run_rounds  # noqa: E402

DEADLINE_S = 15.0  # per entry; a timed-out entry counts as failed
PASS_LIMIT_S = 65.0  # per pass; entries left over count as failed
SETUP_SAMPLES = 7

END_TO_END = (("p50_s", "s"), ("p90_s", "s"), ("ops_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("import.total_s", "s"), ("import.jsonschema_s", "s"), ("import.sympy_s", "s"),
    ("import.sympy_loaded_frac", "ratio"), ("import.hodgescreen_s", "s"),
    ("cli.interpreter_s", "s"),
    ("schema.load_document.total_s", "s"), ("schema.jsonschema_validate_s", "s"),
    ("schema.parse_document.self_s", "s"),
    ("fields.NumberField.init.total_s", "s"), ("intervals.certify_isolating.calls", "count"),
    ("lie.make_classical.calls", "count"), ("lie.make_classical.total_s", "s"),
    ("lie.MatLieAlgebra.init.self_s", "s"), ("lie.adjoint_of_diagonal.total_s", "s"),
    ("grading.grade.calls", "count"), ("grading.grade.self_s", "s"),
    ("grading.rank_calls_per_grade", "ratio"),
    ("linalg.rank_q.calls", "count"), ("linalg.rank_q.self_s", "s"),
    ("linalg.kernel_basis.total_s", "s"),
    ("linalg.rank_qt.calls", "count"), ("linalg.rank_qt.self_s", "s"),
    ("linalg.inverse.total_s", "s"),
    ("flags.FlagPoint.init.self_s", "s"), ("flags.normalize_chart.self_s", "s"),
    ("flags.jacobian_matrix.self_s", "s"), ("flags.trdeg.self_s", "s"),
    ("flags.fast_path_ratio", "ratio"),
    ("flags.chart_max_terms", "terms"), ("flags.chart_max_coeff_bits", "bits"),
    ("flags.jacobian_max_terms", "terms"), ("flags.jacobian_max_coeff_bits", "bits"),
    ("ratfunc.RatFunc.derivative.calls", "count"), ("ratfunc.RatFunc.derivative.self_s", "s"),
    ("ratfunc.gcd_calls", "count"), ("ratfunc.gcd_s", "s"),
    ("polys.poly_gcd.calls", "count"), ("polys.poly_gcd.self_s", "s"),
    ("polys.divexact.self_s", "s"),
    ("polys.pseudo_rem.calls", "count"), ("polys.pseudo_rem.self_s", "s"),
    ("hodge.polarization_check.total_s", "s"), ("hodge.algebra.total_s", "s"),
    ("verdicts.evaluate.total_s", "s"), ("rendering.emit.total_s", "s"),
    ("trace.overhead_frac", "ratio"),
)
# Modules the traced CLI child imports for itself, left out of import.*.
OWN_MODULES = ("spans",)


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


# -- inputs and expectations -------------------------------------------------------


def _bound(flag: dict) -> int:
    s = len(flag["vectors"])
    return min((flag["d"] - s) * s, flag["k"])


def _full_rank(flag: dict, rng) -> bool:
    try:
        return oracle.trdeg(flag, rng) == _bound(flag)
    except oracle.OracleInconclusive:
        return False


class _Stopwatch:
    """Accumulates the time spent inside the oracle."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds += perf_counter() - start


def prepare(workload: str, seed: int):
    """(ops for the program, expected output per op, oracle seconds)."""
    clock = _Stopwatch()
    orng = random.Random(seed * 7919 + 1)
    rng = random.Random(seed)
    if workload == "cli_specs":
        docs = {name: oracle.spec_numbers(os.path.join("specs", name)) for name in W.SPECS}
        dims = {name: sum(nums[1].values()) for name, (_raw, nums) in docs.items()}
        ops = W.cli_round(seed, dims)
        return ops, [clock(oracle.cli_expected, op, docs) for op in ops], clock.seconds
    if workload == "grading_ladder":
        ops = W.grading_round(seed)
        expected = [clock(lambda op: oracle.invariants(
            oracle.grading_levels(op["kind"], op["n"], op["lam"])), op) for op in ops]
        return ops, expected, clock.seconds

    def base(d, s, k):
        return W.generic_base(d, s, k, lambda f: clock(_full_rank, f, orng))

    pairs = []
    if workload == "trdeg_symbolic":
        for d, s, k in W.SYMBOLIC_SHAPES:
            flag = W.sign_variant(rng, base(d, s, k))
            pairs.append((W.to_json_flag(flag, None), clock(oracle.trdeg, flag, orng)))
        stream = random.Random(W.ACCEPTANCE7_SEED)
        deficient = 0
        while deficient < W.DEFICIENT_PER_ROUND:
            flag = W.sign_variant(rng, W.acceptance7_flag(stream))
            try:
                value = clock(oracle.trdeg, flag, orng)
            except oracle.OracleInconclusive:
                continue
            if value < _bound(flag):
                pairs.append((W.to_json_flag(flag, None), value))
                deficient += 1
    elif workload == "trdeg_seeded":
        for (d, s, k), copies in W.SEEDED_SHAPES:
            flag0 = base(d, s, k)
            for _ in range(copies):
                flag = W.sign_variant(rng, flag0)
                pairs.append((W.to_json_flag(flag, rng.randrange(1, 2**31)),
                              clock(oracle.trdeg, flag, orng)))
    else:
        raise BenchmarkError(f"unknown workload {workload!r}")
    rng.shuffle(pairs)
    return [op for op, _ in pairs], [{"value": v} for _, v in pairs], clock.seconds


# -- running ----------------------------------------------------------------------


def _env() -> dict:
    path = os.path.join(os.getcwd(), "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=path + (os.pathsep + old if old else ""))


def _spawn_worker(job: dict):
    """(process, seconds from spawn to "ready")."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=_env())
    proc.stdin.write(json.dumps(job))
    proc.stdin.close()
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if not line.startswith("ready"):
        proc.stdout.close()
        proc.wait()
        raise BenchmarkError(f"worker did not start (exit code {proc.returncode})")
    return proc, ready


def _finish(proc) -> str:
    out = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0:
        raise BenchmarkError(f"worker failed with exit code {proc.returncode}")
    return out


def _cli_call(traced: bool):
    prefix = ([sys.executable, "-X", "importtime", os.path.join(HERE, "tracecli.py")]
              if traced else [sys.executable, "-m", "hodgescreen"])
    env = _env()

    def call(op, deadline):
        try:
            proc = subprocess.run(prefix + op["argv"], capture_output=True, text=True,
                                  timeout=deadline, env=env)
        except subprocess.TimeoutExpired:
            return "timeout", None
        out = {"exit": proc.returncode, "stdout": proc.stdout}
        if traced:
            out["stderr"] = proc.stderr
        return "ok", out

    return call


def _wall(argv) -> float:
    start = perf_counter()
    subprocess.run(argv, check=True, capture_output=True, env=_env())
    return perf_counter() - start


def execute(workload: str, job: dict):
    """Set-up samples, then the untraced pass and, with trace, the traced
    replay.  Half of the set-up samples are taken before the passes and
    half after, so that they span the run.  Returns (ready seconds list,
    passes dict, extras dict)."""
    probe = dict(job, probe=True)

    def probes(count):
        out = []
        for _ in range(count):
            proc, seconds = _spawn_worker(probe)
            _finish(proc)
            out.append(seconds)
        return out

    before = SETUP_SAMPLES // 2
    ready = probes(before)
    extras = {}
    if workload != "cli_specs":
        proc, seconds = _spawn_worker(job)
        ready.append(seconds)
        report = json.loads(_finish(proc).splitlines()[-1])
        extras["maxrss_kb"] = report["maxrss_kb"]
        extras["sympy_loaded"] = report["sympy_loaded"]
        passes = {name: report[name] for name in ("untraced", "traced") if name in report}
        return ready + probes(SETUP_SAMPLES - before - 1), passes, extras

    budget = job["seconds"] / 2 if job["trace"] else job["seconds"]
    passes = {"untraced": run_rounds(job["ops"], _cli_call(False), budget,
                                     job["deadline"], job["pass_limit"])}
    extras["maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if job["trace"]:
        passes["traced"] = run_rounds(job["ops"], _cli_call(True), budget, job["deadline"],
                                      job["pass_limit"], passes["untraced"]["rounds"])
    return ready + probes(SETUP_SAMPLES - before), passes, extras


# -- checking and metrics --------------------------------------------------------------


def _observed(workload: str, op: dict, out):
    if workload == "cli_specs":
        return oracle.cli_observed(op["cmd"], out["exit"], out["stdout"])
    return out


def check(workload: str, ops, expected, passes) -> dict:
    """Mark every result: "ok", "wrong", "trace_mismatch", "timeout",
    "error: ...", "not run: ...".  Returns counts."""
    for name in ("untraced", "traced"):
        for r in passes.get(name, {}).get("results", []):
            if r["status"] == "ok" and _observed(workload, ops[r["op"]], r["out"]) != expected[r["op"]]:
                r["status"] = "wrong"
    if "traced" in passes:
        for a, b in zip(passes["untraced"]["results"], passes["traced"]["results"]):
            if b["status"] == "ok" and not _same_output(workload, a["out"], b["out"]):
                b["status"] = "trace_mismatch"
    counts = {}
    for p in passes.values():
        for r in p["results"]:
            key = r["status"].split(":")[0]
            counts[key] = counts.get(key, 0) + 1
    return counts


def _same_output(workload: str, a, b) -> bool:
    if workload == "cli_specs":
        return a is not None and (a["exit"], a["stdout"]) == (b["exit"], b["stdout"])
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def end_to_end(untraced: dict, setup_s: float, maxrss_kb: int) -> dict:
    times = [r["s"] for r in untraced["results"]]
    ok = sum(r["status"] == "ok" for r in untraced["results"])
    return {
        "p50_s": statistics.median(times),
        "p90_s": statistics.quantiles(times, n=10)[8],
        "ops_per_s": ok / untraced["wall"],
        "setup_s": setup_s,
        "peak_rss_mb": maxrss_kb / 1024,
    }


def parse_importtime(stderr: str) -> dict:
    """Seconds of import work in one `python -X importtime` run."""
    total = jsonschema = sympy = own = 0
    loaded = False
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].strip()
        if name in OWN_MODULES:
            continue
        total += self_us
        if name == "jsonschema":
            jsonschema = cumulative_us
        elif name == "sympy":
            sympy, loaded = cumulative_us, True
        if name == "hodgescreen" or name.startswith("hodgescreen."):
            own += self_us
    return {"total_s": total / 1e6, "jsonschema_s": jsonschema / 1e6,
            "sympy_s": sympy / 1e6, "hodgescreen_s": own / 1e6, "sympy_loaded": loaded}


def per_layer(workload: str, passes: dict, extras: dict) -> dict:
    from spans import merge

    traced = passes["traced"]
    rounds = traced["rounds"]
    if workload == "cli_specs":
        summaries, imports = [], []
        for r in traced["results"]:
            if r["out"] is None:
                continue
            lines = r["out"]["stderr"].splitlines()
            if lines and lines[-1].startswith(SPANS_PREFIX):
                summaries.append(json.loads(lines[-1][len(SPANS_PREFIX):]))
            imports.append(parse_importtime(r["out"]["stderr"]))
        spans = merge(summaries)
    else:
        spans = merge([traced["spans"]])
        probe = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hodgescreen"],
                               check=True, capture_output=True, text=True, env=_env())
        imports = [dict(parse_importtime(probe.stderr), sympy_loaded=extras["sympy_loaded"])]
    calls, total, self_s = spans["calls"], spans["total"], spans["self"]
    edges, counters, maxima = spans["edges"], spans["counters"], spans["maxima"]

    def median_of(key, rows):
        return statistics.median([row[key] for row in rows]) if rows else 0.0

    loaded = [row for row in imports if row["sympy_loaded"]]
    grade_ranks = edges[("grading.grade", "linalg.rank_q")] + edges[("grading.grade", "linalg.rank_qt")]
    m = {
        "import.total_s": median_of("total_s", imports),
        "import.jsonschema_s": median_of("jsonschema_s", imports),
        "import.sympy_s": median_of("sympy_s", loaded),
        "import.sympy_loaded_frac": len(loaded) / len(imports) if imports else 0.0,
        "import.hodgescreen_s": median_of("hodgescreen_s", imports),
        "cli.interpreter_s": statistics.median(
            _wall([sys.executable, "-c", "pass"]) for _ in range(SETUP_SAMPLES)),
        "grading.rank_calls_per_grade": (grade_ranks / calls["grading.grade"]
                                         if calls["grading.grade"] else 0.0),
        "flags.fast_path_ratio": (counters["trdeg.fast"] / counters["trdeg.seeded"]
                                  if counters["trdeg.seeded"] else 0.0),
        "flags.chart_max_terms": maxima.get("chart_max_terms", 0),
        "flags.chart_max_coeff_bits": maxima.get("chart_max_coeff_bits", 0),
        "flags.jacobian_max_terms": maxima.get("jacobian_max_terms", 0),
        "flags.jacobian_max_coeff_bits": maxima.get("jacobian_max_coeff_bits", 0),
        "ratfunc.gcd_calls": calls["ratfunc.gcd"] / rounds,
        "ratfunc.gcd_s": total["ratfunc.gcd"] / rounds,
        "schema.jsonschema_validate_s": total["schema.jsonschema_validate"] / rounds,
        "trace.overhead_frac": traced["wall"] / passes["untraced"]["wall"] - 1,
    }
    for name, _unit in PER_LAYER:
        if name in m:
            continue
        span, _, what = name.rpartition(".")
        source = {"calls": calls, "total_s": total, "self_s": self_s}[what]
        m[name] = source[span] / rounds
    return m


# -- one workload -----------------------------------------------------------------------


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join("src", "hodgescreen")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """(result object, run record) of one workload run."""
    start = perf_counter()
    ops, expected, oracle_s = prepare(workload, seed)
    generate_s = perf_counter() - start - oracle_s
    job = {"workload": workload, "ops": ops, "seconds": seconds,
           "deadline": DEADLINE_S, "pass_limit": PASS_LIMIT_S, "trace": trace, "probe": False}
    ready, passes, extras = execute(workload, job)
    counts = check(workload, ops, expected, passes)
    attempted = sum(counts.values())
    failed = attempted - counts.get("ok", 0)
    setup_s = generate_s + statistics.median(ready)
    if trace:
        metrics = per_layer(workload, passes, extras)
        units = PER_LAYER
    else:
        metrics = end_to_end(passes["untraced"], setup_s, extras["maxrss_kb"])
        units = END_TO_END
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "sympy": _version("sympy"), "jsonschema": _version("jsonschema"),
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "entries_per_round": len(ops), "deadline_s": DEADLINE_S,
        "setup_samples_s": ready, "input_generation_s": generate_s, "oracle_s": oracle_s,
        "untraced": {"rounds": passes["untraced"]["rounds"],
                     "samples": len(passes["untraced"]["results"]),
                     "wall_s": passes["untraced"]["wall"],
                     "round_walls_s": passes["untraced"]["round_walls"]},
        "traced": ({"rounds": passes["traced"]["rounds"], "wall_s": passes["traced"]["wall"]}
                   if trace else None),
        "statuses": counts, "failed_frac": failed / attempted,
        "left_out": W.LEFT_OUT.get(workload, []),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units}}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "hodgescreen", "__init__.py")):
        print("run from the root of a hodgescreen checkout: src/hodgescreen is missing",
              file=sys.stderr)
        return 2
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"record": record}), flush=True)
            results.append((name, result))
    except (BenchmarkError, oracle.OracleInconclusive) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0][1]))
        return 0
    for name, result in results:
        for metric, entry in result["metrics"].items():
            print(f"{name:15s} {metric:36s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{name}.{metric}": entry
                    for name, r in results for metric, entry in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
