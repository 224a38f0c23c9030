"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It shows that a corrupted expectation
is reported as a failed operation, that an entry over its deadline is
recorded as "timeout" and counted as failed (in-process and as a CLI
subprocess), and that an uncorrupted run passes.  Each case runs one
round with a one-second budget.  Exit code 0 when every case holds.
"""

import sys

import run


def _one_round(workload: str):
    result, record = run.run_workload(workload, seed=1, seconds=1, trace=False)
    return result, record["statuses"]


def main() -> int:
    problems = []

    result, statuses = _one_round("trdeg_seeded")
    if not (result["correct"] and result["failed"] == 0):
        problems.append(f"clean run: expected no failure, got {statuses}")

    real_prepare = run.prepare

    def corrupted_prepare(workload, seed):
        ops, expected, oracle_s = real_prepare(workload, seed)
        expected[0] = {"value": expected[0]["value"] + 1}
        return ops, expected, oracle_s

    run.prepare = corrupted_prepare
    try:
        result, statuses = _one_round("trdeg_seeded")
    finally:
        run.prepare = real_prepare
    if result["correct"] or statuses.get("wrong") != 1 or result["failed"] != 1:
        problems.append(f"corrupted expectation: expected one wrong entry, got {statuses}")

    real_deadline = run.DEADLINE_S
    run.DEADLINE_S = 0.02
    try:
        for workload in ("trdeg_seeded", "cli_specs"):
            result, statuses = _one_round(workload)
            if statuses.get("timeout") != result["attempted"] or result["correct"]:
                problems.append(f"{workload} deadline: expected every entry to time out, "
                                f"got {statuses}")
    finally:
        run.DEADLINE_S = real_deadline

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
