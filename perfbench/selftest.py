"""Self-test of the benchmark's answer checking.

Plants faults between the program and the checker and shows that each
one counts as a failed statement and turns ``correct`` false:

* a wrong answer: one read's result loses a row;
* a raised error: one read raises instead of answering.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Exits 0 when every planted fault was caught, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


class _Planted(Exception):
    pass


def _plant(workload, fault: str, at: int = 5) -> None:
    """Corrupt the ``at``-th read the program answers."""
    call = workload.call
    reads = [0]

    def faulty(client, op):
        result = call(client, op)
        if op.kind == "read":
            reads[0] += 1
            if reads[0] == at:
                if fault == "raise":
                    raise _Planted("planted error")
                result.rows = result.rows[1:] + [("planted",)]
        return result

    workload.call = faulty


def check(fault: str) -> bool:
    from perfbench.run import OUT_DIR, run_phase
    from perfbench.workloads import AnalyticScan
    workload = AnalyticScan(seed=1, workdir=OUT_DIR)
    workload.build()
    try:
        _plant(workload, fault)
        sample = run_phase(workload, [workload.stream(0)], seconds=1.0)
    finally:
        workload.close()
    expected_wrong = 1 if fault == "wrong" else 0
    caught = (sample.failed == 1 and sample.wrong == expected_wrong
              and sample.attempted > 5)
    print(f"planted {fault}: attempted={sample.attempted} "
          f"failed={sample.failed} wrong={sample.wrong} "
          f"correct={sample.wrong == 0} -> "
          f"{'caught' if caught else 'MISSED'}")
    return caught


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    results = [check("wrong"), check("raise")]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
