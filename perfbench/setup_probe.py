"""Time one fresh process's set-up for a workload: `import fomodal`
and the lazy tables the workload needs.  Prints the seconds taken.

    python3 perfbench/setup_probe.py <workload>
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402  (imports no library code)


def main() -> int:
    workload = sys.argv[1]
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    start = time.perf_counter()
    import fomodal
    jobs.prime(fomodal, workload)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
