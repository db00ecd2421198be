"""Child processes of the benchmark.

``python3 perfbench/child.py setup --workload W --seed S --work DIR``
    times a fresh process's set-up: the imports, then the first call of the
    workload's warm-up minus a second, warm one.  Prints one JSON line.

``python3 perfbench/child.py fixtures --workload W --seed S --work DIR``
    writes the workload's input files.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

import bootstrap  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    parser.add_argument("task", choices=("setup", "fixtures"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    bootstrap.limit_blas_threads()
    bootstrap.import_arnorm()
    import workloads

    imported = time.perf_counter()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.work, args.seed, sizes)
    if args.task == "fixtures":
        workload.fixtures()
        return 0
    import_s = imported - _T0
    t0 = time.perf_counter()
    workload.warm()
    t1 = time.perf_counter()
    workload.warm()
    t2 = time.perf_counter()
    cold_s = (t1 - t0) - (t2 - t1)
    print(json.dumps({"setup_s": import_s + cold_s, "import_s": import_s, "cold_s": cold_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
