"""Benchmark of the whole casevec loop on seeded synthetic corpora.

Run from the repository root:

    python3 perfbench/run.py --workload pretrain-b16 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run. The lines before it give the machine facts, a digest of
the inputs, a digest of the discrete outputs (sampled ids, class labels
and ranking order) for comparing two commits, and a readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# One BLAS/OpenMP thread keeps runs steady on a shared machine; it is
# within the CPU count everywhere.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def machine_facts(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "casevec", "__init__.py")):
        print(f"error: no casevec package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    threads = min(THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)  # must precede the first numpy import
    sys.path.insert(0, SRC)
    import bench  # noqa: E402  (imports numpy)

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    print("machine " + json.dumps(machine_facts(threads), sort_keys=True))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result, info = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), workdir)
    except bench.StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("inputs " + info["input_digest"])
    print("outputs " + info["output_digest"])
    print("calls " + json.dumps(info["calls"]))
    share = result["failed"] / result["attempted"]
    print(f"{'ops_failed_share':<40} {share:>14.6g} share")
    for name, m in result["metrics"].items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
