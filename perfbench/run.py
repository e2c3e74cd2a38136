"""msreg benchmark: the README pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload register-lebesgue --seed 1 --seconds 40 --trace 0

Each pipeline runs `fit-kernel`, `register` and `export-fields --svg`
through `msreg.cli.main` in this process, on a config generated from the
seed, in a fresh output directory and without `--kernel-table`, exactly as
the README shows.  Pipelines repeat until `--seconds` is used up; timings
are medians over them.  Every verb's outputs are checked, and the last line
of stdout is one JSON object with the end-to-end metrics (`--trace 0`) or
the per-layer metrics of traced pipelines (`--trace 1`).  A full record
(machine facts, configs, samples, spans) goes to `perfbench/out/`.

Threads: BLAS is pinned to one thread and MSREG_THREADS is unset, so the
kernel fit runs its linear programs in one worker; the whole run stays on
one CPU.
"""

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"


def _pin_threads():
    """Fix thread counts and the CPU; must run before numpy is first imported.

    Every thread of the run stays on one CPU, so the host-speed probes
    (`bench.HostSpeed`, on a thread of their own) time the CPU the program
    runs on: the CPUs of a shared host are not equally busy.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    for var in ("MSREG_THREADS", "MSLDDMM_THREADS"):
        os.environ.pop(var, None)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "msreg" / "cli.py").is_file():
        print(f"msreg sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from bench import run_benchmark

    return run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
