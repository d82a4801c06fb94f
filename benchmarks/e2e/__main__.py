"""``python -m benchmarks.e2e run ...`` / ``python -m benchmarks.e2e compare A B``."""

from __future__ import annotations

import sys


def main() -> int:
    if len(sys.argv) < 2 or sys.argv[1] not in ("run", "compare"):
        print("usage: python -m benchmarks.e2e run (--workload NAME | --all) --seed S "
              "[--seconds T] [--trace] [--out F.json]\n"
              "       python -m benchmarks.e2e compare A.json B.json", file=sys.stderr)
        return 2
    if sys.argv[1] == "compare":
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(sys.argv[2:])
    from benchmarks.e2e.run import main as run_main

    return run_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
