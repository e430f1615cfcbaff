"""Entry point of the spanlab benchmark.

    python3 spanbench/run.py --workload wide-weights --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The benchmark imports spanlab from
the checkout's `src/` and nothing else: without it, it exits with status 2
and prints no result.  See bench.py for what a run measures.
"""
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "spanlab" / "__init__.py").is_file():
        print(f"spanbench: no spanlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bench

    sys.exit(bench.main(sys.argv[1:]))
