"""``python -m benchmarks.corebench`` — same entry point as ``run.py``."""

import sys

from benchmarks.corebench.run import main

if __name__ == "__main__":
    sys.exit(main())
