"""Set-up as a user pays it: start an interpreter, import cuechaos from this
checkout and make one warm-up call into each layer.

    python3 bench/setup_probe.py WORK_DIR

``run.py`` times this script as a child process to measure ``setup_s``.
"""

import sys
from pathlib import Path

from program import import_program, warm_up


def main() -> int:
    import_program()
    warm_up(Path(sys.argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
