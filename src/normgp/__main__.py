"""The ``normgp`` command: ``python -m normgp`` and the installed script."""

import os
import sys


def main() -> int:
    """Run the command line in ``sys.argv``.

    numpy's and scipy's OpenBLAS each read ``OPENBLAS_THREAD_TIMEOUT`` when
    they load, and neither is loaded before this sets it: importing the
    ``normgp`` package loads none of its modules. An idle OpenBLAS worker
    then busy-waits about 2**16 cycles, not 2**28, before it sleeps; numpy's
    spun about 0.13 s after every load on a 2-vCPU VM, and scipy's after each
    threaded call. At 12 the benchmark's ``fit`` took about 9% longer than
    by default, in 10 of 10 pairs; at 16 it did not separate from the
    default. The variable splits no work, so no output bit moves. A
    caller's own value wins, and library use is left alone.
    """
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "16")
    from .cli import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())
