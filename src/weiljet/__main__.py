"""The command line: ``python -m weiljet`` and the ``weiljet`` script."""

import os
import sys

# BLAS and OpenMP pools that numpy would start on import; the CLI never
# multiplies matrices large enough to use a second thread.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run() -> int:
    """Pin each BLAS pool to one thread unless the environment sizes it
    already, then run ``weiljet.cli.main``.  The pin must precede numpy's
    import, so it lives here and not in ``weiljet.cli``."""
    for variable in _BLAS_THREAD_VARIABLES:
        os.environ.setdefault(variable, "1")
    from .cli import main

    return main()


if __name__ == "__main__":
    sys.exit(run())
