"""``python -m peca`` and the ``peca`` script.

peca calls no BLAS routine, so OpenBLAS gets one thread unless the user set
a count; ``import peca`` and ``import peca.cli`` leave the environment alone.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (this import loads NumPy)

if __name__ == "__main__":
    sys.exit(main())
