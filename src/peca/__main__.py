"""``python -m peca`` and the ``peca`` script.

peca calls no BLAS routine, so OpenBLAS gets one thread unless the user set
a count.  peca hashes nothing either, yet ``numpy.random`` imports ``secrets``,
whose ``hmac`` and ``hashlib`` would load ``_hashlib`` and map OpenSSL's
libcrypto (3.4 MB of peak RSS); blocking ``_hashlib`` makes them fall back
to CPython's built-in hash modules, with the same digests.  The block is set
only where every one of those modules can be found: a build that leaves some
out (``--with-builtin-hashlib-hashes``) would fail to import ``hashlib`` or log
errors without OpenSSL, so there ``sys.modules`` is left alone.  ``import peca``
and ``import peca.cli`` leave the environment and ``sys.modules`` alone.
"""

import importlib.util
import os
import sys

# the modules hashlib falls back to without _hashlib; 3.12 merged _sha256 and _sha512 into _sha2
_BUILTIN_HASHES = ("_md5", "_sha1", "_blake2", "_sha3",
                   *(("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")))

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
if all(importlib.util.find_spec(name) is not None for name in _BUILTIN_HASHES):
    sys.modules.setdefault("_hashlib", None)   # an import of it now raises ImportError

from .cli import main  # noqa: E402  (this import loads NumPy)

if __name__ == "__main__":
    sys.exit(main())
