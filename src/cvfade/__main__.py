"""Command-line entry: `python -m cvfade`, the `cvfade` console script and scripts/.

The CLI runs all its work on one thread.  numpy's OpenBLAS would otherwise
start a worker thread at import, which spin-waits for CPU time it never uses,
so the entry asks for one BLAS thread before numpy is imported.  A value the
user has set in OPENBLAS_NUM_THREADS wins.

The CLI maps no OpenSSL either.  numpy.random imports secrets, whose hmac and
hashlib would load _hashlib and with it libcrypto (3.4 MB resident), although
no command hashes through them.  So the entry marks _hashlib absent before the
CLI is imported, and both take CPython's built-in hashes, whose digests are the
same; numpy's draws do not depend on it.  It does so only where CPython has
its built-in SHA-256 module (_sha2, or _sha256 before 3.12), without which
hashlib needs _hashlib for the config digest.  A _hashlib already imported
stays.
"""
import importlib.util
import os
import sys


def _without_openssl():
    if any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        sys.modules.setdefault("_hashlib", None)


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _without_openssl()
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
