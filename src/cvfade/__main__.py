"""Command-line entry: `python -m cvfade`, the `cvfade` console script and scripts/.

The CLI runs all its work on one thread.  numpy's OpenBLAS would otherwise
start a worker thread at import, which spin-waits for CPU time it never uses,
so the entry asks for one BLAS thread before numpy is imported.  A value the
user has set in OPENBLAS_NUM_THREADS wins.
"""
import os


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
