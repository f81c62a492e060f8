"""Process preparation shared by the benchmark scripts.

Must run before numpy is imported: OpenBLAS reads its thread count once,
when the library loads.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread (never more than the cores present): the runs stay steady
# on a shared machine and match the one-core figures the roadmap quotes.
BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def prepare() -> None:
    """Pin the BLAS thread count and import seismonet from this checkout.

    Exits with code 2 when the checkout holds no ``src/seismonet``, so the
    benchmark never measures some other installed copy.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "seismonet" / "__init__.py").is_file():
        _fail(f"no seismonet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import seismonet

    if Path(seismonet.__file__).resolve().parent != SRC / "seismonet":
        _fail(f"imported seismonet from {seismonet.__file__}, not from {SRC}")
