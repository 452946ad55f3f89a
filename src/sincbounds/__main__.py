import os
import sys

# before anything imports numpy: sincbounds calls no BLAS routine, and
# OpenBLAS's idle helper thread would only spin on a second core
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
