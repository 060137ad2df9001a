"""Check GELU's erf against `scipy.special.erf` on every non-negative float32.

    python scripts/erf_exhaustive.py

`zigprune.layers._erf` ports cephes `erf`, the algorithm behind SciPy's, and
must return the same bits. This walks all 2**31 float32 bit patterns with
the sign bit clear (zeros, subnormals, normals, +inf and every NaN) in
chunks of 2**20, and exits 1 at the first chunk with an entry that differs
in any bit. A negative input runs the same arithmetic on its magnitude and
takes its sign from `copysign`; the tier-1 tests cover negatives by sample.
Float32 is the dtype every pipeline run computes in, and the one whose erfc
branch uses NumPy's exp rather than the C library's.

NumPy picks its float64 exp loop by the host's CPU features, and the loops
differ in the last bit of some results: with numpy 2.4 on an x86_64 host, a
2M-entry exp gives other bits when the AVX-512 loops are switched off. The
claim holds only for the exp it was walked on, so walk it on both:

    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" python scripts/erf_exhaustive.py

NumPy ignores the names of features the host lacks, so the command runs
anywhere and, on a host without AVX-512, walks the same exp twice.

Each walk takes about three minutes on one core of an x86_64 host, so it
runs as its own CI step, not in the tier-1 tests. It checks the `zigprune`
of this checkout.
"""

from __future__ import annotations

import os
import sys

import numpy as np
from scipy.special import erf

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHUNK = 1 << 20


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from zigprune.layers import _erf

    for start in range(0, 1 << 31, CHUNK):
        x = np.arange(start, start + CHUNK, dtype=np.uint32).view(np.float32)
        got = _erf(x)
        differ = got.view(np.uint32) != erf(x).view(np.uint32)
        if differ.any():
            first = x[differ.argmax()]
            print(f"erf_exhaustive: {differ.sum()} of the float32 in [{x[0]!r}, {x[-1]!r}] "
                  f"differ from scipy, the first at {first!r} (bits {first.view(np.uint32):#010x})",
                  file=sys.stderr)
            return 1
    print("erf_exhaustive: every non-negative float32 matches scipy.special.erf bit for bit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
