"""The integer kernels of the coset engine, as the rest of the package
calls them.  They are implemented once, in _pykernels.py."""

from heckeforge._pykernels import (
    BACKEND,
    adjugate,
    bareiss_det,
    is_iwahori_scaled,
    mat_mul,
    mul_is_iwahori,
    vp_int,
)
