"""The integer kernels of the coset engine, as the rest of the package
calls them.  They are implemented once, in _pykernels.py."""

from heckeforge._pykernels import (
    BACKEND,
    SingularMatrixError,
    adjugate,
    bareiss_det,
    is_iwahori_scaled,
    iwahori_coset_key,
    mat_mul,
    vp_int,
)
