"""Holonomy R-matrices for quantum sl2 at a root of unity.

Numerical building blocks: cyclic quantum dilogarithms (qdilog), central
characters and their braiding (characters), cyclic Weyl-algebra modules
(weylrep), R-matrix assembly with factorization and pinched limits
(rmatrix), braid-diagram state sums (braidgrpd), and an identity battery
(selftest) exposed through the `holorm` CLI.
"""

from .qdilog import (Flattening, RootConfig, SingularArgumentError,
                     ConstraintViolationError, cyc_dilog, d_const,
                     fusion_f, li2, lifted_dilog, s_norm)
from .characters import (BraidOutcome, LogWeylChar, WeylChar, braid,
                         braid_coords, is_pinched)
from .weylrep import (Basis, GenMatrices, commutant_dim, rep_matrices,
                      rw_images, rw_images_negative)
from .rmatrix import (CrossingData, PinchedCrossingError, RTensor,
                      braiding_op, crossing_from_logs, det_braiding, det_lu,
                      factorized_ops, kashaev_rmat, logdet_braiding, rmat,
                      rmat_pinched)
from .braidgrpd import (BraidWord, DiagramGraph, InadmissibleColoringError,
                        LogColoring, build_diagram, extend_log_coloring,
                        jfunc_eval, log_longitudes, pin_bottom, propagate_chi)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
