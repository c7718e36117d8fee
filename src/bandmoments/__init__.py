"""Simulation and verification toolkit for 1D Gaussian band-matrix moments."""

from .chain import (ChainParams, chain_asymptotic, chain_log_asymptotic,
                    chain_log_partition, chain_logdet, chain_partition,
                    green_diag, sample_chain, tail_probability)
from .ensemble import RngStream, sample_goe
from .group_integrals import (HcizParams, ReductionReport, hciz_sp2, hciz_u2,
                              mc_hciz_sp2, mc_hciz_u2, reduction_check,
                              sample_coset_u2, sample_sp2, u2_quadrature)
from .kernels import (SaddleData, ds_kernel, f_star, rho, saddle_data,
                      saddle_f, semicircle_cdf)
from .lattice import (LatticeParams, SingularSystemError, TridiagonalOperator,
                      neumann_laplacian, tridiagonal_logdet, tridiagonal_solve,
                      variance_profile)
from .moments import (MomentEstimate, ScanConfig, ScanRow, SignedAccumulator,
                      estimate_f2, estimate_ratio, f2_goe_exact, scaled_energies)
from .spectral import (NcmHistogram, eigenvalues, ncm, semicircle_distance,
                       signed_logdet)
from .transfer import (Grid2D, TransferKernel, TransferResult, build_kernel,
                       transfer_evaluate)

__version__ = "0.1.0"
