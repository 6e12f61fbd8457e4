"""luequiv: local-unitary equivalence of multipartite density matrices.

Decides whether two mixed states are related by a tensor product of local
unitaries, using realignment rank-one tests on the block-unitary coset of
the eigenbasis change, and produces explicit witness unitaries on success.
"""

from .decompose import FactorSet, cut_reports, factor_full
from .equivalence import (
    CosetContext,
    SearchConfig,
    StateError,
    Verdict,
    VerdictStatus,
    check_equivalence,
    verify_witness,
)
from .matfile import MatrixFile, MatrixFileError, load_matrix, save_matrix
from .oracle import (
    PairLabel,
    PairSample,
    haar_unitary,
    make_degenerate_pair,
    make_equivalent_pair,
    make_spectrum_mismatch_pair,
    paper_example,
    random_density,
    reduced_density,
)
from .spectral import (
    RankOneReport,
    Spectrum,
    degeneracy_profile,
    eig_hermitian,
    rank_one_test,
    spectra_match,
)
from .states import DensityMatrix, validate_density
from .tensor import DimProfile, ShapeError, kron_all, realign

__version__ = "0.1.0"

__all__ = [
    "CosetContext",
    "DensityMatrix",
    "DimProfile",
    "FactorSet",
    "MatrixFile",
    "MatrixFileError",
    "PairLabel",
    "PairSample",
    "RankOneReport",
    "SearchConfig",
    "ShapeError",
    "Spectrum",
    "StateError",
    "Verdict",
    "VerdictStatus",
    "check_equivalence",
    "cut_reports",
    "degeneracy_profile",
    "eig_hermitian",
    "factor_full",
    "haar_unitary",
    "kron_all",
    "load_matrix",
    "make_degenerate_pair",
    "make_equivalent_pair",
    "make_spectrum_mismatch_pair",
    "paper_example",
    "random_density",
    "rank_one_test",
    "realign",
    "reduced_density",
    "save_matrix",
    "spectra_match",
    "validate_density",
    "verify_witness",
]
