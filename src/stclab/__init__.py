"""stc-lab: super-orthogonal space-time constellations, audits, simulation."""

__version__ = "0.1.0"

from .designs import (
    GeneratorSet,
    alamouti_generators,
    analyze,
    make_generator_set,
    primed_alamouti_generators,
    radon_hurwitz_check,
    read_generator_file,
    rotate_generators,
    synthesize,
    write_generator_file,
)
from .expansion import (
    ExpandedConstellation,
    ExpansionClass,
    ExpansionKind,
    Subconstellation,
    TaggedPoint,
    classify_expansion,
    corollary1_audit,
    decompose_direct_sum,
    expand,
    theorem1_audit,
)
from .constellation import (
    CodematrixEntry,
    QPSK,
    build_constellation,
    chi_coordinates,
    distance_spectrum,
    matrix_from_indices,
    verify_forms,
)
from .channel import (
    EquivalentRealModel,
    build_equivalent_real_model,
    channels_from_uniform,
    normals_from_uniform,
    shape_invariance_audit,
    transmit,
)
from .detectors import (
    DecodeResult,
    TrellisSpec,
    default_trellis,
    load_trellis,
    ml_block_decode,
    trellis_encode,
    viterbi_decode,
)
from .simulate import SimConfig, SimResultRow, run_simulation, sigma_for_snr_db

__all__ = [
    "GeneratorSet", "alamouti_generators", "analyze", "make_generator_set",
    "primed_alamouti_generators", "radon_hurwitz_check", "read_generator_file",
    "rotate_generators", "synthesize", "write_generator_file",
    "ExpandedConstellation", "ExpansionClass", "ExpansionKind",
    "Subconstellation", "TaggedPoint", "classify_expansion", "corollary1_audit",
    "decompose_direct_sum", "expand", "theorem1_audit",
    "CodematrixEntry", "QPSK", "build_constellation", "chi_coordinates",
    "distance_spectrum", "matrix_from_indices", "verify_forms",
    "EquivalentRealModel", "build_equivalent_real_model", "channels_from_uniform",
    "normals_from_uniform", "shape_invariance_audit", "transmit",
    "DecodeResult", "TrellisSpec", "default_trellis", "load_trellis",
    "ml_block_decode", "trellis_encode", "viterbi_decode",
    "SimConfig", "SimResultRow", "run_simulation", "sigma_for_snr_db",
]
