"""Link-level simulator for multiantenna quantum backscatter communication."""

from .channel import (
    ChannelMatrix,
    ChannelStack,
    ClutterPath,
    FadingSpec,
    LinkBudget,
    PropagationPath,
    SPEED_OF_LIGHT,
    SteeringGeometry,
    build_clutter_channel,
    build_two_path_channel,
    decompose_channel,
    decompose_stack,
    round_trip_transmissivity,
    sample_double_rayleigh,
    sample_double_rayleigh_stack,
    siso_beam_splitter,
    steering_vector,
)
from .errors import (
    ConfigError,
    DegenerateLinkError,
    NonPhysicalChannelError,
    NonPhysicalLinkError,
    NonPhysicalTransformError,
    NonUnitaryInputError,
    ProtocolMismatchError,
)
from .gaussian import GaussianState, emimo_setup, pmimo_setup, propagate, quadrature_rep
from .mesh import (
    BeamSplitterMesh,
    MeshElement,
    clements_decompose,
    element_unitary,
    mesh_from_text,
    mesh_to_text,
    reconstruct,
    unitarity_residual,
)
from .montecarlo import (
    ChannelKind,
    DominanceReport,
    EmpiricalCdf,
    EnsembleResult,
    ExperimentSpec,
    deterministic_channel,
    dominance_check,
    empirical_cdf,
    run_rank_sweep,
)
from .qi import (
    Protocol,
    ProtocolReport,
    QiParams,
    Receiver,
    TmssMoments,
    chernoff_ber,
    emimo_mode_ratio,
    emimo_snr,
    pmimo_interference,
    pmimo_mode_ratio,
    pmimo_snr,
    pmimo_snr_ensemble,
    protocol_reports,
    relative_gain,
    siso_snr,
    tmss_moments,
)
from .rng import substream

__version__ = "0.1.0"
