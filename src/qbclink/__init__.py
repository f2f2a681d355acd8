"""Link-level simulator for multiantenna quantum backscatter communication.

``import qbclink`` loads no submodule: a submodule, or a public name below,
loads its module on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# the public names of each submodule, re-exported here
_PUBLIC = {
    "channel": (
        "ChannelMatrix", "ClutterPath", "FadingSpec", "LinkBudget", "PropagationPath",
        "SPEED_OF_LIGHT", "build_clutter_channel", "build_two_path_channel",
        "decompose_channel", "round_trip_transmissivity", "sample_double_rayleigh",
        "siso_beam_splitter", "steering_vector",
    ),
    "errors": (
        "ConfigError", "DegenerateLinkError", "NonPhysicalChannelError",
        "NonPhysicalLinkError", "NonPhysicalTransformError", "NonUnitaryInputError",
        "ProtocolMismatchError",
    ),
    "gaussian": ("GaussianState", "emimo_setup", "pmimo_setup", "propagate", "quadrature_rep"),
    "mesh": (
        "BeamSplitterMesh", "MeshElement", "clements_decompose",
        "mesh_from_text", "mesh_to_text", "reconstruct", "unitarity_residual",
    ),
    "montecarlo": (
        "ChannelKind", "DominanceReport", "EmpiricalCdf", "EnsembleResult",
        "ExperimentSpec", "deterministic_channel", "dominance_check", "empirical_cdf",
        "run_rank_sweep",
    ),
    "qi": (
        "Protocol", "ProtocolReport", "QiParams", "Receiver", "chernoff_ber",
        "emimo_mode_ratio", "emimo_snr", "pmimo_interference", "pmimo_mode_ratio",
        "pmimo_snr", "protocol_reports", "relative_gain", "siso_snr",
        "tmss_cross_correlation",
    ),
    "rng": ("substream",),
}
# public name -> defining submodule
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _PUBLIC:  # a submodule, bound here by importing it
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_PUBLIC, *_HOME})
