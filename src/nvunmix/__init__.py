"""Charge-state unmixing of NV-center photoluminescence data.

The package decomposes mixed NV0/NV- emission into per-charge-state
components along two routes: differencing spectra or maps taken at two
magnetic field strengths, and inverting the 2x2 system formed by acquisitions
with and without a long-pass filter. ``import nvunmix`` loads only those
analysis modules (``spectrum``, ``basisfit``, ``decompose``, ``filters``,
``maps``, ``errors``), and this namespace holds their API. The rest is imported
by name, and paid for only then: ``nvunmix.fileio`` (file formats and run
reports), ``nvunmix.render`` (SVG and PGM), ``nvunmix.synth`` (the synthetic
forward model that gives both routes ground truth) and ``nvunmix.cli``.
"""

__version__ = "0.1.0"

from .basisfit import (
    CoefficientTable,
    FieldSeries,
    ScaleFactorSurface,
    find_full_mixing_field,
    fit_coefficients,
    fit_series,
    scale_factor_from_coefficients,
    scale_factor_from_nvminus,
    scale_factor_surface,
)
from .decompose import (
    DecompositionResult,
    ScaleSearchConfig,
    ZplArtifactConfig,
    decompose,
    difference_spectrum,
    optimize_scale_factor,
    zpl_artifact,
)
from .errors import (
    ConditioningWarning,
    FlatWarning,
    GridMismatchError,
    IdentifiabilityError,
    ModelViolationWarning,
    NoMinimumError,
    NonPhysicalWarning,
    NvUnmixError,
    NvUnmixWarning,
    ParseError,
    RangeError,
    SingularityError,
    ValidationError,
)
from .filters import (
    DEFAULT_EMISSION_WINDOW,
    FilterModel,
    TabulatedFilter,
    TransmissivityPair,
    apply_filter,
    transmissivity,
    transmissivity_pair,
)
from .maps import (
    PLMap,
    UnmixedMaps,
    field_unmix,
    filter_unmix,
    fraction_map,
)
from .spectrum import (
    BasisPair,
    Spectrum,
    WavelengthWindow,
    area,
    normalize_area,
    resample,
    scale,
    subtract,
)
