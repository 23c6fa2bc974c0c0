"""Charge-state unmixing of NV-center photoluminescence data.

The package decomposes mixed NV0/NV- emission into per-charge-state
components along two routes: differencing spectra or maps taken at two
magnetic field strengths, and inverting the 2x2 system formed by acquisitions
with and without a long-pass filter. A synthetic forward-model generator
provides ground truth for verifying both routes end to end.
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
from .fileio import RunReport, load_map, load_spectrum, save_map, save_spectrum
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
from .render import render_map_pgm, render_spectrum_svg
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
from .synth import (
    DEFAULT_FIELD_RESPONSE,
    DEFAULT_NV0_SHAPE,
    DEFAULT_NVM_SHAPE,
    NOISELESS,
    FieldResponseModel,
    NoiseModel,
    SpectralShapeModel,
    default_letter_masks,
    make_field_map_pair,
    make_field_spectrum,
    make_letter_map,
    make_spectrum,
    make_sweep,
)
