"""Charge-state unmixing of NV-center photoluminescence data.

The package decomposes mixed NV0/NV- emission into per-charge-state
components along two routes: differencing spectra or maps taken at two
magnetic field strengths, and inverting the 2x2 system formed by acquisitions
with and without a long-pass filter. ``import nvunmix`` loads only those
analysis modules (``spectrum``, ``basisfit``, ``decompose``, ``filters``,
``maps``, ``errors``), and this namespace republishes their API: each one's
``__all__``, and every class of ``errors``. The rest is imported
by name, and paid for only then: ``nvunmix.fileio`` (file formats and run
reports), ``nvunmix.render`` (SVG and PGM), ``nvunmix.synth`` (the synthetic
forward model that gives both routes ground truth) and ``nvunmix.cli``. The
attribute ``nvunmix.decompose`` is the function, which shadows the submodule,
so the ZPL constants are imported by name:
``from nvunmix.decompose import NVM_ZPL_NM``.
"""

__version__ = "0.1.0"

from .basisfit import *
from .decompose import *
from .errors import *
from .filters import *
from .maps import *
from .spectrum import *
