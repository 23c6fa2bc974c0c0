"""The package namespace: ``import nvunmix`` loads the analysis modules only, and the modules
that read and write files, draw or simulate are imported by name."""

import importlib
import os
import subprocess
import sys
import types

import nvunmix

# Names that live in their own modules only, not in the package namespace.
_BY_NAME = {
    "fileio": ("RunReport", "load_map", "load_spectrum", "save_map", "save_spectrum"),
    "render": ("render_map_pgm", "render_spectrum_svg"),
    "synth": ("DEFAULT_FIELD_RESPONSE", "DEFAULT_NV0_SHAPE", "DEFAULT_NVM_SHAPE", "NOISELESS",
              "FieldResponseModel", "NoiseModel", "SpectralShapeModel", "default_letter_masks",
              "make_field_map_pair", "make_field_spectrum", "make_letter_map", "make_spectrum",
              "make_sweep"),
}


def test_import_loads_only_the_analysis_modules():
    """In a fresh interpreter, ``import nvunmix`` loads no file I/O, rendering, synthetic
    generator or command line."""
    code = "import sys, nvunmix; print(' '.join(sorted(m for m in sys.modules if 'nvunmix' in m)))"
    src = os.path.dirname(os.path.dirname(os.path.abspath(nvunmix.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["nvunmix", "nvunmix.basisfit", "nvunmix.decompose", "nvunmix.errors",
                           "nvunmix.filters", "nvunmix.maps", "nvunmix.spectrum"]


def test_building_the_parser_loads_no_synthetic_generator():
    """In a fresh interpreter, ``cli.build_parser()`` leaves out ``nvunmix.synth``, which only
    ``simulate`` loads."""
    code = ("import sys; from nvunmix import cli; cli.build_parser(); "
            "print(' '.join(sorted(m for m in sys.modules if 'nvunmix' in m)))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nvunmix.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["nvunmix", "nvunmix.basisfit", "nvunmix.cli", "nvunmix.decompose",
                           "nvunmix.errors", "nvunmix.fileio", "nvunmix.filters", "nvunmix.maps",
                           "nvunmix.render", "nvunmix.spectrum"]


def test_namespace_holds_the_analysis_api_and_the_rest_resolves_by_module():
    public = {name for name, value in vars(nvunmix).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(public) == 49
    for module, names in _BY_NAME.items():
        for name in names:
            assert name not in public
            assert hasattr(importlib.import_module(f"nvunmix.{module}"), name)
