"""The package namespace: ``import nvunmix`` loads the analysis modules only, and the modules
that read and write files, draw or simulate are imported by name."""

import argparse
import importlib
import os
import subprocess
import sys
import types

import pytest

import nvunmix
from nvunmix import cli, errors, fileio, synth
from nvunmix.errors import IdentifiabilityError, ParseError, ValidationError

# The modules whose public names the package republishes.
_ANALYSIS = ("basisfit", "decompose", "errors", "filters", "maps", "spectrum")

# Names that live in their own modules only, not in the package namespace.
_BY_NAME = {
    "decompose": ("NV0_ZPL_NM", "NVM_ZPL_NM"),
    "fileio": ("RunReport", "load_map", "load_spectrum", "save_map", "save_spectrum"),
    "render": ("render_map_pgm", "render_spectrum_svg"),
    "synth": ("DEFAULT_FIELD_RESPONSE", "DEFAULT_NV0_SHAPE", "DEFAULT_NVM_SHAPE", "NOISELESS",
              "FieldResponseModel", "NoiseModel", "SpectralShapeModel", "make_field_spectrum",
              "make_letter_map", "make_spectrum", "make_sweep"),
}


def _public_names() -> set[str]:
    """The package namespace's public names, its submodules left out."""
    return {name for name, value in vars(nvunmix).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


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
    public = _public_names()
    assert len(public) == 44
    for module, names in _BY_NAME.items():
        for name in names:
            assert name not in public
            assert hasattr(importlib.import_module(f"nvunmix.{module}"), name)


def test_namespace_is_the_analysis_modules_public_names():
    """Each analysis module owns its public names (its ``__all__``, or every public name of
    ``errors``, which has none), and the package republishes exactly those."""
    owned = set()
    for name in _ANALYSIS:
        module = importlib.import_module(f"nvunmix.{name}")
        owned.update(getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")]))
    assert _public_names() == owned


def test_negative_flag_takes_fileio_modes():
    """Every ``--negative`` flag offers the modes that ``fileio`` checks, and only those."""
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    flags = {command: action.choices for command, parser in commands.items()
             for action in parser._actions if action.dest == "negative"}
    assert sorted(flags) == ["decompose", "fit-series", "transmissivity"]
    assert all(choices is fileio._NEGATIVE_MODES for choices in flags.values())


def test_errors_defines_one_class_per_outcome():
    """Exit 2 is a ValidationError or a ParseError and exit 3 an IdentifiabilityError; the
    other classes are the base class and the warnings."""
    assert {n for n, v in vars(errors).items() if isinstance(v, type)} == {
        "NvUnmixError", "ValidationError", "ParseError", "IdentifiabilityError",
        "NvUnmixWarning", "ModelViolationWarning", "NonPhysicalWarning", "ConditioningWarning"}


@pytest.mark.parametrize("error, code, line", [
    (ValidationError, 2, "error: {p}: x\n"),  # a value the params file holds
    (ParseError, 2, "error: x\n"),
    (IdentifiabilityError, 3, "error: x\n"),
])
def test_each_outcome_class_has_its_exit_code(tmp_path, capsys, monkeypatch, error, code, line):
    """A command whose body raises one of the outcome classes exits with that class's code
    and one ``error:`` line, and writes nothing."""
    def simulate(p, seed):
        raise error("x")

    monkeypatch.setitem(synth._SIMULATORS, "spectrum", (simulate, synth._SIMULATORS["spectrum"][1]))
    (tmp_path / "p.json").write_text("{}")
    argv = ["simulate", "spectrum", "--params", str(tmp_path / "p.json"), "--out", str(tmp_path / "sim")]
    assert cli.main(argv) == code
    assert capsys.readouterr() == ("", line.format(p=tmp_path / "p.json"))
    assert not (tmp_path / "sim").exists()
