"""The package root: each public name loads its submodule on first use."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import xlconsist

SRC = Path(xlconsist.__file__).resolve().parents[1]


def fresh(code: str) -> str:
    """What a fresh interpreter prints running `code`."""
    result = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def loaded_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running `statement`."""
    return set(fresh(f"import sys\n{statement}\nprint(*sorted(sys.modules))").split())


def test_package_import_loads_no_submodule_and_no_numpy():
    loaded = loaded_after("import xlconsist")
    assert not {name for name in loaded if name.startswith("xlconsist.")}
    assert "numpy" not in loaded


def test_mock_endpoint_import_loads_no_scoring_stack():
    loaded = loaded_after("import xlconsist.mockllm")
    unwanted = {"numpy", "yaml", "xlconsist.consistency", "xlconsist.embedding",
                "xlconsist.transport"}
    assert not unwanted & loaded


def test_cli_import_loads_no_yaml():
    assert "yaml" not in loaded_after("import xlconsist.cli")


def test_every_public_name_is_its_submodules_object():
    for name in xlconsist.__all__:
        if name == "__version__":
            continue
        source = importlib.import_module(f"xlconsist.{xlconsist._SOURCES[name]}")
        assert getattr(xlconsist, name) is getattr(source, name), name


def test_dir_lists_every_public_name_before_it_is_loaded():
    code = "import xlconsist\nprint(*sorted(set(xlconsist.__all__) - set(dir(xlconsist))))"
    assert fresh(code).split() == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        xlconsist.no_such_name
    assert not hasattr(xlconsist, "no_such_name")
