import inspect
import re
from pathlib import Path

import netspectra
from netspectra import errors

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_sorted_unique_and_resolves():
    names = netspectra.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(netspectra, name), name


def test_every_root_export_is_named_in_readme():
    # an export the README does not name is one only the tests use
    text = README.read_text()
    assert [name for name in netspectra.__all__ if not re.search(rf"\b{name}\b", text)] == []


def test_exported_exceptions_are_the_package_errors():
    # One class per way a caller handles a failure; a new one has to be
    # added here on purpose.
    defined = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj)
        and issubclass(obj, errors.NetspectraError)
        and obj.__module__ == errors.__name__
    }
    exported = {
        name
        for name in netspectra.__all__
        if inspect.isclass(getattr(netspectra, name))
        and issubclass(getattr(netspectra, name), BaseException)
    }
    assert exported == defined == {
        "EdgeListParseError",
        "GraphError",
        "NetspectraError",
        "NotConvergedError",
    }
    assert issubclass(errors.GraphError, ValueError)
