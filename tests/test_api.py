import inspect
import re
from pathlib import Path

import pytest

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


# Every result the pipeline returns is a named tuple, so its field order is
# part of the API: the order it unpacks, indexes and compares in.
RESULT_FIELDS = {
    "EvolutionRecord": ("step", "node_count", "edge_count", "lambda_ratio", "cv"),
    "SweepRow": ("param", "mean_lambda_ratio", "mean_cv", "mean_correlation", "runs"),
    "AveragedSummary": ("runs", "mean_lambda_ratio", "mean_cv", "mean_correlation", "per_step"),
    "DegreeStats": ("k_min", "k_max", "k_avg", "k_sd"),
    "SpectralResult": (
        "spectral_radius",
        "principal_eigenvector",
        "iterations",
        "converged",
        "residual",
        "shifted",
    ),
    "RewireEvent": ("original_edge", "new_edge"),
}


@pytest.mark.parametrize("name", sorted(RESULT_FIELDS))
def test_results_are_immutable_named_tuples_in_documented_order(name):
    cls = getattr(netspectra, name)
    assert issubclass(cls, tuple)
    assert cls._fields == RESULT_FIELDS[name]
    result = cls._make(range(len(cls._fields)))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(result, field, -1)
    changed = result._replace(**{cls._fields[0]: -1})
    assert type(changed) is cls
    assert changed == (-1, *result[1:])
