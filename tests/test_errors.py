"""The error taxonomy: one base, an exit code per class, the old bases kept."""

import pytest

import coprimegraph
from coprimegraph import analysis, coprime, embedding, errors, groups

# class name: (builtin base, exit code, modules it has always been importable from)
TAXONOMY = {
    "SpecParseError": (ValueError, 2, [groups]),
    "GroupConstructionError": (ValueError, 2, [groups]),
    "CatalogError": (ValueError, 2, []),
    "EdgeListError": (ValueError, 2, []),
    "UndefinedCoprimeGraphError": (ValueError, 3, [coprime]),
    "OrderCapExceeded": (RuntimeError, 4, [groups]),
    "ExactCapExceeded": (RuntimeError, 4, [analysis]),
    "MisCapExceeded": (RuntimeError, 4, [embedding]),
    "CertificateError": (AssertionError, 1, []),
}


@pytest.mark.parametrize("name", sorted(TAXONOMY))
def test_error_class(name):
    base, code, homes = TAXONOMY[name]
    cls = getattr(errors, name)
    assert issubclass(cls, errors.CoprimeGraphError) and issubclass(cls, base)
    assert cls.exit_code == code
    for module in [coprimegraph, *homes]:
        assert getattr(module, name) is cls
