"""Every error the package raises on purpose, with the exit code it maps to.

``exit_code`` is the command line's contract: 2 for input that means nothing
(a spec, a catalog file, an edge list), 3 for a group whose coprime graph is
undefined, 4 for a size cap, 1 for a certificate that failed its own
re-check.  Each class also keeps the builtin base it has always had, so code
that catches ``ValueError``, ``RuntimeError`` or ``AssertionError`` is
unaffected.  Anything else that escapes is a bug and should show as one.
"""

from __future__ import annotations

# the most characters of outside text (a spec, a group name, an input line) a message quotes
QUOTE_LIMIT = 80


def clip(value: object) -> str:
    """``str(value)`` whole if it fits QUOTE_LIMIT, else its head and "..." in that many."""
    text = str(value)
    return text if len(text) <= QUOTE_LIMIT else text[: QUOTE_LIMIT - 3] + "..."


class CoprimeGraphError(Exception):
    """Base of the package's own errors."""

    exit_code = 1


class InputError(CoprimeGraphError, ValueError):
    """Input that does not describe anything the program can build."""

    exit_code = 2


class SpecParseError(InputError):
    """A group spec string does not match the grammar."""


class GroupConstructionError(InputError):
    """Constructor parameters do not define a group."""


class CatalogError(InputError):
    """A catalog file is not JSON, not UTF-8, or not a list of entries."""


class EdgeListError(InputError):
    """An edge list is malformed or does not describe a simple graph."""


class UndefinedCoprimeGraphError(CoprimeGraphError, ValueError):
    """The coprime graph is undefined for the trivial group and prime orders."""

    exit_code = 3


class CapExceeded(CoprimeGraphError, RuntimeError):
    """An input is larger than a configured size bound."""

    exit_code = 4


class OrderCapExceeded(CapExceeded):
    """A construction or enumeration exceeded its configured size bound."""


class ExactCapExceeded(CapExceeded):
    """The graph is larger than the configured exact-solver cap."""


def check_exact_cap(n_vertices: int, cap: int) -> None:
    """Refuse a graph with more vertices than the exact solvers may take."""
    if n_vertices > cap:
        raise ExactCapExceeded(f"{n_vertices} vertices exceed the exact-solver cap {cap}")


class MisCapExceeded(CapExceeded):
    """The vertex count exceeds the configured enumeration cap."""


class CertificateError(CoprimeGraphError, AssertionError):
    """A certificate failed the re-check it gets before it is returned."""

    exit_code = 1
