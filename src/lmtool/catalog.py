"""Built-in condition subspaces used as fixtures and CLI shortcuts.

Every entry round-trips through parse_spec, so each doubles as a sample
input document for the CLI.
"""

from __future__ import annotations

from fractions import Fraction

from .subspace import Functional, SubspaceSpec


def _fn(point: int, order: int) -> Functional:
    return Functional(Fraction(point), ((order, Fraction(1)),))


def _build() -> tuple[SubspaceSpec, ...]:
    two_point = SubspaceSpec("two-point", [_fn(0, 1), _fn(1, 1)])
    mixed = SubspaceSpec("mixed", [_fn(0, 2), _fn(1, 1)])
    return (
        SubspaceSpec.trivial(),
        SubspaceSpec.from_gaps("cusp", [1]),
        SubspaceSpec.from_gaps("gaps-1-2", [1, 2]),
        SubspaceSpec.from_gaps("gaps-1-3", [1, 3]),
        SubspaceSpec.from_gaps("gaps-1-2-3", [1, 2, 3]),
        two_point,
        mixed,
    )


_CATALOG = _build()
_BY_NAME = {spec.name: spec for spec in _CATALOG}


def catalog() -> tuple[SubspaceSpec, ...]:
    """All built-in specs, in a fixed order."""
    return _CATALOG


def catalog_names() -> tuple[str, ...]:
    return tuple(spec.name for spec in _CATALOG)


def catalog_get(name: str) -> SubspaceSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"no built-in spec named {name!r}; known: {', '.join(catalog_names())}"
        ) from None
