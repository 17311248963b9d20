"""Exact enumeration and tiling algebra for uniform Kirchhoff graphs.

The public names below resolve on first access, so importing the package
(or ``kirchgraph.cli``) loads none of its layers until a name is used.
"""

from importlib import import_module

_EXPORTS = {
    "exactalg": (
        "DegenerateShape",
        "ParallelColumns",
        "RankDeficient",
        "RowSystem",
        "RowSystemError",
        "ZeroRowInC",
        "build_row_system",
        "enumerate_bounded_cuts",
        "rref",
        "span_rank",
    ),
    "vgraph": ("KirchhoffVerdict", "Multiplicity", "VectorGraph"),
    "enumerator": (
        "Search",
        "SearchConfig",
        "SearchStats",
        "enumerate_kirchhoff",
        "min_multiplicity",
    ),
    "tiling": (
        "FamilyConstructionError",
        "KirchhoffViolation",
        "NoEmbeddingAtOffset",
        "Placement",
        "PrimalityVerdict",
        "SpanResult",
        "SystemMismatch",
        "TilingError",
        "TilingExpression",
        "add",
        "build_infinite_prime_family",
        "find_embeddings",
        "fundamental_sets",
        "is_prime",
        "span_contains",
        "subtract",
    ),
    "document": ("build_document", "document_to_json", "parse_document"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
