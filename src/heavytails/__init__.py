"""Heavy-tailed citation analysis toolkit.

Fits discrete power laws to citation-count samples (x_min scan, exact MLE,
bootstrap uncertainties), tests plausibility with a semi-parametric Monte
Carlo bootstrap, compares against lognormal/exponential/cutoff
alternatives by likelihood ratio, and measures the scaling relationship
between citation impact and output across subfields.

Exports and submodules load on first use (PEP 562), so a command that
needs no numpy imports none: `ingest`, `scaling`, `report` and
`--version` are such commands.  The others need numpy alone.  `--version`
and `report` load neither OpenSSL, through hashlib, nor the document
writer.
"""

from importlib import import_module

from ._version import __version__

# module -> the public names loaded from it; the two constants come from the
# numpy-free module that defines them
_EXPORTS = {
    "_constants": ("FAMILIES", "MODES"),
    "altmodels": ("AltFit", "ModelComparison", "compare_models",
                  "fit_alternative", "sample_alternative"),
    "dataset": ("AGGREGATE_COLUMNS", "CitationSample", "PartitionShares",
                "SubfieldAggregate", "SummaryStats", "partition_shares",
                "read_aggregates", "read_counts", "summarize",
                "write_aggregates", "write_counts"),
    "gof": ("GofResult", "RULE_OUT_THRESHOLD", "gof_test", "required_sims"),
    "ingest": ("BiblioRecord", "DOC_TYPES", "ParseResult", "build_aggregates",
               "classify_collaboration", "filter_years", "mode_samples",
               "normalize_journal", "parse_export", "read_classification",
               "write_export"),
    "powerlaw": ("DiscretePowerLaw", "PowerLawFit", "ccdf_table", "fit_alpha",
                 "fit_power_law", "hurwitz_zeta", "ks_distance",
                 "sample_power_law"),
    "scaling": ("ScalingFit", "ScalingPoint", "expected_cbp",
                "matthew_factor", "performance_indicator",
                "points_from_aggregates", "scaling_fit", "scatter_table"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
_SUBMODULES = frozenset(_EXPORTS) - {"_constants"} | {
    "cli", "documents", "report"}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
