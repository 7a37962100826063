"""Machine-readable result documents with a stable byte layout.

Every document embeds the toolkit version, the (canonical) command line,
the seed, and a SHA-256 digest of the input, so a result is reproducible
from the document alone.  Rendering uses sorted keys and fixed
indentation; equal results serialize to equal bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from ._version import __version__

if TYPE_CHECKING:
    from .altmodels import ModelComparison
    from .gof import GofResult
    from .powerlaw import PowerLawFit
    from .scaling import ScalingFit

__all__ = [
    "DOCUMENT_KINDS",
    "content_digest",
    "file_digest",
    "fit_document",
    "gof_document",
    "compare_document",
    "scaling_document",
    "ingest_document",
    "render_json",
    "write_document",
    "validate_document",
]

DOCUMENT_KINDS = ("fit", "gof", "compare", "scaling", "ingest")


def content_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str | Path) -> str:
    return content_digest(Path(path).read_bytes())


def _envelope(kind: str, command: str, seed: int, input_digest: str) -> dict:
    return {
        "document": kind,
        "version": __version__,
        "command": command,
        "seed": int(seed),
        "input_sha256": input_digest,
    }


def _num(value: float) -> float | None:
    value = float(value)
    return value if math.isfinite(value) else None


def fit_document(fit: PowerLawFit, label: str, *, command: str, seed: int,
                 input_digest: str, min_tail: int,
                 bootstrap_reps: int) -> dict:
    doc = _envelope("fit", command, seed, input_digest)
    doc.update({
        "label": label,
        "x_min": fit.x_min,
        "x_min_sd": _num(fit.x_min_sd),
        "alpha": _num(fit.alpha),
        "alpha_sd": _num(fit.alpha_sd),
        "n_tail": fit.n_tail,
        "ks": _num(fit.ks),
        "log_likelihood": _num(fit.log_likelihood),
        "min_tail": int(min_tail),
        "bootstrap_reps": int(bootstrap_reps),
    })
    return doc


def gof_document(result: GofResult, fit: PowerLawFit, label: str, *,
                 command: str, seed: int, input_digest: str) -> dict:
    doc = _envelope("gof", command, seed, input_digest)
    doc.update({
        "label": label,
        "x_min": fit.x_min,
        "alpha": _num(fit.alpha),
        "ks_empirical": _num(result.ks_empirical),
        "n_sims": result.n_sims,
        "n_exceeding": result.n_exceeding,
        "p_value": _num(result.p_value),
        "ruled_out": result.ruled_out,
    })
    return doc


def compare_document(comparisons: Iterable[ModelComparison],
                     fit: PowerLawFit, label: str, *, command: str, seed: int,
                     input_digest: str) -> dict:
    doc = _envelope("compare", command, seed, input_digest)
    doc.update({
        "label": label,
        "x_min": fit.x_min,
        "alpha": _num(fit.alpha),
        "log_likelihood": _num(fit.log_likelihood),
        "comparisons": [{
            "alternative": c.alternative,
            "lr": _num(c.lr),
            "z": None if c.z is None else _num(c.z),
            "p": _num(c.p),
            "verdict": c.verdict,
            "note": c.note,
        } for c in comparisons],
    })
    return doc


def scaling_document(results: Mapping[str, tuple[ScalingFit, list[tuple[str, str]]]],
                     *, command: str, seed: int, input_digest: str) -> dict:
    from .scaling import matthew_factor  # loaded by whoever built ``results``

    doc = _envelope("scaling", command, seed, input_digest)
    doc["modes"] = {
        mode: {
            "exponent": _num(fit.exponent),
            "exponent_se": _num(fit.exponent_se),
            "intercept_log10": _num(fit.intercept_log),
            "k": _num(fit.k),
            "r2": _num(fit.r2),
            "t_stat": _num(fit.t_stat),
            "p_value": _num(fit.p_value),
            "df": fit.df,
            "n_points": fit.n_points,
            "matthew_factor": _num(matthew_factor(fit.exponent)),
            "excluded": [{"subfield": s, "reason": r} for s, r in excluded],
        }
        for mode, (fit, excluded) in results.items()
    }
    return doc


def ingest_document(*, command: str, seed: int, input_digest: str,
                    map_digest: str, n_records: int, n_rejections: int,
                    n_subfields: int, mode_counts: Mapping[str, int]) -> dict:
    doc = _envelope("ingest", command, seed, input_digest)
    doc.update({
        "map_sha256": map_digest,
        "n_records": int(n_records),
        "n_rejections": int(n_rejections),
        "n_subfields": int(n_subfields),
        "mode_counts": {k: int(v) for k, v in mode_counts.items()},
    })
    return doc


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_document(doc: dict, path: str | Path) -> None:
    Path(path).write_bytes(render_json(doc).encode("utf-8"))


def validate_document(doc: dict) -> None:
    """Check a document against its published schema (requires jsonschema)."""
    import jsonschema
    from importlib import resources

    kind = doc.get("document")
    if kind not in DOCUMENT_KINDS:
        raise ValueError(f"unknown document kind: {kind!r}")
    schema_text = (resources.files("heavytails") / "schemas"
                   / f"{kind}.schema.json").read_text(encoding="utf-8")
    jsonschema.validate(doc, json.loads(schema_text))
