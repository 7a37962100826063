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
from dataclasses import fields
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
_DIGEST_BLOCK = 1 << 14  # file_digest's one read buffer, in bytes


def content_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str | Path) -> str:
    """content_digest of the file's bytes, read into one reused buffer."""
    digest, view = hashlib.sha256(), memoryview(bytearray(_DIGEST_BLOCK))
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(view):
            digest.update(view[:size])
    return digest.hexdigest()


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


def _fields(result, *names) -> dict:
    """The named fields of a result dataclass (all of them by default),
    each non-finite float as None."""
    out = {}
    for name in names or [f.name for f in fields(result)]:
        value = getattr(result, name)
        out[name] = _num(value) if isinstance(value, float) else value
    return out


def fit_document(fit: PowerLawFit, label: str, *, command: str, seed: int,
                 input_digest: str, min_tail: int,
                 bootstrap_reps: int) -> dict:
    doc = _envelope("fit", command, seed, input_digest)
    doc.update(_fields(fit), label=label, min_tail=int(min_tail),
               bootstrap_reps=int(bootstrap_reps))
    return doc


def gof_document(result: GofResult, fit: PowerLawFit, label: str, *,
                 command: str, seed: int, input_digest: str) -> dict:
    doc = _envelope("gof", command, seed, input_digest)
    doc.update(_fields(fit, "x_min", "alpha"), label=label)
    doc.update(_fields(result))
    return doc


def compare_document(comparisons: Iterable[ModelComparison],
                     fit: PowerLawFit, label: str, *, command: str, seed: int,
                     input_digest: str) -> dict:
    doc = _envelope("compare", command, seed, input_digest)
    doc.update(_fields(fit, "x_min", "alpha", "log_likelihood"), label=label,
               comparisons=[_fields(c) for c in comparisons])
    return doc


def scaling_document(results: Mapping[str, tuple[ScalingFit, list[tuple[str, str]]]],
                     *, command: str, seed: int, input_digest: str) -> dict:
    from .scaling import matthew_factor  # loaded by whoever built ``results``

    doc = _envelope("scaling", command, seed, input_digest)
    doc["modes"] = {}
    for mode, (fit, excluded) in results.items():
        entry = doc["modes"][mode] = _fields(fit)
        entry["intercept_log10"] = entry.pop("intercept_log")
        entry["matthew_factor"] = _num(matthew_factor(fit.exponent))
        entry["excluded"] = [{"subfield": s, "reason": r}
                             for s, r in excluded]
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
