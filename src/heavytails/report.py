"""Human-readable rendering of result documents.

Machine documents stay parseable JSON; this module turns them into the
tables a reader expects: fit rows with +/- uncertainties, comparison rows
per alternative, and per-mode scaling rows with the doubling factor.
"""

from __future__ import annotations

from ._constants import MODES

__all__ = ["render"]

# C0 and C1 control characters and DEL -> their escapes in repr, so that a
# report cell or an error message naming, say, a file with a carriage return
# stays on one line and in its column
_CONTROL_ESCAPES = {c: repr(chr(c))[1:-1]
                    for c in (*range(0x20), *range(0x7F, 0xA0))}


def _escaped(doc):
    """A copy of a parsed JSON value with every string in it, keys too,
    escaped.  Containers are filled from a stack, not by recursion: json
    parses values nested deeper than Python recurses."""
    def copy(value):
        if isinstance(value, str):
            return value.translate(_CONTROL_ESCAPES)
        if isinstance(value, (dict, list)):
            todo.append((value, out := type(value)()))
            return out
        return value

    todo = []
    root = copy(doc)
    while todo:
        source, target = todo.pop()
        if isinstance(source, dict):
            target.update((copy(k), copy(v)) for k, v in source.items())
        else:
            target.extend(map(copy, source))
    return root


def _fmt(value, digits=4) -> str:
    if value is None:
        return "n/a"
    return f"{value:.{digits}g}"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(out)


def _render_fit(doc: dict) -> str:
    rows = [[
        doc["label"],
        f"{doc['x_min']} +/- {_fmt(doc['x_min_sd'], 3)}",
        f"{_fmt(doc['alpha'])} +/- {_fmt(doc['alpha_sd'], 3)}",
        str(doc["n_tail"]),
        _fmt(doc["ks"], 3),
        _fmt(doc["log_likelihood"], 8),
    ]]
    table = _table(["sample", "x_min", "alpha", "n_tail", "KS", "log L"], rows)
    return (f"power-law fit (min tail {doc['min_tail']}, "
            f"{doc['bootstrap_reps']} bootstrap replicates, seed {doc['seed']})\n"
            f"{table}")


def _render_gof(doc: dict) -> str:
    verdict = ("power law RULED OUT (p <= 0.10)" if doc["ruled_out"]
               else "power law plausible (p > 0.10)")
    return "\n".join([
        f"goodness of fit for {doc['label']} "
        f"(x_min {doc['x_min']}, alpha {_fmt(doc['alpha'])})",
        f"  empirical KS   {_fmt(doc['ks_empirical'], 4)}",
        f"  simulations    {doc['n_sims']} ({doc['n_exceeding']} exceeding)",
        f"  p-value        {_fmt(doc['p_value'], 4)}",
        f"  {verdict}",
    ])


def _render_compare(doc: dict) -> str:
    rows = []
    for c in doc["comparisons"]:
        rows.append([c["alternative"], _fmt(c["lr"], 6),
                     _fmt(c["z"], 4), _fmt(c["p"], 3), c["verdict"]])
    table = _table(["alternative", "LR", "z", "p", "verdict"], rows)
    notes = [f"note ({c['alternative']}): {c['note']}"
             for c in doc["comparisons"] if c.get("note")]
    head = (f"model comparison for {doc['label']} "
            f"(x_min {doc['x_min']}, alpha {_fmt(doc['alpha'])}); "
            f"positive LR favors the power law")
    return "\n".join([head, table] + notes)


def _render_scaling(doc: dict) -> str:
    if not isinstance(doc["modes"], dict) or not doc["modes"]:
        raise ValueError("scaling document needs 'modes' to be a non-empty "
                         "object")
    rows = []
    notes = []
    for mode in MODES:
        if mode not in doc["modes"]:
            continue
        m = doc["modes"][mode]
        rows.append([
            mode, _fmt(m["exponent"], 4), _fmt(m["exponent_se"], 3),
            _fmt(m["r2"], 3), _fmt(m["t_stat"], 4), str(m["df"]),
            _fmt(m["p_value"], 3), _fmt(m["matthew_factor"], 4),
        ])
        for item in m["excluded"]:
            notes.append(f"excluded from {mode}: {item['subfield']} "
                         f"({item['reason']})")
    table = _table(["mode", "exponent", "SE", "R2", "t", "df", "p", "2^n"],
                   rows)
    return "\n".join(["scaling regression (log10 CBP vs log10 size)", table]
                     + notes)


def _render_ingest(doc: dict) -> str:
    modes = ", ".join(f"{k}: {v}" for k, v in sorted(doc["mode_counts"].items()))
    return "\n".join([
        "ingestion summary",
        f"  records kept   {doc['n_records']}",
        f"  rows rejected  {doc['n_rejections']}",
        f"  subfields      {doc['n_subfields']}",
        f"  mode counts    {modes}",
    ])


_RENDERERS = {
    "fit": _render_fit,
    "gof": _render_gof,
    "compare": _render_compare,
    "scaling": _render_scaling,
    "ingest": _render_ingest,
}


def render(doc: dict) -> str:
    """Render any result document as a plain-text report.

    A document that is not a JSON object, or lacks a field its kind
    needs, raises ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError("a result document must be a JSON object")
    kind = doc.get("document")
    if not isinstance(kind, str) or kind not in _RENDERERS:
        raise ValueError(f"unknown document kind: {kind!r}")
    try:
        return _RENDERERS[kind](_escaped(doc))
    except KeyError as exc:
        raise ValueError(f"{kind} document lacks field {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {kind} document: {exc}") from None
