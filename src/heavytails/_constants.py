"""Names and defaults the command-line parser needs, free of numpy.

Each is defined here once and re-exported from the module that uses it:
`altmodels`, `scaling`, `powerlaw`, `gof` and `ingest`.
"""

# alternative family -> its parameter names, in the order AltFit.params
# holds them
FAMILY_PARAMS = {
    "lognormal": ("mu", "sigma"),
    "exponential": ("rate",),
    "powerlaw_cutoff": ("alpha", "rate"),
}
FAMILIES = tuple(FAMILY_PARAMS)
MODES = ("overall", "collaboration", "single")
DEFAULT_MIN_TAIL = 50
DEFAULT_BOOTSTRAP_REPS = 1000
DEFAULT_SIMS = 2500

# record field -> the export column it is read from
DEFAULT_COLUMNS = {
    "authors": "AU",
    "journal": "SO",
    "doc_type": "DT",
    "citations": "TC",
    "year": "PY",
    "record_id": "UT",
}
