"""Shared fixtures: deterministic samples and a synthetic bibliographic corpus."""

import numpy as np
import pytest

from heavytails import CitationSample, DiscretePowerLaw, sample_power_law

EXPORT_HEADER = "AU\tSO\tDT\tTC\tPY\tUT"


def export_row(uid, authors, journal="Physics World", doc_type="Article",
               citations=5, year=2005):
    return f"{authors}\t{journal}\t{doc_type}\t{citations}\t{year}\t{uid}"


@pytest.fixture(scope="session")
def pl_sample():
    """20,000 draws from DiscretePowerLaw(x_min=1, alpha=2.35)."""
    return sample_power_law(DiscretePowerLaw(1, 2.35), 20_000, seed=7)


@pytest.fixture(scope="session")
def pl_tail_sample():
    """8,000 draws starting at x_min=10, where the Clauset form is accurate."""
    return sample_power_law(DiscretePowerLaw(10, 2.5), 8_000, seed=3)


@pytest.fixture(scope="session")
def heavy_sample():
    """5,000 draws from DiscretePowerLaw(x_min=1, alpha=1.5)."""
    return sample_power_law(DiscretePowerLaw(1, 1.5), 5_000, seed=1)


@pytest.fixture()
def tiny_sample():
    counts = np.array([1, 1, 1, 2, 2, 3, 4, 4, 5, 8, 13, 21], dtype=np.int64)
    return CitationSample(counts, label="tiny")


@pytest.fixture()
def export_lines():
    """A small export exercising both collaboration classes and two journals."""
    rows = [
        EXPORT_HEADER,
        export_row("WOS:001", "Smith, J; Lee, K", "Physics World", citations=12),
        export_row("WOS:002", "Alone, A", "Physics World", citations=3),
        export_row("WOS:003", "Duo, D; Trio, T; Quad, Q", "Botany Letters",
                   citations=30, year=2001),
        export_row("WOS:004", "Solo, S", "Botany Letters", citations=0,
                   year=1999),
    ]
    return [line + "\n" for line in rows]


@pytest.fixture()
def classification_lines():
    return [
        "journal,field,subfield\n",
        "physics world,natural,applied physics\n",
        "botany letters,natural,plant sciences\n",
    ]
