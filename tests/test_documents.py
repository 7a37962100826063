"""Tests for result documents: digests, rendering, schemas, golden bytes."""

import json
import math
from pathlib import Path

import jsonschema
import pytest

from heavytails import __version__
from heavytails.altmodels import ModelComparison
from heavytails.documents import (_DIGEST_BLOCK, DOCUMENT_KINDS,
                                  compare_document, content_digest,
                                  file_digest, fit_document, gof_document,
                                  ingest_document, render_json,
                                  scaling_document, validate_document,
                                  write_document)
from heavytails.gof import GofResult
from heavytails.powerlaw import PowerLawFit
from heavytails.scaling import ScalingFit

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

# SHA-256 of the empty string and of b"abc", the classic test vectors
EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
ABC_SHA = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

_FIT = PowerLawFit(x_min=2, alpha=2.5, n_tail=9, ks=0.0625,
                   alpha_sd=0.125, x_min_sd=0.5, log_likelihood=-12.5)


def build_fit_doc():
    return fit_document(_FIT, "golden", command="heavytails fit golden",
                        seed=7, input_digest=EMPTY_SHA, min_tail=50,
                        bootstrap_reps=0)


def build_gof_doc():
    result = GofResult(ks_empirical=0.0625, n_sims=100, n_exceeding=37,
                       p_value=0.37, ruled_out=False)
    return gof_document(result, _FIT, "golden",
                        command="heavytails gof golden", seed=7,
                        input_digest=EMPTY_SHA)


def build_compare_doc():
    comparisons = [
        ModelComparison("exponential", 3.5, 1.75, 0.08, "inconclusive", None),
        ModelComparison("powerlaw_cutoff", -0.5, None, 0.3173,
                        "inconclusive",
                        "zero variance of pointwise log-likelihood differences"),
    ]
    return compare_document(comparisons, _FIT, "golden",
                            command="heavytails compare golden", seed=7,
                            input_digest=EMPTY_SHA)


def build_scaling_doc():
    fit = ScalingFit(exponent=1.5, intercept_log=0.5, k=10.0**0.5,
                     exponent_se=0.25, r2=0.96875, t_stat=6.0,
                     p_value=0.001953125, df=8, n_points=10)
    flat = ScalingFit(exponent=0.0, intercept_log=2.0, k=100.0,
                      exponent_se=0.0, r2=1.0, t_stat=math.inf,
                      p_value=0.0, df=1, n_points=3)
    return scaling_document(
        {"overall": (fit, [("dormant", "zero papers")]),
         "single": (flat, [])},
        command="heavytails scaling golden", seed=0, input_digest=ABC_SHA)


def build_ingest_doc():
    return ingest_document(command="heavytails ingest golden", seed=0,
                           input_digest=EMPTY_SHA, map_digest=ABC_SHA,
                           n_records=4, n_rejections=1, n_subfields=2,
                           mode_counts={"overall": 4, "collaboration": 2,
                                        "single": 2})


BUILDERS = {
    "fit": build_fit_doc,
    "gof": build_gof_doc,
    "compare": build_compare_doc,
    "scaling": build_scaling_doc,
    "ingest": build_ingest_doc,
}


class TestDigests:
    def test_known_vectors(self):
        assert content_digest(b"") == EMPTY_SHA
        assert content_digest(b"abc") == ABC_SHA

    def test_file_digest(self, tmp_path):
        p = tmp_path / "input.txt"
        p.write_bytes(b"abc")
        assert file_digest(p) == ABC_SHA

    @pytest.mark.parametrize("size", [
        0, 1, _DIGEST_BLOCK - 1, _DIGEST_BLOCK, _DIGEST_BLOCK + 1,
        3 * _DIGEST_BLOCK + 7,
    ], ids=["empty", "1", "B-1", "B", "B+1", "3B+7"])
    def test_file_digest_across_chunks(self, tmp_path, size):
        # file_digest reads into one buffer of B = _DIGEST_BLOCK bytes, so
        # these sizes end just before, at and just after a read's end
        p = tmp_path / "big.bin"
        p.write_bytes((bytes(range(256)) * (size // 256 + 1))[:size])
        assert file_digest(p) == content_digest(p.read_bytes())


class TestRenderJson:
    def test_trailing_newline(self):
        assert render_json({"a": 1}).endswith("}\n")

    def test_sorted_keys(self):
        text = render_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_key_order_independent(self):
        assert render_json({"b": 1, "a": 2}) == render_json({"a": 2, "b": 1})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            render_json({"x": float("nan")})

    def test_write_document_bytes(self, tmp_path):
        doc = build_ingest_doc()
        p = tmp_path / "doc.json"
        write_document(doc, p)
        assert p.read_bytes() == render_json(doc).encode("utf-8")


class TestSchemas:
    @pytest.mark.parametrize("kind", DOCUMENT_KINDS)
    def test_builders_validate(self, kind):
        doc = BUILDERS[kind]()
        assert doc["document"] == kind
        validate_document(doc)

    def test_version_embedded(self):
        assert build_fit_doc()["version"] == __version__

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown document kind"):
            validate_document({"document": "summary"})

    def test_schema_catches_bad_alpha(self):
        doc = build_fit_doc()
        doc["alpha"] = 0.5
        with pytest.raises(jsonschema.ValidationError):
            validate_document(doc)

    def test_schema_catches_bad_digest(self):
        doc = build_fit_doc()
        doc["input_sha256"] = "not-a-digest"
        with pytest.raises(jsonschema.ValidationError):
            validate_document(doc)

    def test_schema_catches_missing_field(self):
        doc = build_gof_doc()
        del doc["p_value"]
        with pytest.raises(jsonschema.ValidationError):
            validate_document(doc)

    def test_schema_catches_extra_field(self):
        doc = build_ingest_doc()
        doc["surprise"] = 1
        with pytest.raises(jsonschema.ValidationError):
            validate_document(doc)

    def test_schema_catches_bad_verdict(self):
        doc = build_compare_doc()
        doc["comparisons"][0]["verdict"] = "tie"
        with pytest.raises(jsonschema.ValidationError):
            validate_document(doc)

    def test_infinite_t_stat_serializes_as_null(self):
        doc = build_scaling_doc()
        assert doc["modes"]["single"]["t_stat"] is None
        validate_document(doc)
        render_json(doc)


class TestGoldenBytes:
    @pytest.mark.parametrize("kind", DOCUMENT_KINDS)
    def test_bytes_unchanged(self, kind):
        golden = (GOLDEN_DIR / f"{kind}.json").read_bytes()
        assert render_json(BUILDERS[kind]()).encode("utf-8") == golden

    def test_goldens_validate(self):
        for kind in DOCUMENT_KINDS:
            doc = json.loads((GOLDEN_DIR / f"{kind}.json").read_text())
            validate_document(doc)
