"""Golden output: every renderer's bytes for three fixed builds, pinned by hash.

The hashes were recorded before the publish path gained its name, key and
wrap caches, so any change to parsing, collation or rendering that moves a
single output byte fails here.  Recompute them only for a deliberate
output change, and say which one.
"""

from __future__ import annotations

import hashlib

from repro.core.builder import AuthorIndex, AuthorIndexBuilder, build_index
from repro.core.render import available_formats
from repro.corpus.synthetic import SyntheticCorpus, SyntheticCorpusConfig

GOLDEN: dict[str, dict[str, object]] = {
    "reference": {
        "groups": 257,
        "csv": "f7c9f0ff875b53d33d462a323209d5821a7257f2c546396586fc88bda327e509",
        "html": "2537ccd13cf174b0f409d5c3ba05dbbcd13616ee4b7909cf6ca054769b3589c9",
        "json": "a7f714cdbe2c1041d5c5b117c169f9a5e179b49665b61bc520200b83ab30c0fc",
        "latex": "0216f2ea529e81b3648f9e6cc5d6e64d5400a43d4264adaf6b21ac345be1573a",
        "markdown": "e0bda9ae444edf0cf34f16b57de5d68b118b07bfe5aa18f5ca1656cafbf931ac",
        "text": "1d7ff16b5107acfab6d334991a44642fc303886b779eff744826f530bb810082",
        "text-unpaginated": "62138ea23ae3ea697bbbb4d8ca7e960c06af4da94fd3862ebf809c7a02ed8af3",
    },
    "synthetic-2000": {
        "groups": 1242,
        "csv": "bb67364807639b71cb6109eb69b96f84de3914ad5aef921323acd76845ce0f25",
        "html": "4bb04e5db41018c3079ff1d07583e5af19a3eea2f4d58005b3cc9a2eecc4052d",
        "json": "8509d361f66a483cc0d46d7a3ea3a26f420d04f2a83904f276b0a072137ffa2c",
        "latex": "3a635a51fef2db62e13b3e7dff9b787248cfc7556daee8665adec6eb612435e8",
        "markdown": "44181fd4a3abbcedf9e32f7abe9f7a57e6104fb6040d980c74f62d896299fa4a",
        "text": "80d82890f6de25c14ea125a89391ed329fdd7be240b2462bc96e4a0f2d36047b",
        "text-unpaginated": "a11d5d27eb96ba58416afb7795398ead2ebe790c7f101df4e2cf442161006be7",
    },
    "resolved-400": {
        "groups": 249,
        "csv": "7585c1322f24cfd67c8be98fbc98fe6c6b098603d38b4a978f6efef2b8f1e5ed",
        "html": "26ca57d35b61d2019f36e3d6b1fb3c1616ade839910ab43f121ca492d36401a7",
        "json": "f9018fe6e40aa40efdaed60c326948a010cefc159cafd80e66b7521c6e9998bb",
        "latex": "9d3221bbab9c323ad31257dc64c68c0b3238c84ba748e9e73ccaf1a43aff68b7",
        "markdown": "4a968fff7a33744858f6d306fb381d0f733a1582a45ae29d934137829b4f90a9",
        "text": "e9420141e0f3f1278a17ee0fda09033ad24482f95c9d846d0de254e2f70e6ba1",
        "text-unpaginated": "8f00cc6cb22ae1a91b0cd5835f40183f16a233bdf678f11851122ae726529f28",
    },
}


def _fingerprint(index: AuthorIndex) -> dict[str, object]:
    out: dict[str, object] = {"groups": len(index.groups())}
    for fmt in available_formats():
        out[fmt] = hashlib.sha256(index.render(fmt).encode("utf-8")).hexdigest()
    unpaginated = index.render("text", paginated=False)
    out["text-unpaginated"] = hashlib.sha256(unpaginated.encode("utf-8")).hexdigest()
    return out


def test_reference_output(reference_records):
    assert _fingerprint(build_index(reference_records)) == GOLDEN["reference"]


def test_synthetic_output():
    corpus = SyntheticCorpus(SyntheticCorpusConfig(size=2000, seed=1234))
    assert _fingerprint(build_index(corpus.records())) == GOLDEN["synthetic-2000"]


def test_resolved_output(synthetic_records):
    index = AuthorIndexBuilder(resolve_variants=True).add_records(synthetic_records).build()
    assert _fingerprint(index) == GOLDEN["resolved-400"]


def test_every_format_is_pinned():
    # A renderer registered later must get recorded hashes, not a silent pass.
    expected = set(available_formats()) | {"groups", "text-unpaginated"}
    assert all(set(pins) == expected for pins in GOLDEN.values())
