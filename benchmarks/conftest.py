"""Shared fixtures for the benchmark harness.

Every bench regenerates one table or figure of the paper (or pins one
of this repo's own protocol claims) from a seeded simulation and
asserts its qualitative *shape* (who wins, by roughly what factor).
It publishes one document through ``publish_json``; see
``docs/benchmarks.md``.
"""

from __future__ import annotations

import pathlib

import pytest

import harness

RESULTS_DIR = harness.RESULTS_DIR


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def publish_json(results_dir):
    """publish_json(payload): validate against the bench schema, persist
    ``results/<exp>.json`` and, rendered from that same payload, the
    human table ``results/<exp>.txt`` (printed too; see it with ``-s``)."""

    def _publish(payload) -> None:
        path = harness.write_result(payload, results_dir)
        text = harness.render_text(payload)
        path.with_suffix(".txt").write_text(text)
        print(f"\n{text}\n[bench-json] wrote {path}")

    return _publish
