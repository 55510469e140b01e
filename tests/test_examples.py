"""Every example script must run end-to-end (smoke level, reduced scale)."""

import runpy
import sys
from pathlib import Path
from unittest import mock

import pytest

EXAMPLES = sorted(
    (Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, monkeypatch, tmp_path):
    """Run each example with load_dataset patched to a tiny scale, from a
    temporary working directory so its outputs stay out of the repo."""
    import repro.graph.datasets as datasets

    original = datasets.load_dataset

    def small(name, scale=1.0, seed=0):
        return original(name, scale=min(scale, 0.08), seed=seed)

    # Examples import load_dataset through the package root.
    import repro
    monkeypatch.setattr(datasets, "load_dataset", small)
    monkeypatch.chdir(tmp_path)
    with mock.patch.object(repro, "load_dataset", small, create=True):
        runpy.run_path(str(path), run_name="__main__")
    if path.stem == "full_reproduction_report":
        assert (tmp_path / "reproduction_report.md").is_file()
