"""The API-docs generator must run, cover every public package and
reproduce the tracked ``docs/API.md``."""

import runpy
from pathlib import Path

TOOLS = Path(__file__).parent.parent / "tools"


def test_api_docs_generate(tmp_path):
    module = runpy.run_path(str(TOOLS / "gen_api_docs.py"))
    out = module["main"](tmp_path / "API.md")
    assert out == tmp_path / "API.md"
    text = out.read_text()
    for package in module["PACKAGES"]:
        assert f"## `{package}`" in text
    assert "class `AnECI" in text
    assert "generalized_modularity_tensor" in text
    # docs/API.md is regenerated with ``python tools/gen_api_docs.py``.
    assert text == module["DEFAULT_OUT"].read_text()
