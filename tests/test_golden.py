"""Golden bytes: every report and fixture-cache file of the campaigns in
`tests/golden/manifest.json`, rebuilt on an empty cache directory, has the
SHA-256 the manifest records. Report bits depend on the BLAS core and the
SIMD level, so on another platform fingerprint the test skips and names
both. `tests/golden/rewrite.py` rewrites the manifest."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parent / "golden" / "rewrite.py"
_spec = importlib.util.spec_from_file_location("golden_rewrite", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_reports_and_cache_files_match_the_golden_manifest(tmp_path):
    manifest = json.loads(golden.MANIFEST.read_text())
    here = golden.fingerprint()
    if here != manifest["fingerprint"]:
        pytest.skip(f"platform fingerprint {here} is not the manifest's "
                    f"{manifest['fingerprint']}")
    got = golden.build(tmp_path)
    moved = sorted(name for name, digest in manifest["reports"].items()
                   if got["reports"].get(name) != digest)
    assert not moved, f"report bytes moved: {moved}"
    assert got["reports"].keys() == manifest["reports"].keys()
    assert got["cache_files"] == manifest["cache_files"]
