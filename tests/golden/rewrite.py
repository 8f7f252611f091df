"""Rewrite `manifest.json` beside this file: the byte contract as a
committed file.

The manifest holds the SHA-256 of every report of the 26 built-in
scenario x provider-kind campaigns at master seeds 1 and 42 (3 trials,
PartialCheat at cheat rate 0.5, `wall_time_s` stripped), the SHA-256 of
every fixture-cache file those campaigns leave in an empty cache
directory, and the platform fingerprint they were made on.
`tests/test_golden.py` rebuilds them and compares. A change that moves
report or cache bytes rewrites the manifest, and its diff names what moved.

Run from the repository root:

    PYTHONPATH=src python tests/golden/rewrite.py
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).with_name("manifest.json")
SEEDS = (1, 42)
TRIALS = 3
PARTIAL_CHEAT_RATE = 0.5


def _openblas_core() -> str:
    """The OpenBLAS kernel core numpy's bundled library picked at load."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_char_p
        return get().decode()
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    """The settings the report bits depend on: Python, numpy, numpy's SIMD
    dispatch (the CPU features it found), the OpenBLAS core and the CPU."""
    from numpy._core._multiarray_umath import __cpu_features__
    return {"python": platform.python_version(), "numpy": np.__version__,
            "simd_found": sorted(k for k, v in __cpu_features__.items() if v),
            "openblas_core": _openblas_core(), "cpu": _cpu_model()}


def _campaigns() -> dict[str, dict]:
    """name -> raw config of every campaign the manifest covers."""
    from veriml import config as cfgmod
    from veriml.entities import PARTIAL_CHEAT, PROVIDER_KINDS
    out = {}
    for seed in SEEDS:
        for scenario in cfgmod.SCENARIOS:
            if scenario == cfgmod.AUDITOR:  # it has no provider
                out[f"{scenario}.seed{seed}"] = cfgmod.builtin_config(
                    scenario, trials=TRIALS, master_seed=seed)
                continue
            for kind in PROVIDER_KINDS:
                raw = cfgmod.builtin_config(scenario, kind, TRIALS, seed)
                if kind == PARTIAL_CHEAT:
                    raw["provider"]["cheat_rate"] = PARTIAL_CHEAT_RATE
                out[f"{scenario}.{kind}.seed{seed}"] = raw
    return out


def build(cache_root: Path) -> dict:
    """Run every campaign on the empty fixture cache at `cache_root` and
    return the report and cache-file digests, sorted by name."""
    from veriml import cache, runner
    from veriml import config as cfgmod
    previous = os.environ.get("VERIML_CACHE_DIR")
    os.environ["VERIML_CACHE_DIR"] = str(cache_root)
    cache._shared_models.clear()  # as in a fresh process: every load hits disk
    try:
        reports = {}
        for name, raw in _campaigns().items():
            report = runner.run_scenario(cfgmod.validate_config(raw))
            report.pop("wall_time_s")
            body = runner.report_to_json(report).encode()
            reports[name] = hashlib.sha256(body).hexdigest()
    finally:
        if previous is None:
            os.environ.pop("VERIML_CACHE_DIR", None)
        else:
            os.environ["VERIML_CACHE_DIR"] = previous
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(cache_root.iterdir())}
    return {"reports": dict(sorted(reports.items())), "cache_files": files}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="veriml-golden-") as tmp:
        manifest = {"fingerprint": fingerprint(), **build(Path(tmp))}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {MANIFEST}: {len(manifest['reports'])} reports, "
          f"{len(manifest['cache_files'])} cache files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
