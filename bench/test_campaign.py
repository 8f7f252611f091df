"""Campaign-level timings, kept out of the test suite (pytest collects only
`tests/` by default):

    python -m pytest bench/test_campaign.py -q -p no:cacheprovider --benchmark-only

One `runner.run_scenario` of the built-in Robustness campaign at 4 trials
and master seed 42 for each provider kind (PartialCheat at rate 0.5), on a
warm fixture cache: the fixtures are trained, or loaded, once before the
timing starts, so every timed build is a cache hit. `BENCH_*.json` files
at the repository root record medians from this harness."""

import pytest

from veriml import config, runner
from veriml.entities import PARTIAL_CHEAT, PROVIDER_KINDS

TRIALS = 4


def _robustness(kind: str) -> config.ScenarioConfig:
    raw = config.builtin_config(config.ROBUSTNESS, provider_kind=kind,
                                trials=TRIALS, master_seed=42)
    if kind == PARTIAL_CHEAT:
        raw["provider"]["cheat_rate"] = 0.5
    return config.validate_config(raw)


@pytest.mark.parametrize("kind", PROVIDER_KINDS)
def test_robustness_campaign(benchmark, kind):
    cfg = _robustness(kind)
    runner.run_scenario(cfg)  # fills the fixture cache
    report = benchmark(runner.run_scenario, cfg)
    assert len(report["trial_results"]) == TRIALS
