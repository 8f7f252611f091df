"""Pieces shared by the benchmark's main script (`run.py`) and the fresh-interpreter
helper (`child.py`): locating and importing veriml from the checkout, the
workload configs, campaign calls through the public API, and the output
checks."""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

KINDS = ("HonestPassthrough", "SubstituteModel", "PartialCheat", "CachedReplay",
         "NoisyPassthrough")
PARTIAL_CHEAT_RATE = 0.5
WARM_SCENARIOS = ("StegProbe", "DeterministicBench", "ProbabilisticBench",
                  "Metaresult")
SWEEP_PARAM = "provider.cheat_rate"
SWEEP_VALUES = [round(0.1 * i, 1) for i in range(1, 10)]

# trials per campaign; the smoke check shrinks them
SIZES = {
    "full": {"warm": 10, "robustness": 4, "sweep": 4},
    "tiny": {"warm": 2, "robustness": 1, "sweep": 1},
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no veriml sources, bad arguments)."""


# -- reference speed --------------------------------------------------------------
# A shared host can change speed by up to 2x over seconds to minutes (seen
# on a 2-vCPU Xeon VM; CPU time swings with wall time, so it is not
# scheduling). Every timed operation is therefore bracketed by a fixed
# reference kernel owned by the benchmark (never veriml code: a faster veriml
# must not speed it up), and timings are reported in reference seconds: wall
# seconds scaled by the kernel's nominal time over its mean time just before
# and just after.

REFERENCE_NOMINAL_S = 0.0015
_MASK64 = (1 << 64) - 1


def _reference_kernel(np) -> int:
    """Pure-Python 64-bit integer mixing plus tiny numpy layer evaluations:
    the same kind of work as veriml's per-query path and its rng."""
    state = acc = 0
    for _ in range(2000):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc ^= z ^ (z >> 31)
    w = np.linspace(-0.5, 0.5, 256).reshape(16, 16)
    b = np.linspace(-0.1, 0.1, 16)
    x = np.full(16, 0.5)
    for _ in range(200):
        x = np.tanh(w @ x + b)
    return acc


def reference_s() -> float:
    """Best of three timings of the reference kernel."""
    import numpy as np
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_kernel(np)
        best = min(best, time.perf_counter() - t0)
    return best


def reference_process_s() -> float:
    """Wall time of a fresh interpreter that imports numpy. Starting an
    interpreter is cold-cache work whose speed the kernel above does not
    follow, so first-run set-ups are scaled by this instead."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    return time.monotonic() - t0


REFERENCE_PROCESS_NOMINAL_S = 0.2


def reference_scale(ref_before: float, ref_after: float,
                    nominal: float = REFERENCE_NOMINAL_S) -> float:
    """Factor from wall seconds to reference seconds for an operation timed
    between two reference measurements."""
    return nominal / ((ref_before + ref_after) / 2)


def import_veriml():
    """Import veriml from this checkout's `src/`, never from elsewhere."""
    init = SRC / "veriml" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no veriml sources at {init.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import veriml
    from veriml import cli, config, runner
    if Path(veriml.__file__).resolve() != init.resolve():
        raise SetupError(f"imported veriml from {veriml.__file__}, not {init}")
    return cli, config, runner


def master_seed(seed: int, *parts) -> int:
    """A campaign's master seed, derived from the workload seed only."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


# -- workload configs ---------------------------------------------------------


def _with_kind(config, scenario: str, kind: str, trials: int) -> dict:
    raw = config.builtin_config(scenario, provider_kind=kind, trials=trials)
    if kind == "PartialCheat":
        raw["provider"]["cheat_rate"] = PARTIAL_CHEAT_RATE
    return raw


def campaign_configs(config, workload: str, size: str) -> dict[str, dict]:
    """name -> raw config for every `veriml run` campaign of a workload."""
    trials = SIZES[size]
    out = {}
    if workload == "campaign-warm":
        for scenario in WARM_SCENARIOS:
            for kind in KINDS:
                out[f"{scenario}.{kind}"] = _with_kind(config, scenario, kind,
                                                       trials["warm"])
        out["Auditor"] = config.builtin_config("Auditor", trials=trials["warm"])
    elif workload == "attack-sweep":
        for kind in KINDS:
            out[f"Robustness.{kind}"] = _with_kind(config, "Robustness", kind,
                                                   trials["robustness"])
    elif workload == "first-run":
        for scenario in config.SCENARIOS:
            out[scenario] = config.builtin_config(scenario, trials=1)
    else:
        raise SetupError(f"unknown workload {workload!r}")
    return out


def sweep_config(config, workload: str, size: str) -> dict | None:
    if workload != "attack-sweep":
        return None
    return _with_kind(config, "StegProbe", "PartialCheat", SIZES[size]["sweep"])


def write_configs(configs: dict[str, dict], directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, raw in configs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(raw, sort_keys=True, indent=2) + "\n")
        paths[name] = path
    return paths


def warm_pass(config, runner, configs: dict[str, dict], sweep: dict | None) -> float:
    """Run every config once with one trial: fills the disk fixture cache and
    the process-local retrain memos, so later campaigns only load. Returns
    the pass's time in reference seconds, each config bracketed by the
    reference kernel."""
    total = 0.0
    before = reference_s()
    for raw in list(configs.values()) + ([sweep] if sweep else []):
        t0 = time.perf_counter()
        runner.run_scenario(config.validate_config(dict(raw, trials=1)))
        t1 = time.perf_counter()
        after = reference_s()
        total += (t1 - t0) * reference_scale(before, after)
        before = after
    return total


# -- calls into veriml ---------------------------------------------------------


@contextlib.contextmanager
def _quiet():
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield


def run_campaign(cli, config_path: Path, seed: int, out_path: Path):
    """`veriml run` through `cli.main`; returns (exit code or None, seconds,
    error text). The time spans config file to report written."""
    error = ""
    code = None
    with _quiet():
        t0 = time.perf_counter()
        try:
            code = cli.main(["run", "--config", str(config_path), "--seed",
                             str(seed), "--out", str(out_path)])
        except Exception as exc:  # a crash is a failed operation, not a stop
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    return code, t1 - t0, error


def run_sweep(config, runner, raw: dict, seed: int):
    """One `runner.sweep` over SWEEP_VALUES; returns (reports or None,
    seconds, error text)."""
    error = ""
    reports = None
    with _quiet():
        t0 = time.perf_counter()
        try:
            cfg = config.validate_config(dict(raw, master_seed=seed))
            reports = runner.sweep(cfg, SWEEP_PARAM, SWEEP_VALUES)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    return reports, t1 - t0, error


_WALL = re.compile(rb'\n *"wall_time_s": [^\n]*')


def strip_wall_time(report_bytes: bytes) -> bytes:
    """Report bytes with the one timing field removed."""
    return _WALL.sub(b"", report_bytes)


def report_body(runner, report: dict) -> bytes:
    """A sweep report as `veriml run` would write it, without `wall_time_s`."""
    return strip_wall_time(runner.report_to_json(report).encode())


# -- output checks --------------------------------------------------------------

# a config's flag count, summed over a run, counts as wrong only when the
# acceptance rate makes it rarer than this (one-sided binomial tail); rates of
# exactly 0 or 1 stay exact
IMPLAUSIBLE = 1e-6
# provider kinds the acceptance criteria give a flag rate: honest ones at
# most the false-positive rate, SubstituteModel at least the power
JUDGED_KINDS = ("HonestPassthrough", "CachedReplay", "SubstituteModel")


def acceptance_constants() -> dict[str, float]:
    """Module-level numeric constants of tests/test_acceptance.py."""
    path = ROOT / "tests" / "test_acceptance.py"
    tree = ast.parse(path.read_text())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                continue
            for target in node.targets:
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                for name in names:
                    if isinstance(name, ast.Name) and isinstance(value, (int, float)):
                        out[name.id] = value
    return out


def verdict_bounds() -> dict[str, tuple[float, float]]:
    """scenario -> (highest honest flag rate, lowest substitute flag rate)
    that the acceptance criteria allow."""
    k = acceptance_constants()
    try:
        return {
            # c4: power and size of the steg probe
            "StegProbe": (k["STEG_MAX_FALSE_FLAGS"] / k["STEG_TRIALS"],
                          k["STEG_MIN_DETECTIONS"] / k["STEG_TRIALS"]),
            # c1: honest never flagged, substitute always flagged
            "DeterministicBench": (0.0, k["DET_TRIALS"] / k["DET_TRIALS"]),
            # c5: power, and false-positive rate alpha plus slack
            "ProbabilisticBench": (k["PROB_ALPHA"] + k["PROB_FPR_SLACK"],
                                   k["PROB_MIN_DETECTIONS"] / k["PROB_POWER_TRIALS"]),
            # c6: valid certificates verify, every substitution is caught
            "Metaresult": (0.0, k["META_TRIALS"] / k["META_TRIALS"]),
        }
    except KeyError as exc:
        raise SetupError(f"tests/test_acceptance.py lacks constant {exc}") from exc


def _tail_geq(k: int, n: int, p: float) -> float:
    return sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(k, n + 1))


def _tail_leq(k: int, n: int, p: float) -> float:
    return sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(0, k + 1))


def check_report(report: dict, scenario: str, kind: str | None, seed: int,
                 trials: int) -> list[str]:
    """Problems with one campaign report; empty when it is correct. Verdict
    flag counts are judged per config over a whole run, by check_verdicts."""
    problems = []
    results = report.get("trial_results")
    if (report.get("scenario") != scenario or report.get("master_seed") != seed
            or not isinstance(results, list) or len(results) != trials):
        return [f"{scenario}: report does not match its config"]
    if scenario == "Auditor":
        for i, t in enumerate(results):
            if not (t["consensus"] and t["value_matches_truth"] and t["chain_ok"]
                    and t["conservation"]):
                problems.append(f"Auditor trial {i}: audit did not settle cleanly")
    elif scenario == "Robustness" and kind in ("HonestPassthrough", "CachedReplay"):
        for i, t in enumerate(results):
            if t["measured_scores"] != t["claimed_scores"]:
                problems.append(f"Robustness.{kind} trial {i}: pass-through "
                                "scores differ from the supplier's claim")
    return problems


def flagged(report: dict) -> int:
    """Trials of a verdict report that the verifier flagged."""
    return sum(t["verdict"]["decision"] == "LikelyFraudulent"
               for t in report["trial_results"])


def check_verdicts(scenario: str, kind: str, flags: int, trials: int,
                   bounds) -> list[str]:
    """Problems with one config's flag count summed over a run: honest kinds
    flagged more, or SubstituteModel less, than the acceptance rates allow."""
    max_false, min_power = bounds[scenario]
    if kind == "SubstituteModel":
        if _tail_leq(flags, trials, min_power) < IMPLAUSIBLE:
            return [f"{scenario}.{kind}: {flags}/{trials} substitute trials "
                    f"flagged (acceptance power >= {min_power:.3f})"]
    elif _tail_geq(flags, trials, max_false) < IMPLAUSIBLE:
        return [f"{scenario}.{kind}: {flags}/{trials} honest trials flagged "
                f"(acceptance rate <= {max_false:.3f})"]
    return []


def attack_queries(report: dict) -> int:
    """Exact black-box provider queries of a Robustness report, read from its
    measured scores: a failed attack is charged the full budget in the
    score but stopped at the last whole step that fit."""
    ver = report["config"]["verifier"]
    budget = ver["max_queries"]
    step = 2 * report["config"]["supplier"]["data"]["dim"] + 1
    used_on_failure = 1 + ((budget - 1) // step) * step
    total = 0
    for trial in report["trial_results"]:
        for score in trial["measured_scores"]:
            charged = round(score["mean_queries"] * score["n_trials"])
            total += charged - score["n_failures"] * (budget - used_on_failure)
    return total
