"""veriml benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload campaign-warm --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; veriml is imported from its `src/`.
Workloads (perfbench/README.md says why each exists and what each metric
means on it):

  campaign-warm  back-to-back warm `veriml run` campaigns in one process
  first-run      fresh-interpreter rounds: cold cache, then restart
  attack-sweep   Robustness campaigns plus a 9-value cheat-rate sweep

The last stdout line is one JSON object {correct, attempted, failed,
metrics}: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. The line before it carries the details: every timing under the
workload's own name with its sample count, in reference and in wall seconds,
outputs_sha256 and the platform fingerprint. Scratch files live under
.perfbench/ at the checkout root; a traced run leaves its spans there as
trace-<workload>-seed<N>*.npz.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import SetupError  # noqa: E402
from tracer import Tracer, layer_metrics, merge_totals  # noqa: E402

WORKLOADS = ("campaign-warm", "first-run", "attack-sweep")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "slow_op_s": "s",
    "work_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

SETUP_REPEATS = {"full": 5, "tiny": 1}
# campaign-warm needs >= 100 campaigns for its p90: 5 cycles of 21
MIN_CYCLES = {"full": {"campaign-warm": 5, "attack-sweep": 3},
              "tiny": {"campaign-warm": 1, "attack-sweep": 1}}
MIN_PAIRS = {"full": 3, "tiny": 1}
TAIL = 0.9
CHILD_TIMEOUT_S = 60
CHILD = Path(__file__).resolve().parent / "child.py"


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _median_of(ops: list[dict]) -> dict:
    return {"value": statistics.median(o["ref_s"] for o in ops), "unit": "s",
            "wall": statistics.median(o["wall_s"] for o in ops), "n": len(ops)}


def _rate(work: float, ops: list[dict]) -> dict:
    return {"value": work / sum(o["ref_s"] for o in ops), "unit": "1/s",
            "wall": work / sum(o["wall_s"] for o in ops), "n": len(ops)}


class Run:
    """State of one benchmark run: arguments, scratch directory, counts of
    attempted and failed operations, and the bytes that get hashed."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.size = "tiny" if args.smoke else "full"
        self.dir = common.WORK / f"run-{self.workload}-{self.seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashed: list[bytes] = []
        self.refs: list[float] = []
        self.bounds = common.verdict_bounds()
        self.flags: dict[tuple[str, str], list[int]] = {}

    def ref(self) -> float:
        """Time the reference kernel; called between operations."""
        self.refs.append(common.reference_s())
        return self.refs[-1]

    def judge(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def tally(self, scenario: str, kind: str, report: dict) -> tuple | None:
        """A checked campaign's (scenario, kind, flags, trials), or None when
        its verdicts have no acceptance bound."""
        if scenario not in self.bounds or kind not in common.JUDGED_KINDS:
            return None
        return scenario, kind, common.flagged(report), len(report["trial_results"])

    def count(self, tallies) -> None:
        """Add timed campaigns' flag counts to their configs' totals."""
        for scenario, kind, flags, trials in filter(None, tallies):
            counts = self.flags.setdefault((scenario, kind), [0, 0])
            counts[0] += flags
            counts[1] += trials

    def judge_verdicts(self) -> None:
        """One check per verdict config over the whole run; a failing one
        counts as one failed operation."""
        for (scenario, kind), (flags, trials) in sorted(self.flags.items()):
            self.judge(common.check_verdicts(scenario, kind, flags, trials,
                                             self.bounds))

    def child(self, argv: list[str], cache: Path, log: Path) -> dict:
        """Run child.py in a fresh interpreter, bracketed by reference
        measurements. Returns its exit code (None on timeout), its spawn
        time on the monotonic clock, and its time to exit in wall and in
        reference seconds."""
        env = dict(os.environ, VERIML_CACHE_DIR=str(cache))
        before = self.ref()
        spawned = time.monotonic()
        with open(log, "wb") as err:
            try:
                code = subprocess.run(
                    [sys.executable, str(CHILD)] + argv, env=env, cwd=common.ROOT,
                    stdout=subprocess.DEVNULL, stderr=err,
                    timeout=CHILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = None
        wall = time.monotonic() - spawned
        return {"code": code, "spawned": spawned, "wall_s": wall,
                "ref_s": wall * common.reference_scale(before, self.ref())}

    def trace_path(self, suffix: str = "") -> Path:
        return common.WORK / f"trace-{self.workload}-seed{self.seed}{suffix}.npz"


# -- campaign-warm and attack-sweep: one long-lived process --------------------


def _setup_samples(run: Run) -> tuple[list[dict], Path]:
    """One fresh interpreter fills an empty fixture cache (untimed: first-run
    times cold fills); then SETUP_REPEATS fresh interpreters each set up on
    that cache, as the main process does next. A sample runs from spawn to
    the end of the pass over the configs: spawn to imports done is scaled by
    reference processes around the child, as first-run's set-ups are, and
    the pass per config inside it."""
    cache = run.dir / "cache"
    samples = []
    for i in range(1 + SETUP_REPEATS[run.size]):
        log = run.dir / f"setup-{i}.log"
        result = run.dir / f"setup-{i}.json"
        proc_before = common.reference_process_s() if i > 0 else 0.0
        res = run.child(["setup", "--workload", run.workload, "--size", run.size,
                         "--dir", str(run.dir / f"setup-{i}"),
                         "--result", str(result)], cache, log)
        if res["code"] != 0:
            raise RuntimeError(f"set-up child exited {res['code']}: "
                               + log.read_text(errors="replace")[-2000:])
        if i > 0:
            timing = json.loads(result.read_text())
            ready = timing["ready"] - res["spawned"]
            scale = common.reference_scale(proc_before, common.reference_process_s(),
                                           common.REFERENCE_PROCESS_NOMINAL_S)
            samples.append({"wall_s": res["wall_s"],
                            "ref_s": ready * scale + timing["pass_ref_s"]})
    return samples, cache


def _in_process(run: Run) -> dict:
    setups, cache = _setup_samples(run)
    os.environ["VERIML_CACHE_DIR"] = str(cache)
    cli, config, runner = common.import_veriml()
    configs = common.campaign_configs(config, run.workload, run.size)
    sweep = common.sweep_config(config, run.workload, run.size)
    paths = common.write_configs(configs, run.dir / "configs")
    reports = run.dir / "reports"
    reports.mkdir()
    common.warm_pass(config, runner, configs, sweep)
    names = list(configs) + (["sweep"] if sweep else [])

    def sweep_op(seed: int) -> dict:
        result, seconds, error = common.run_sweep(config, runner, sweep, seed)
        problems = [f"sweep: {error}"] if error else []
        if result is not None:
            if [r["config"]["provider"]["cheat_rate"] for r in result] \
                    != common.SWEEP_VALUES:
                problems.append("sweep: reports do not follow the values")
            for r in result:
                problems += common.check_report(r, "StegProbe", "PartialCheat",
                                                seed, sweep["trials"])
        return {"wall_s": seconds, "problems": problems, "tally": None,
                "body": b"".join(common.report_body(runner, r) for r in result or [])}

    def campaign_op(name: str, seed: int) -> dict:
        out = reports / f"{name}.json"
        out.unlink(missing_ok=True)
        code, seconds, error = common.run_campaign(cli, paths[name], seed, out)
        result = {"wall_s": seconds, "body": b"", "queries": 0, "tally": None,
                  "trials": configs[name]["trials"]}
        if error or code != 0 or not out.is_file():
            result["problems"] = [f"{name}: exit {code} {error}".strip()]
            return result
        data = out.read_bytes()
        report = json.loads(data)
        scenario, _, kind = name.partition(".")
        result["problems"] = common.check_report(
            report, scenario, kind or None, seed, configs[name]["trials"])
        result["body"] = common.strip_wall_time(data)
        if not result["problems"]:
            result["tally"] = run.tally(scenario, kind, report)
        if scenario == "Robustness":
            result["queries"] = common.attack_queries(report)
        return result

    def cycle(k: int, tracer: Tracer | None = None) -> list[dict]:
        results = []
        before = run.ref()
        for i, name in enumerate(names):
            seed = common.master_seed(run.seed, run.workload, k, name)
            span = contextlib.nullcontext()
            if tracer is not None:
                tracer.op = k * len(names) + i
                span = tracer.span("bench.sweep" if name == "sweep" else "bench.campaign")
            with span:
                res = sweep_op(seed) if name == "sweep" else campaign_op(name, seed)
            after = run.ref()
            res.update(name=name, ref_s=res["wall_s"] * common.reference_scale(before, after))
            before = after
            run.judge(res["problems"])
            results.append(res)
        return results

    cycles = []
    start = time.perf_counter()
    while (len(cycles) < MIN_CYCLES[run.size][run.workload]
           or time.perf_counter() - start < run.seconds):
        cycles.append(cycle(len(cycles)))
    run.hashed = [r["body"] for r in cycles[0]]
    run.count(r["tally"] for c in cycles for r in c)
    run.judge_verdicts()

    # cycle 0 again: the reproducibility check, and in a traced run the
    # traced pass, compared against the untraced medians of the same ops
    tracer = Tracer() if run.trace else None
    if tracer is not None:
        tracer.install()
    try:
        repeat = cycle(0, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for first, again in zip(cycles[0], repeat):
        if first["body"] != again["body"]:
            run.judge([f"{first['name']}: repeat with the same seed changed the report"])

    done = [r for c in cycles for r in c]
    campaigns = [r for r in done if r["name"] != "sweep"]
    out = {"setup_s": _median_of(setups)}
    if run.workload == "campaign-warm":
        out["campaign_s_p50"] = _median_of(campaigns)
        out["campaign_s_p90"] = {
            "value": _percentile([r["ref_s"] for r in campaigns], TAIL), "unit": "s",
            "wall": _percentile([r["wall_s"] for r in campaigns], TAIL),
            "n": len(campaigns)}
        out["trials_per_s"] = _rate(sum(r["trials"] for r in campaigns), campaigns)
        generic = {"op_s_p50": "campaign_s_p50", "slow_op_s": "campaign_s_p90",
                   "work_per_s": "trials_per_s"}
    else:
        out["robustness_campaign_s_p50"] = _median_of(campaigns)
        out["sweep_s_p50"] = _median_of([r for r in done if r["name"] == "sweep"])
        out["attack_queries_per_s"] = _rate(sum(r["queries"] for r in campaigns),
                                            campaigns)
        generic = {"op_s_p50": "robustness_campaign_s_p50",
                   "slow_op_s": "sweep_s_p50", "work_per_s": "attack_queries_per_s"}
    if tracer is not None:
        baseline = sum(statistics.median(c[i]["ref_s"] for c in cycles)
                       for i in range(len(names)))
        traced = sum(r["ref_s"] for r in repeat)
        tracer.save(run.trace_path())
        out["layers"] = layer_metrics(tracer.totals(), traced / baseline - 1.0)
    return {"named": out, "generic": generic}


# -- first-run: rounds in fresh interpreters -------------------------------------


def _first_run(run: Run) -> dict:
    _, config, _ = common.import_veriml()
    configs = common.campaign_configs(config, "first-run", run.size)
    names = list(configs)
    kinds = {n: (raw["provider"] or {}).get("kind") for n, raw in configs.items()}

    def round_child(k: int, label: str, cache: Path, trace: bool):
        """One round in a fresh interpreter; returns (timings or None,
        report bytes by config name, verdict tallies, problems)."""
        directory = run.dir / f"pair-{k}-{label}{'-traced' if trace else ''}"
        directory.mkdir(parents=True)
        seeds = {n: common.master_seed(run.seed, run.workload, k, n) for n in names}
        seeds_file = directory / "seeds.json"
        seeds_file.write_text(json.dumps(seeds))
        result_file = directory / "result.json"
        argv = ["round", "--size", run.size, "--dir", str(directory),
                "--seeds-json", str(seeds_file), "--result", str(result_file)]
        if trace:
            argv += ["--trace", str(run.trace_path(f"-{label}"))]
        log = directory / "child.log"
        proc_before = common.reference_process_s()
        res = run.child(argv, cache, log)
        proc_after = common.reference_process_s()
        if res["code"] != 0 or not result_file.is_file():
            tail = log.read_text(errors="replace")[-500:]
            return None, {}, [], [f"{label} round: child exited {res['code']}: {tail}"]
        result = json.loads(result_file.read_text())
        problems, bodies, tallies = [], {}, []
        for c in result["campaigns"]:
            report = directory / f"{c['name']}.report.json"
            if c["code"] != 0 or c["error"] or not report.is_file():
                problems.append(f"{label} {c['name']}: exit {c['code']} {c['error']}")
                continue
            data = report.read_bytes()
            parsed = json.loads(data)
            found = common.check_report(parsed, c["name"], kinds[c["name"]],
                                        seeds[c["name"]], 1)
            if not found:
                tallies.append(run.tally(c["name"], kinds[c["name"]], parsed))
            problems += found
            bodies[c["name"]] = common.strip_wall_time(data)
        if bodies.keys() != set(names):
            problems.append(f"{label} round: reports missing")
        setup = result["ready"] - res["spawned"]
        campaigns = result["campaigns"]
        timings = {
            "round": {"wall_s": sum(c["wall_s"] for c in campaigns),
                      "ref_s": sum(c["ref_s"] for c in campaigns)},
            "setup": {"wall_s": setup, "ref_s": setup * common.reference_scale(
                proc_before, proc_after, common.REFERENCE_PROCESS_NOMINAL_S)},
            "totals": result.get("totals")}
        return timings, bodies, tallies, problems

    def pair(k: int, trace: bool = False):
        """A cold round into an empty cache, then a restart round on it.
        Verdicts count once per pair, from the cold round of an untraced
        pair: the restart must repeat its reports byte for byte."""
        cache = run.dir / f"cache-{k}{'-traced' if trace else ''}"
        out, bodies = [], []
        for label in ("cold", "restart"):
            timings, body, tallies, problems = round_child(k, label, cache, trace)
            if label == "cold" and not trace:
                run.count(tallies)
            if bodies and body != bodies[0]:
                problems.append(f"pair {k}: restart reports differ from cold ones")
            bodies.append(body)
            run.judge(problems)
            out.append(timings)
        return out, bodies

    setups, cold, restart = [], [], []
    start = time.perf_counter()
    k = 0
    while k < MIN_PAIRS[run.size] or time.perf_counter() - start < run.seconds:
        (c, r), bodies = pair(k)
        if k == 0:
            run.hashed = [bodies[0].get(n, b"") for n in names]
            first_bodies = bodies[0]
        for timings, into in ((c, cold), (r, restart)):
            if timings is not None:
                setups.append(timings["setup"])
                into.append(timings["round"])
        k += 1
    if not cold or not restart:
        raise RuntimeError("no first-run round ran to the end: "
                           + "; ".join(run.problems[:3]))
    run.judge_verdicts()

    rounds = cold + restart
    out = {"setup_s": _median_of(setups),
           "cold_round_s_p50": _median_of(cold),
           "restart_round_s_p50": _median_of(restart),
           "trials_per_s": _rate(len(names) * len(rounds), rounds)}
    generic = {"op_s_p50": "restart_round_s_p50", "slow_op_s": "cold_round_s_p50",
               "work_per_s": "trials_per_s"}
    if run.trace:
        (c, r), bodies = pair(0, trace=True)
        if bodies[0] != first_bodies:
            run.judge(["traced pair: reports differ from the untraced ones"])
        if c is not None and r is not None:
            baseline = (statistics.median(o["ref_s"] for o in cold)
                        + statistics.median(o["ref_s"] for o in restart))
            overhead = (c["round"]["ref_s"] + r["round"]["ref_s"]) / baseline - 1.0
            out["layers"] = layer_metrics(merge_totals([c["totals"], r["totals"]]),
                                          overhead)
    return {"named": out, "generic": generic}


# -- output ------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, asked through ctypes; None if unknown."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def platform_fingerprint() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0))}


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny campaigns and one repetition of everything")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        common.import_veriml()
        run = Run(args)
    except (SetupError, OSError) as exc:
        print(f"perfbench: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2

    run.dir.mkdir(parents=True)
    try:
        result = _first_run(run) if run.workload == "first-run" else _in_process(run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    named = result["named"]
    layers = named.pop("layers", None)
    named["peak_rss_mb"] = {"value": _peak_rss_mb(), "unit": "MB", "n": 1}
    named["failed_frac"] = {"value": run.failed / run.attempted, "unit": "ratio",
                            "n": run.attempted}
    if run.trace:
        if layers is None:
            raise RuntimeError("traced pass did not complete: "
                               + "; ".join(run.problems[:3]))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        values = {"setup_s": named["setup_s"]["value"],
                  "ok_frac": 1.0 - named["failed_frac"]["value"],
                  "peak_rss_mb": named["peak_rss_mb"]["value"]}
        values.update({g: named[n]["value"] for g, n in result["generic"].items()})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    digest = hashlib.sha256()
    for body in run.hashed:
        digest.update(hashlib.sha256(body).digest())
    details = {"workload": run.workload, "seed": run.seed, "trace": int(run.trace),
               "size": run.size, "outputs_sha256": digest.hexdigest(),
               "named": named, "generic": result["generic"],
               "reference_s_p50": statistics.median(run.refs),
               "reference_n": len(run.refs),
               "flagged": {f"{sc}.{kind}": f"{f}/{n}"
                           for (sc, kind), (f, n) in sorted(run.flags.items())},
               "problems": run.problems[:20], "platform": platform_fingerprint()}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
