"""Command-line front end: run scenario campaigns, sweep a parameter,
explain one trial's evidence, demo the auditor ledger, or self-test the
statistical kernels, rng streams and forward kernel against brute-force
oracles.

Exit codes: 0 success, 2 config problem, 3 fixture training failure,
4 any other veriml error (a failed selftest, a ledger FundingError).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import config as cfgmod
from . import runner
from ._version import __version__
from .errors import (ConfigValidationError, FixtureError, ParameterError,
                     TrainingFailureError, VerimlError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIXTURE = 3
EXIT_INTERNAL = 4


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigValidationError([f"out: cannot write {out_path} ({exc})"])
        print(f"wrote {out_path}")
    else:
        sys.stdout.write(text)


def _load_config(path: str, seed_override: int | None) -> cfgmod.ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigValidationError([f"config: cannot read {path} ({exc})"])
    cfg = cfgmod.parse_config(text)
    if seed_override is not None:
        raw = cfgmod.set_config_value(cfg.raw, "master_seed", seed_override)
        cfg = cfgmod.validate_config(raw)
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args.seed)
    report = runner.run_scenario(cfg)
    _write_output(runner.report_to_json(report), args.out)
    agg = report["aggregates"]
    print(f"{cfg.scenario}: {cfg.trials} trials, "
          f"detection rate {agg['detection_rate']:.3f}, "
          f"mean latency {agg['mean_latency_ms']:.2f} ms", file=sys.stderr)
    return EXIT_OK


def _parse_values(text: str) -> list:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(json.loads(token))
        except json.JSONDecodeError:
            raise ConfigValidationError(
                [f"values: {token!r} is not a number"])
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigValidationError([f"values: {v!r} is not a number"])
    if not values:
        raise ConfigValidationError([f"values: {text!r} holds no number"])
    return values


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.seed)
    values = _parse_values(args.values)
    reports = runner.sweep(cfg, args.param, values)
    bundle = {"schema_version": cfgmod.SCHEMA_VERSION, "version": __version__,
              "sweep_param": args.param, "values": values, "reports": reports}
    _write_output(runner.report_to_json(bundle), args.out)
    for value, rep in zip(values, reports):
        print(f"{args.param}={value}: detection rate "
              f"{rep['aggregates']['detection_rate']:.3f}", file=sys.stderr)
    return EXIT_OK


def _cmd_explain(args) -> int:
    try:
        report = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigValidationError([f"report: cannot read {args.report} ({exc})"])
    except json.JSONDecodeError as exc:
        raise ConfigValidationError([f"report: not valid JSON ({exc})"])
    print(runner.explain_verdict(report, args.trial))
    return EXIT_OK


def _cmd_auditor_demo(args) -> int:
    demo = runner.auditor_demo(master_seed=args.seed, rounds=args.rounds)
    _write_output(runner.report_to_json(demo), args.out)
    print(f"auditor demo: {len(demo['rounds'])} rounds, chain_ok="
          f"{demo['chain_ok']}, conservation={demo['conservation']}",
          file=sys.stderr)
    return EXIT_OK


# -- selftest: brute-force oracles for the statistical kernels -------------------


def _brute_binomial_leq(k: int, n: int, p: float) -> float:
    pf = Fraction(p)
    total = Fraction(0)
    for i in range(0, k + 1):
        total += math.comb(n, i) * pf ** i * (1 - pf) ** (n - i)
    return float(total)


def _selftest_checks():
    from . import rng, stats
    from .entities import hmac_sha256
    from .mlp import forward, init_mlp

    v, _ = rng.rng_next(0)
    yield "splitmix64 reference value", v == 0xE220A8397B1DCDAF

    worst = 0.0
    for n in (1, 5, 12):
        for p in (0.3, 0.5, 0.77):
            for k in range(n + 1):
                got = stats.binomial_tail_leq(k, n, p)
                want = _brute_binomial_leq(k, n, p)
                if want > 0:
                    worst = max(worst, abs(got - want) / want)
    yield f"binomial tail vs enumeration (worst rel err {worst:.2e})", worst <= 1e-12

    _, p_val = stats.two_proportion_z(90, 100, 70, 100)
    yield f"two-proportion hand case (p={p_val:.6g})", abs(p_val - 2.03e-4) < 1e-5

    tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
    yield "HMAC-SHA-256 reference vector", tag.hex() == (
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")

    model = init_mlp((6, 8, 4), weight_seed=11)
    ok = True
    state = 17
    for _ in range(100):
        x, state = rng.uniform_array(state, 6)
        probs = forward(model, x)
        ok = ok and abs(float(probs.sum()) - 1.0) <= 1e-9
    yield "softmax normalization (100 random inputs)", ok

    from .adversarial import SigmoidParams, robustness_score
    params = SigmoidParams.for_budget(400)
    yield "robustness score midpoint", robustness_score(params.q0, params) == 0.5

    yield "vector splitmix64 streams vs scalar draws", _vector_streams_match()

    yield "batch-invariant forward", _forward_is_batch_invariant()


def _vector_streams_match() -> bool:
    """The numpy streams equal their scalar definitions; they rely on numpy's
    uint64 arithmetic wrapping mod 2**64 on this platform."""
    from . import rng
    from .data import make_blobs

    state = rng.MASK64 - 2  # the walk wraps past 2**64 on its first step
    arr, end = rng.uniform_array(state, 8)
    want = []
    for _ in range(8):
        u, state = rng.rng_uniform(state)
        want.append(u)
    ok = arr.tolist() == want and end == state

    order, end = rng.shuffled_indices(5, 9)
    want, state = list(range(9)), 5
    for i in range(8, 0, -1):
        j, state = rng.rng_below(state, i + 1)
        want[i], want[j] = want[j], want[i]
    ok = ok and order == want and end == state

    data = make_blobs(2, 3, 2, 0.5, seed=7)
    centers, state = [], 7
    for _ in range(4):
        u, state = rng.rng_uniform(state)
        centers.append(0.2 + 0.6 * u)
    want = []
    for c in range(2):
        for _ in range(3):
            for d in range(2):
                g, state = rng.rng_gauss(state)
                want.append(min(1.0, max(0.0, centers[2 * c + d] + 0.5 * g)))
    return ok and data.inputs.ravel().tolist() == want


def _forward_is_batch_invariant() -> bool:
    """forward_batch rows equal one-row forward bytes at batch sizes 1, 7,
    64 and 65 and under re-chunking. This rests on numpy's tanh and exp
    giving the same bits on every vector path it dispatches to on this CPU,
    and on numpy adding a layer's products left to right, which a linear
    layer checks against a Python-float sum (one row and one output too)."""
    import numpy as np

    from . import rng
    from .mlp import (LINEAR, SOFTMAX, MlpModel, forward, forward_batch,
                      init_mlp)

    # one large product, then 32 below half its ulp: left to right they are
    # all lost, while any other order lets some add up first and round up;
    # a row of -0.0 sums to -0.0, and stays -0.0 under the -0.0 bias
    tiny, _ = rng.uniform_array(41, 3 * 32)
    X = np.hstack([1.0 + np.arange(3)[:, None] / 4,
                   (1.0 + tiny.reshape(3, 32)) * 2.0 ** -56])
    X = np.vstack([X, np.full(33, -0.0)])
    W = 1.0 + (np.arange(5)[:, None] + np.arange(33) % 4) / 8
    b = (2 - np.arange(5)) / -8
    ok = True
    for rows, outs in ((4, 5), (1, 5), (1, 1)):
        want = []
        for x in X[:rows].tolist():
            for w, bias in zip(W[:outs].tolist(), b[:outs].tolist()):
                acc = w[0] * x[0]
                for wi, xi in zip(w[1:], x[1:]):
                    acc = acc + wi * xi
                want.append(acc + bias)
        net = MlpModel((33, outs), [W[:outs]], [b[:outs]], LINEAR)
        got = forward_batch(net, X[:rows])
        ok = ok and got.tobytes() == np.array(want).tobytes()

    for dims, kind in (((12, 16, 9), SOFTMAX), ((9, 20, 3), LINEAR)):
        model = init_mlp(dims, weight_seed=5, output_kind=kind)
        state = 29
        for i, b in enumerate(model.biases):
            u, state = rng.uniform_array(state, len(b))
            model.biases[i] = u - 0.5
        flat, _ = rng.uniform_array(state, 65 * dims[0])
        X = flat.reshape(65, dims[0]) * 6.0 - 3.0
        for n in (1, 7, 64, 65):
            rows = X[:n]
            batched = forward_batch(model, rows).tobytes()
            single = b"".join(forward(model, x).tobytes() for x in rows)
            chunked = b"".join(forward_batch(model, rows[i:i + 3]).tobytes()
                               for i in range(0, n, 3))
            ok = ok and batched == single == chunked
    return ok


def _cmd_selftest(_args) -> int:
    failures = 0
    for label, ok in _selftest_checks():
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        failures += not ok
    if failures:
        print(f"{failures} selftest check(s) failed", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every `main` call can share it."""
    parser = argparse.ArgumentParser(
        prog="veriml",
        description="Seeded verification campaigns for outsourced classifiers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario campaign from a JSON config")
    p.add_argument("--config", required=True, help="path to a scenario JSON file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's master_seed")
    p.add_argument("--out", default=None, help="write the report here "
                   "(default: stdout)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="run a campaign per value of one "
                       "numeric config field")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True,
                   help='dotted config path, e.g. "provider.cheat_rate"')
    p.add_argument("--values", required=True, help="comma-separated numbers")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("explain", help="render one trial's evidence chain")
    p.add_argument("--report", required=True, help="path to a report JSON file")
    p.add_argument("--trial", type=int, default=0, help="trial index")
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser("auditor-demo", help="run a deterministic multi-round "
                       "audit and dump the ledger")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_auditor_demo)

    p = sub.add_parser("selftest", help="check the statistical kernels, the "
                       "vector rng streams and the batch-invariant forward "
                       "kernel against brute-force oracles")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigValidationError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingFailureError as exc:
        print(f"fixture training failed: {exc}", file=sys.stderr)
        if exc.metrics:
            print(f"  metrics: {exc.metrics}", file=sys.stderr)
        return EXIT_FIXTURE
    except FixtureError as exc:
        print(f"fixture error: {exc}", file=sys.stderr)
        return EXIT_FIXTURE
    except VerimlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
