"""Fresh-interpreter helper started by run.py; not run by hand.

    child.py setup --workload W --size S --dir D --result R
        import veriml, write the workload's configs and run each config once,
        filling the fixture cache named by VERIML_CACHE_DIR if it is empty.
        R gets the time the imports were done and the pass's time in
        reference seconds.
    child.py round --size S --dir D --seeds-json F --result R [--trace P]
        import veriml, write the six built-in configs, then run one 1-trial
        campaign of each through `cli.main`, each timed between two runs of
        the reference kernel. With --trace, spans go to P and totals into R.

Both exit 0 when every step ran; campaign exit codes are reported in R and
judged by run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def _setup(args) -> None:
    cli, config, runner = common.import_veriml()
    configs = common.campaign_configs(config, args.workload, args.size)
    sweep = common.sweep_config(config, args.workload, args.size)
    common.write_configs(configs, Path(args.dir))
    ready = time.monotonic()
    pass_ref_s = common.warm_pass(config, runner, configs, sweep)
    Path(args.result).write_text(json.dumps({"ready": ready,
                                             "pass_ref_s": pass_ref_s}))


def _round(args) -> None:
    cli, config, runner = common.import_veriml()
    seeds = json.loads(Path(args.seeds_json).read_text())
    directory = Path(args.dir)
    paths = common.write_configs(common.campaign_configs(config, "first-run",
                                                         args.size), directory)
    ready = time.monotonic()
    refs = [common.reference_s()]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    campaigns = []
    try:
        for i, (name, path) in enumerate(paths.items()):
            span = contextlib.nullcontext()
            if tracer is not None:
                tracer.op = i
                span = tracer.span("bench.campaign")
            with span:
                code, seconds, error = common.run_campaign(
                    cli, path, seeds[name], directory / f"{name}.report.json")
            refs.append(common.reference_s())
            campaigns.append({"name": name, "code": code, "error": error,
                              "wall_s": seconds, "ref_s": seconds * common.reference_scale(
                                  refs[-2], refs[-1])})
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"ready": ready, "campaigns": campaigns}
    if tracer is not None:
        tracer.save(args.trace)
        result["totals"] = tracer.totals()
    Path(args.result).write_text(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--size", default="full", choices=sorted(common.SIZES))
    p.add_argument("--dir", required=True)
    p.add_argument("--result", required=True)
    p.set_defaults(fn=_setup)
    p = sub.add_parser("round")
    p.add_argument("--size", default="full", choices=sorted(common.SIZES))
    p.add_argument("--dir", required=True)
    p.add_argument("--seeds-json", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(fn=_round)
    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
