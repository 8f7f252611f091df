"""Span tracing of veriml from outside the package.

`Tracer.install()` replaces each traced public function with a recording
wrapper in every `veriml` module namespace that holds it (the defining module
and every `from .x import y` binding), and the traced `Ledger` methods on the
class itself. `uninstall()` puts the originals back. Nothing inside `src/` is
edited.

Every wrapped call records one span (name, start, end, parent span, operation
id) in flat arrays kept in memory; `save()` writes them out once, at the end of
a run. Self time is a span's duration minus the time covered by its child
spans; busy time counts only the outermost span of a name, so recursion is not
counted twice.

Scalar splitmix64 helpers are wrapped as counters only, and only in the
namespaces that import them, never inside `veriml.rng`: every draw request
that crosses into the rng module is counted once, and the number of
splitmix64 steps it took is read off the state it returns (the state advances
by a fixed odd constant per step, so the step count is exact).
"""

from __future__ import annotations

import contextlib
import importlib
import pkgutil
import time
from array import array
from collections import defaultdict

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_GOLDEN = pow(_GOLDEN, -1, 1 << 64)

# layer module -> public functions that get a span
SPANNED = {
    "runner": ("run_scenario", "sweep", "build_fixtures", "report_to_json"),
    "data": ("make_blobs",),
    "rng": ("uniform_array", "shuffled_indices", "sample_indices"),
    "mlp": ("forward", "forward_batch", "train_sgd", "init_mlp", "load_model"),
    "steg": ("train_steg_joint", "draw_message_instance",
             "generate_message_instance", "load_steg_bundle"),
    "entities": ("provider_classify", "supplier_classify", "issue_certificate",
                 "verify_certificate"),
    "canon": ("sha256", "vec"),
    "verifiers": ("steg_probe", "deterministic_benchmark",
                  "probabilistic_benchmark", "metaresult_verify",
                  "measure_roundtrip"),
    "adversarial": ("blackbox_attack", "claim_check"),
    "stats": ("binomial_tail_leq", "two_proportion_z"),
    "auditor": ("run_audit_round", "compute_metric"),
    "config": ("validate_config",),
    "cli": ("main",),
}
LEDGER_METHODS = ("append_block", "verify_chain")
# counted (splitmix64 steps), no span
RNG_COUNTED = ("rng_next", "rng_uniform", "rng_gauss", "rng_below", "rng_bytes")


def _steps(state_in: int, state_out: int) -> int:
    return ((state_out - state_in) * _INV_GOLDEN) & MASK64


def _veriml_modules():
    import veriml
    return [importlib.import_module(f"veriml.{m.name}")
            for m in pkgutil.iter_modules(veriml.__path__)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # spans, one entry per call
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        # open spans: [index, name id, child time so far, (name, parent) key]
        self._stack: list[list] = []
        # aggregates per name id
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.busy_ns: list[int] = []
        self._depth: list[int] = []
        # (name, direct parent name) -> calls / successful returns
        self.pair_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.pair_ok: dict[tuple[str, str], int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.busy_ns.append(0)
            self._depth.append(0)
        return nid

    # -- recording ------------------------------------------------------------

    def _enter(self, nid: int) -> list[int]:
        stack = self._stack
        parent = stack[-1] if stack else None
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_op.append(self.op)
        self.span_end.append(0)
        self._depth[nid] += 1
        pname = self.names[parent[1]] if parent else ""
        key = (self.names[nid], pname)
        self.pair_calls[key] += 1
        frame = [idx, nid, 0, key]
        stack.append(frame)
        t0 = time.perf_counter_ns()
        self.span_start.append(t0)
        return frame

    def _exit(self, frame, ok: bool) -> None:
        t1 = time.perf_counter_ns()
        idx, nid, child_ns, key = frame
        self._stack.pop()
        self.span_end[idx] = t1
        dur = t1 - self.span_start[idx]
        self.calls[nid] += 1
        self.self_ns[nid] += dur - child_ns
        self._depth[nid] -= 1
        if self._depth[nid] == 0:
            self.busy_ns[nid] += dur
        if ok:
            self.pair_ok[key] += 1
        if self._stack:
            self._stack[-1][2] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around a block of the benchmark's own (a campaign, a
        sweep)."""
        frame = self._enter(self._id(name))
        ok = False
        try:
            yield
            ok = True
        finally:
            self._exit(frame, ok)

    def _wrap(self, name: str, fn, after=None):
        nid = self._id(name)
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, False)
                raise
            leave(frame, True)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_draws(self, fn):
        extra = self.extra

        def counted(state, *args):
            value, out = fn(state, *args)
            extra["rng.draws"] += _steps(state, out)
            return value, out

        counted.__wrapped__ = fn
        return counted

    # -- hooks that read counts off arguments and results ----------------------

    def _after(self, qualname: str):
        extra = self.extra
        if qualname.startswith("rng."):
            def draws(args, result):
                extra["rng.draws"] += _steps(args[0], result[1])
            return draws
        if qualname == "mlp.forward_batch":
            def rows(args, result):
                extra["mlp.forward_batch.rows"] += len(result)
            return rows
        if qualname == "adversarial.blackbox_attack":
            def attack(args, result):
                extra["adversarial.blackbox_attack.queries"] += result.queries_used
                extra["adversarial.blackbox_attack.successes"] += bool(result.success)
            return attack
        return None

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _veriml_modules()
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        for layer, fns in SPANNED.items():
            home = by_name[layer]
            for fn_name in fns:
                original = getattr(home, fn_name)
                qualname = f"{layer}.{fn_name}"
                wrapper = self._wrap(qualname, original, self._after(qualname))
                for mod in modules:
                    if layer == "rng" and mod is home:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        rng = by_name["rng"]
        for fn_name in RNG_COUNTED:
            original = getattr(rng, fn_name)
            wrapper = self._count_draws(original)
            for mod in modules:
                if mod is rng:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        ledger = by_name["auditor"].Ledger
        for meth in LEDGER_METHODS:
            original = vars(ledger)[meth]
            self._patch(ledger, meth,
                        self._wrap(f"auditor.Ledger.{meth}", original))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------------

    def totals(self) -> dict:
        """Aggregates in a JSON-friendly form; `merge_totals` adds several."""
        return {
            "calls": {n: self.calls[i] for i, n in enumerate(self.names)},
            "self_s": {n: self.self_ns[i] / 1e9 for i, n in enumerate(self.names)},
            "busy_s": {n: self.busy_ns[i] / 1e9 for i, n in enumerate(self.names)},
            "pair_calls": {f"{a}<{b}": v for (a, b), v in self.pair_calls.items()},
            "pair_ok": {f"{a}<{b}": v for (a, b), v in self.pair_ok.items()},
            "extra": dict(self.extra),
            "spans": len(self.span_name),
        }

    def save(self, path) -> None:
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 start_ns=np.frombuffer(self.span_start, dtype=np.int64),
                 end_ns=np.frombuffer(self.span_end, dtype=np.int64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32))


def merge_totals(parts: list[dict]) -> dict:
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "busy_s": defaultdict(float), "pair_calls": defaultdict(int),
           "pair_ok": defaultdict(int), "extra": defaultdict(float), "spans": 0}
    for part in parts:
        for key in ("calls", "self_s", "busy_s", "pair_calls", "pair_ok", "extra"):
            for name, value in part[key].items():
                out[key][name] += value
        out["spans"] += part["spans"]
    return out


def _sum_pairs(pairs: dict, child: str, parents=None, exclude=()) -> int:
    total = 0
    for key, value in pairs.items():
        name, parent = key.split("<", 1)
        if name != child or parent in exclude:
            continue
        if parents is None or parent in parents:
            total += value
    return total


def layer_metrics(t: dict, overhead_frac: float) -> dict:
    """The per-layer metrics (name -> (value, unit)) from merged totals."""
    calls, self_s, busy_s = t["calls"], t["self_s"], t["busy_s"]
    pc, pok, extra = t["pair_calls"], t["pair_ok"], t["extra"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    fixture = {"runner.build_fixtures"}
    verdicts = sum(c(n) for n in (
        "verifiers.steg_probe", "verifiers.deterministic_benchmark",
        "verifiers.probabilistic_benchmark", "verifiers.metaresult_verify",
        "adversarial.claim_check"))
    # a client query is any classify call not made by a provider on the
    # client's behalf and not part of fixture calibration
    queries = (_sum_pairs(pc, "entities.provider_classify")
               + _sum_pairs(pc, "entities.supplier_classify",
                            exclude=("entities.provider_classify",
                                     "verifiers.measure_roundtrip")))
    attempts = c("steg.generate_message_instance")
    attacks = c("adversarial.blackbox_attack")
    m = {
        "runner.build_fixtures.calls": (c("runner.build_fixtures"), "count"),
        "runner.build_fixtures.busy_s": (busy_s.get("runner.build_fixtures", 0.0), "s"),
        "runner.fixture_cache.hits": (
            _sum_pairs(pok, "mlp.load_model", fixture)
            + _sum_pairs(pok, "steg.load_steg_bundle", fixture), "count"),
        "runner.fixture_cache.misses": (
            _sum_pairs(pc, "mlp.train_sgd", fixture)
            + _sum_pairs(pc, "steg.train_steg_joint", fixture), "count"),
        "runner.report_to_json.self_s": (s("runner.report_to_json"), "s"),
        "data.make_blobs.calls": (c("data.make_blobs"), "count"),
        "data.make_blobs.self_s": (s("data.make_blobs"), "s"),
        "rng.draws": (int(extra.get("rng.draws", 0)), "count"),
        "rng.uniform_array.self_s": (s("rng.uniform_array"), "s"),
        "rng.shuffled_indices.self_s": (s("rng.shuffled_indices"), "s"),
        "rng.sample_indices.self_s": (s("rng.sample_indices"), "s"),
        "mlp.forward.calls": (c("mlp.forward"), "count"),
        "mlp.forward.self_s": (s("mlp.forward"), "s"),
        "mlp.forward_batch.rows": (int(extra.get("mlp.forward_batch.rows", 0)), "count"),
        "mlp.train_sgd.calls": (c("mlp.train_sgd"), "count"),
        "mlp.train_sgd.self_s": (s("mlp.train_sgd"), "s"),
        "mlp.init_mlp.self_s": (s("mlp.init_mlp"), "s"),
        "steg.train_steg_joint.self_s": (s("steg.train_steg_joint"), "s"),
        "steg.draw_message_instance.calls": (c("steg.draw_message_instance"), "count"),
        "steg.container_yield": (
            _sum_pairs(pok, "steg.generate_message_instance") / attempts
            if attempts else 0.0, "ratio"),
        "entities.provider_classify.calls": (c("entities.provider_classify"), "count"),
        "entities.provider_classify.self_s": (s("entities.provider_classify"), "s"),
        "entities.supplier_classify.calls": (c("entities.supplier_classify"), "count"),
        "entities.supplier_classify.self_s": (s("entities.supplier_classify"), "s"),
        "entities.issue_certificate.calls": (c("entities.issue_certificate"), "count"),
        "entities.issue_certificate.self_s": (s("entities.issue_certificate"), "s"),
        "entities.verify_certificate.self_s": (s("entities.verify_certificate"), "s"),
        "canon.sha256.calls": (c("canon.sha256"), "count"),
        "canon.sha256.self_s": (s("canon.sha256"), "s"),
        "canon.vec.calls": (c("canon.vec"), "count"),
        "verifiers.steg_probe.self_s": (s("verifiers.steg_probe"), "s"),
        "verifiers.deterministic_benchmark.self_s": (
            s("verifiers.deterministic_benchmark"), "s"),
        "verifiers.probabilistic_benchmark.self_s": (
            s("verifiers.probabilistic_benchmark"), "s"),
        "verifiers.metaresult_verify.self_s": (s("verifiers.metaresult_verify"), "s"),
        "verifiers.measure_roundtrip.busy_s": (
            busy_s.get("verifiers.measure_roundtrip", 0.0), "s"),
        "verifiers.queries_per_verdict": (
            queries / verdicts if verdicts else 0.0, "queries/verdict"),
        "adversarial.blackbox_attack.calls": (attacks, "count"),
        "adversarial.blackbox_attack.queries": (
            int(extra.get("adversarial.blackbox_attack.queries", 0)), "count"),
        "adversarial.blackbox_attack.self_s": (s("adversarial.blackbox_attack"), "s"),
        "adversarial.attack_success_ratio": (
            extra.get("adversarial.blackbox_attack.successes", 0) / attacks
            if attacks else 0.0, "ratio"),
        "stats.binomial_tail_leq.calls": (c("stats.binomial_tail_leq"), "count"),
        "stats.binomial_tail_leq.self_s": (s("stats.binomial_tail_leq"), "s"),
        "stats.two_proportion_z.calls": (c("stats.two_proportion_z"), "count"),
        "auditor.run_audit_round.calls": (c("auditor.run_audit_round"), "count"),
        "auditor.run_audit_round.busy_s": (busy_s.get("auditor.run_audit_round", 0.0), "s"),
        "auditor.compute_metric.calls": (c("auditor.compute_metric"), "count"),
        "auditor.compute_metric.trainings": (
            _sum_pairs(pc, "mlp.train_sgd", {"auditor.compute_metric"}), "count"),
        "auditor.Ledger.append_block.calls": (c("auditor.Ledger.append_block"), "count"),
        "auditor.Ledger.append_block.self_s": (s("auditor.Ledger.append_block"), "s"),
        "auditor.Ledger.verify_chain.self_s": (s("auditor.Ledger.verify_chain"), "s"),
        "config.validate_config.calls": (c("config.validate_config"), "count"),
        "config.validate_config.busy_s": (busy_s.get("config.validate_config", 0.0), "s"),
        "cli.main.self_s": (s("cli.main"), "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    return m
