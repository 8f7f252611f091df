"""Round-based permissioned-ledger auditor: clients escrow tokens to request
verification of a published model spec, oracle peers recompute the metric
from seeds and post reports, a strict-majority tally fixes the consensus
value, and the escrowed fee is split among the majority voters.

The chain is a plain SHA-256 hash chain over canonically serialized
transactions — enough structure to make every committed byte tamper-evident
and every run byte-reproducible, and nothing more. No networking, no mining:
one logical state machine mutated in rounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Union

from . import canon
from .cache import trained_model
from .data import BlobRecipe
from .errors import (AccessDeniedError, FundingError, ParameterError,
                     SpecIntegrityError, StateError)
from .mlp import SeedConfig, TrainConfig, accuracy, forward_batch

METRIC_ACCURACY = "accuracy"
METRIC_ROBUSTNESS = "robustness"

HONEST = "Honest"
BYZANTINE = "Byzantine"
LAZY = "Lazy"

BUCKET_WIDTH = 0.01


def identity(name: str) -> bytes:
    """32-byte ledger identity derived from a display name."""
    return canon.sha256(name.encode("utf-8"))


@dataclass(frozen=True)
class ModelSpec:
    """A complete, verifiable description of one metric computation: rebuild
    the dataset, retrain the model, evaluate the metric — all from seeds."""

    architecture: tuple[int, ...]
    seed_config: SeedConfig
    train_config: TrainConfig
    data_recipe: BlobRecipe
    metric: str
    metric_class: int
    spec_digest: bytes

    def __post_init__(self):
        if self.train_config.seed_config != self.seed_config:
            raise ParameterError("spec seed config disagrees with train config")

    def canonical_bytes(self) -> bytes:
        parts = [canon.u16(len(self.architecture))]
        parts += [canon.u32(d) for d in self.architecture]
        parts += [self.seed_config.canonical_bytes(),
                  self.train_config.canonical_bytes(),
                  self.data_recipe.canonical_bytes(),
                  canon.lp_str(self.metric), canon.u32(self.metric_class)]
        return b"".join(parts)


def make_model_spec(architecture, seed_config: SeedConfig,
                    train_config: TrainConfig, data_recipe: BlobRecipe,
                    metric: str = METRIC_ACCURACY, metric_class: int = 0) -> ModelSpec:
    if metric not in (METRIC_ACCURACY, METRIC_ROBUSTNESS):
        raise ParameterError(f"unknown metric {metric!r}")
    spec = ModelSpec(tuple(int(d) for d in architecture), seed_config,
                     train_config, data_recipe, metric, metric_class, b"")
    return ModelSpec(spec.architecture, seed_config, train_config, data_recipe,
                     metric, metric_class, canon.sha256(spec.canonical_bytes()))


def check_spec_digest(spec: ModelSpec) -> None:
    body = ModelSpec(spec.architecture, spec.seed_config, spec.train_config,
                     spec.data_recipe, spec.metric, spec.metric_class, b"")
    if canon.sha256(body.canonical_bytes()) != spec.spec_digest:
        raise SpecIntegrityError("spec digest does not match its contents")


_METRIC_CACHE: dict[bytes, float] = {}


def compute_metric(spec: ModelSpec) -> float:
    """The ground-truth metric for a spec: retrain deterministically (a
    fixture cache hit is that retrain) and evaluate. Memoized on the spec
    digest, so every honest oracle shares one evaluation."""
    check_spec_digest(spec)
    cached = _METRIC_CACHE.get(spec.spec_digest)
    if cached is not None:
        return cached
    recipe = spec.data_recipe
    model = trained_model(spec.architecture, spec.train_config, recipe,
                          recipe.n_per_class)
    if spec.metric == METRIC_ACCURACY:
        value = accuracy(model, recipe.build())
    else:
        # robustness of one class under the fixed reference attack budget,
        # seeded from the spec digest so every evaluator agrees
        from .adversarial import (AttackConfig, SigmoidParams,
                                  robustness_benchmark)
        cfg = AttackConfig(tau=0.9, step_size=0.05, max_queries=400)
        seed = int.from_bytes(spec.spec_digest[:8], "little")
        scores = robustness_benchmark(
            lambda X, _owners: forward_batch(model, X), spec.architecture[0],
            [spec.metric_class], 3, cfg, SigmoidParams.for_budget(400), seed)
        value = scores[0].score
    if len(_METRIC_CACHE) >= 64:
        _METRIC_CACHE.clear()
    _METRIC_CACHE[spec.spec_digest] = value
    return value


def value_bucket(value: float) -> int:
    return math.floor(value / BUCKET_WIDTH)


@dataclass(frozen=True)
class OracleProfile:
    oracle_id: bytes
    behavior: str = HONEST
    offset: float = 0.0          # Byzantine: added to the true metric
    stale_value: float = 0.0     # Lazy: reported verbatim

    def __post_init__(self):
        if len(self.oracle_id) != 32:
            raise ParameterError("oracle_id must be 32 bytes")
        if self.behavior not in (HONEST, BYZANTINE, LAZY):
            raise ParameterError(f"unknown behavior {self.behavior!r}")
        if not 0.0 <= self.stale_value <= 1.0:
            raise ParameterError("stale_value must be in [0,1]")


# -- transactions --------------------------------------------------------------


@dataclass(frozen=True)
class VerificationRequest:
    spec_digest: bytes
    fee: int
    client_id: bytes

    kind = "VerificationRequest"

    def canonical_bytes(self) -> bytes:
        return (canon.u8(1) + self.spec_digest + canon.u64(self.fee)
                + self.client_id)


@dataclass(frozen=True)
class MetricReport:
    request_id: bytes
    oracle_id: bytes
    value: float
    value_bucket: int

    kind = "MetricReport"

    def canonical_bytes(self) -> bytes:
        return (canon.u8(2) + self.request_id + self.oracle_id
                + canon.f64(self.value) + canon.u32(self.value_bucket))


@dataclass(frozen=True)
class ConsensusResult:
    request_id: bytes
    value: float
    majority_oracles: tuple[bytes, ...]

    kind = "ConsensusResult"

    def canonical_bytes(self) -> bytes:
        parts = [canon.u8(3), self.request_id, canon.f64(self.value),
                 canon.u16(len(self.majority_oracles))]
        parts += list(self.majority_oracles)
        return b"".join(parts)


@dataclass(frozen=True)
class Reward:
    oracle_id: bytes    # recipient; the client for a NoConsensus refund
    amount: int

    kind = "Reward"

    def canonical_bytes(self) -> bytes:
        return canon.u8(4) + self.oracle_id + canon.u64(self.amount)


Payload = Union[VerificationRequest, MetricReport, ConsensusResult, Reward]


@dataclass(frozen=True)
class Transaction:
    """Chain envelope: a ledger-assigned sequence number plus the payload.
    The sequence number salts tx_id, so resubmitting an identical payload
    (same spec, same fee) still yields a fresh id."""

    seq: int
    payload: Payload

    def canonical_bytes(self) -> bytes:
        return canon.u64(self.seq) + self.payload.canonical_bytes()

    @property
    def tx_id(self) -> bytes:
        return canon.sha256(self.canonical_bytes())


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    tx_list: tuple[Transaction, ...]
    block_hash: bytes


def _block_hash(height: int, prev_hash: bytes, txs: tuple[Transaction, ...]) -> bytes:
    body = b"".join(canon.lp_bytes(t.canonical_bytes()) for t in txs)
    return canon.sha256(prev_hash + canon.u64(height) + body)


@dataclass(frozen=True)
class TallyResult:
    value: float
    bucket: int
    majority_oracle_ids: tuple[bytes, ...]


def tally_votes(reports: list[MetricReport], n_registered: int) -> TallyResult | None:
    """Strict-majority consensus over value buckets: the winning bucket needs
    more than half of all registered oracles, and the consensus value is the
    mean of its raw reported values. None = no consensus this round."""
    if n_registered < 1:
        raise ParameterError("n_registered must be >= 1")
    if not reports:
        return None
    request_ids = {r.request_id for r in reports}
    if len(request_ids) != 1:
        raise ParameterError("reports mix different request ids")
    buckets: dict[int, list[MetricReport]] = {}
    for r in reports:
        buckets.setdefault(r.value_bucket, []).append(r)
    for bucket, members in sorted(buckets.items()):
        if 2 * len(members) > n_registered:
            value = math.fsum(m.value for m in members) / len(members)
            ids = tuple(sorted(m.oracle_id for m in members))
            return TallyResult(value, bucket, ids)
    return None


def oracle_evaluate(oracle: OracleProfile, spec: ModelSpec,
                    request_id: bytes) -> MetricReport:
    """One oracle's vote. Honest recomputes the metric from the spec;
    Byzantine shifts it by a fixed offset (clamped to [0,1]); Lazy doesn't
    compute at all and reports its stale value."""
    check_spec_digest(spec)
    if oracle.behavior == LAZY:
        value = oracle.stale_value
    else:
        value = compute_metric(spec)
        if oracle.behavior == BYZANTINE:
            value = min(1.0, max(0.0, value + oracle.offset))
    return MetricReport(request_id, oracle.oracle_id, value, value_bucket(value))


# -- the ledger state machine --------------------------------------------------


@dataclass
class _OpenRequest:
    client_id: bytes
    fee: int
    spec_digest: bytes


class Ledger:
    """Permissioned hash-chained ledger with token accounting.

    Constructed from initial balances; the genesis block is empty, and every
    mutation appends exactly one block. The access-control list is fixed at
    construction: every identity given an initial balance, zero included.
    """

    def __init__(self, initial_balances: dict[bytes, int]):
        for ident, bal in initial_balances.items():
            if len(ident) != 32:
                raise ParameterError("identities must be 32 bytes")
            if bal < 0:
                raise ParameterError("balances must be >= 0")
        self.balances: dict[bytes, int] = dict(initial_balances)
        self.acl: set[bytes] = set(initial_balances)
        self.total_supply: int = sum(initial_balances.values())
        self.escrow: dict[bytes, _OpenRequest] = {}
        self.blocks: list[Block] = [Block(0, canon.ZERO32, (),
                                          _block_hash(0, canon.ZERO32, ()))]
        self._seq = 0

    # -- chain mechanics --

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def append_block(self, payloads: list[Payload]) -> Block:
        for p in payloads:
            if not isinstance(p, (VerificationRequest, MetricReport,
                                  ConsensusResult, Reward)):
                raise ParameterError(f"invalid transaction payload {type(p).__name__}")
        txs = tuple(Transaction(self._next_seq(), p) for p in payloads)
        prev = self.blocks[-1]
        height = prev.height + 1
        block = Block(height, prev.block_hash, txs,
                      _block_hash(height, prev.block_hash, txs))
        self.blocks.append(block)
        return block

    def verify_chain(self) -> bool:
        prev_hash = canon.ZERO32
        for i, b in enumerate(self.blocks):
            if b.height != i or b.prev_hash != prev_hash:
                return False
            if _block_hash(b.height, b.prev_hash, b.tx_list) != b.block_hash:
                return False
            prev_hash = b.block_hash
        return True

    def gatekeeper_check(self, ident: bytes) -> bool:
        return ident in self.acl

    # -- token accounting --

    def balance_of(self, ident: bytes) -> int:
        return self.balances.get(ident, 0)

    def escrowed_total(self) -> int:
        return sum(req.fee for req in self.escrow.values())

    def conservation_holds(self) -> bool:
        return sum(self.balances.values()) + self.escrowed_total() == self.total_supply

    # -- audit rounds --

    def submit_request(self, client_id: bytes, spec: ModelSpec, fee: int) -> bytes:
        """Escrow the fee and commit a VerificationRequest; returns the new
        request id (the transaction id, unique even for repeated specs)."""
        if not self.gatekeeper_check(client_id):
            raise AccessDeniedError("client identity is not on the access list")
        check_spec_digest(spec)
        if fee <= 0:
            raise FundingError("fee must be positive")
        if self.balance_of(client_id) < fee:
            raise FundingError(
                f"balance {self.balance_of(client_id)} cannot cover fee {fee}")
        payload = VerificationRequest(spec.spec_digest, fee, client_id)
        block = self.append_block([payload])
        request_id = block.tx_list[0].tx_id
        self.balances[client_id] -= fee
        self.escrow[request_id] = _OpenRequest(client_id, fee, spec.spec_digest)
        return request_id

    def record_reports(self, reports: list[MetricReport]) -> Block:
        """Commit this round's oracle votes to the chain."""
        return self.append_block(list(reports))

    def settle_request(self, request_id: bytes, reports: list[MetricReport],
                       consensus: TallyResult | None) -> None:
        """Close out a request: split the escrowed fee equally among the
        majority voters (integer division, remainder to the lowest oracle
        id), or refund the client in full when there is no consensus."""
        open_req = self.escrow.get(request_id)
        if open_req is None:
            raise StateError("request is not open")
        reporter_ids = {r.oracle_id for r in reports}

        payloads: list[Payload] = []
        if consensus is None:
            self.balances[open_req.client_id] += open_req.fee
            payloads.append(Reward(open_req.client_id, open_req.fee))
        else:
            if not set(consensus.majority_oracle_ids) <= reporter_ids:
                raise ParameterError("consensus names oracles that did not report")
            winners = sorted(consensus.majority_oracle_ids)
            share = open_req.fee // len(winners)
            remainder = open_req.fee - share * len(winners)
            payloads.append(ConsensusResult(request_id, consensus.value,
                                            tuple(winners)))
            for i, oid in enumerate(winners):
                amount = share + (remainder if i == 0 else 0)
                self.balances[oid] = self.balances.get(oid, 0) + amount
                payloads.append(Reward(oid, amount))
        del self.escrow[request_id]
        self.append_block(payloads)

    # -- export --

    def export_jsonl(self) -> str:
        """One block per line; hashes hex, payloads by kind and field."""
        lines = []
        for b in self.blocks:
            txs = []
            for t in b.tx_list:
                entry = {"seq": t.seq, "kind": t.payload.kind,
                         "tx_id": t.tx_id.hex()}
                for key, val in vars(t.payload).items():
                    if isinstance(val, bytes):
                        val = val.hex()
                    elif isinstance(val, tuple):
                        val = [v.hex() for v in val]
                    entry[key] = val
                txs.append(entry)
            lines.append(json.dumps(
                {"height": b.height, "prev_hash": b.prev_hash.hex(),
                 "block_hash": b.block_hash.hex(), "txs": txs},
                sort_keys=True))
        return "\n".join(lines) + "\n"


def run_audit_round(ledger: Ledger, client_id: bytes, spec: ModelSpec,
                    fee: int, oracles: list[OracleProfile]) -> tuple[bytes, TallyResult | None]:
    """One synchronous round: submit, every oracle votes, votes are
    committed, the tally settles the escrow. Returns (request_id, tally)."""
    request_id = ledger.submit_request(client_id, spec, fee)
    reports = [oracle_evaluate(o, spec, request_id) for o in oracles]
    ledger.record_reports(reports)
    tally = tally_votes(reports, n_registered=len(oracles))
    ledger.settle_request(request_id, reports, tally)
    return request_id, tally
