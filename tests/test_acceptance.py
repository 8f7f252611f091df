"""Acceptance suite: nine numbered criteria, one test each.

Every test prints a single ``[criterion N] name: PASS/FAIL (...)`` line on the
real terminal (capture suspended for just that line) right before its
assertions, so a plain ``pytest -v`` run shows the per-criterion scoreboard.
All tolerances and trial counts are pinned as module constants.
"""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np

from veriml import adversarial as adv
from veriml import auditor, canon, mlp, runner, steg, verifiers
from veriml import config as cfgmod
from veriml.data import BlobRecipe
from veriml.entities import (Certificate, Provider, SeedPublication, Supplier,
                             hmac_sha256, supplier_classify, verify_certificate)
from veriml.rng import derive_seed, rng_below, rng_bytes, rng_uniform, uniform_array

# -- criterion 1: bit-deterministic training + deterministic benchmark -------------
N_TRIPLES = 20                  # random (architecture, seeds, dataset) triples
DET_TRIALS = 1000               # benchmark repetitions per provider kind
DET_QUERIES = 100               # query budget per benchmark trial

# -- criterion 2: gradient checks ---------------------------------------------------
N_GRAD_CASES = 100
FD_H = 1e-5                     # central-difference step
GRAD_TOL = 1e-5                 # max relative error, denominator max(|a|,|f|,1e-3)
N_SOFTMAX_EVALS = 10_000
SOFTMAX_SUM_TOL = 1e-9

# -- criterion 3: statistical oracles ----------------------------------------------
ENUM_MAX_N = 20
ENUM_REL_TOL = 1e-12
ENUM_P_GRID = (0.07, 0.3, 0.5, 0.77, 0.93)
Z_CASE_TOL = 1e-6               # |p - 2.03e-4| for the 90/100-vs-70/100 case
N_SPRT_STREAMS = 10_000
SPRT_ALPHA = SPRT_BETA = 0.05
SPRT_ERROR_FACTOR = 1.5
SPRT_P_HONEST, SPRT_P_CHEAT = 0.8, 0.4

# -- criterion 4: steg probe power and size -----------------------------------------
STEG_TRIALS = 100
STEG_K = 50
STEG_ALPHA = 0.01
STEG_MIN_DETECTIONS = 95
STEG_MAX_FALSE_FLAGS = 3
ROUNDTRIP_N = 200

# -- criterion 5: probabilistic benchmark power ------------------------------------
PROB_K = 200
PROB_ALPHA = 0.05
PROB_MIN_GAP = 0.15
PROB_POWER_TRIALS = 100
PROB_MIN_DETECTIONS = 90
PROB_FPR_TRIALS = 1000
PROB_FPR_SLACK = 0.014          # one-sided binomial slack on top of alpha

# -- criterion 6: certificate soundness ---------------------------------------------
N_TAMPERS = 10_000
META_TRIALS = 100
META_BATCH = 100

# -- criterion 7: robustness metric -------------------------------------------------
N_ACCOUNTING_TRACES = 100
SIGMOID_TOL = 1e-12
WB_TAU = 0.9
WB_BUDGET = 200
WB_STARTS = 100
WB_MIN_WINS = 90
DISC_TOL = 1e-12

# -- criterion 8: auditor ------------------------------------------------------------
AUD_TRIALS = 100
AUD_VALUE_TOL = 1e-12
FUZZ_MIN_TX = 1000
CHAIN_TAMPERS = 10_000

# -- criterion 9: end to end ---------------------------------------------------------
SWEEP_RHOS = [round(0.1 * i, 1) for i in range(1, 10)]
SWEEP_TRIALS = 200
SWEEP_SEED = 4207


def _report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    """One scoreboard line per criterion, written past pytest's capture."""
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {num}] {name}: {status} ({detail})", flush=True)


# ===================================================================================
# criterion 1
# ===================================================================================


def _random_triple(state: int):
    """Draw one (architecture, train config, data recipe) triple."""
    u, state = rng_below(state, 3)
    n_classes = 2 + u
    u, state = rng_below(state, 5)
    dim = 2 + u
    u, state = rng_below(state, 21)
    n_per_class = 10 + u
    v, state = rng_uniform(state)
    spread = 0.05 + 0.35 * v
    depth, state = rng_below(state, 2)
    widths = []
    for _ in range(depth + 1):
        w, state = rng_below(state, 6)
        widths.append(3 + w)
    u, state = rng_below(state, 4)
    epochs = 1 + u
    u, state = rng_below(state, 13)
    batch = 4 + u
    v, state = rng_uniform(state)
    lr = 0.1 + 0.9 * v
    ws, state = rng_below(state, 1 << 31)
    ss, state = rng_below(state, 1 << 31)
    ds, state = rng_below(state, 1 << 31)
    arch = (dim, *widths, n_classes)
    seeds = mlp.SeedConfig(ws, ss, ds)
    tcfg = mlp.TrainConfig(lr, epochs, batch, seeds)
    recipe = BlobRecipe(n_classes, n_per_class, dim, spread, ds)
    return arch, tcfg, recipe, state


def test_c1_training_is_bit_deterministic_and_benchmark_separates(capsys):
    # (a) training is a pure function: same triple, trained twice from
    # scratch (fresh dataset build, fresh init), identical serialized bytes.
    state = derive_seed(0xC1, 0)
    identical = 0
    for _ in range(N_TRIPLES):
        arch, tcfg, recipe, state = _random_triple(state)
        blobs = []
        for _ in range(2):
            model = mlp.train_sgd(
                mlp.init_mlp(arch, tcfg.seed_config.weight_seed),
                recipe.build(), tcfg)
            blobs.append(mlp.save_model(model))
        identical += blobs[0] == blobs[1]

    # (b) the bitwise benchmark never flags an honest pass-through and always
    # flags a substituted model, within the fixed query budget.
    recipe = BlobRecipe(3, 40, 4, 0.12, seed=9101)
    pool = recipe.build()
    seeds = mlp.SeedConfig(9102, 9103, 9101)
    tcfg = mlp.TrainConfig(0.5, 6, 16, seeds)
    arch = (4, 10, 3)
    model = mlp.train_sgd(mlp.init_mlp(arch, seeds.weight_seed), pool, tcfg)
    pub = SeedPublication(seeds, tcfg, arch)
    supplier = Supplier(model=model, seed_publication=pub)
    cheap_seeds = mlp.SeedConfig(7, 8, 9101)
    cheap = mlp.train_sgd(mlp.init_mlp((4, 6, 3), 7),
                          pool.subset(range(0, len(pool), 5)),
                          mlp.TrainConfig(0.3, 2, 8, cheap_seeds))

    honest_flags = substitute_flags = over_budget = 0
    for t in range(DET_TRIALS):
        q, _ = uniform_array(derive_seed(0x1D, t), DET_QUERIES * recipe.dim)
        queries = q.reshape(DET_QUERIES, recipe.dim)
        hv = verifiers.deterministic_benchmark(
            Provider(kind="HonestPassthrough", backend=supplier),
            pub, recipe, queries, rng=derive_seed(0x1E, t))
        sv = verifiers.deterministic_benchmark(
            Provider(kind="SubstituteModel", backend=supplier, cheap_model=cheap),
            pub, recipe, queries, rng=derive_seed(0x1F, t))
        honest_flags += hv.decision == verifiers.LIKELY_FRAUDULENT
        substitute_flags += sv.decision == verifiers.LIKELY_FRAUDULENT
        over_budget += (hv.n_probes > DET_QUERIES) + (sv.n_probes > DET_QUERIES)

    ok = (identical == N_TRIPLES and honest_flags == 0
          and substitute_flags == DET_TRIALS and over_budget == 0)
    _report(capsys, 1, "bit-deterministic training and benchmark", ok,
            f"retrained identical {identical}/{N_TRIPLES}; honest flagged "
            f"{honest_flags}/{DET_TRIALS}; substitute flagged "
            f"{substitute_flags}/{DET_TRIALS}; <= {DET_QUERIES} queries each")
    assert identical == N_TRIPLES
    assert honest_flags == 0
    assert substitute_flags == DET_TRIALS
    assert over_budget == 0


# ===================================================================================
# criterion 2
# ===================================================================================


def _grad_err(analytic: float, fd: float) -> float:
    return abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-3)


def test_c2_gradients_match_finite_differences_and_softmax_normalizes(capsys):
    state = derive_seed(0xC2, 0)
    worst = 0.0
    for _ in range(N_GRAD_CASES):
        u, state = rng_below(state, 4)
        n_in = 2 + u
        u, state = rng_below(state, 4)
        hidden = 3 + u
        u, state = rng_below(state, 3)
        n_out = 2 + u
        ws, state = rng_below(state, 1 << 31)
        model = mlp.init_mlp((n_in, hidden, n_out), weight_seed=ws)
        x, state = uniform_array(state, n_in)
        label, state = rng_below(state, n_out)

        def loss() -> float:
            return -math.log(float(mlp.forward(model, x)[label]))

        grads = mlp.gradient(model, x, label)
        for layer in range(len(model.weights)):
            for arr, g in ((model.weights[layer], grads.weights[layer]),
                           (model.biases[layer], grads.biases[layer])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = float(arr[idx])
                    arr[idx] = orig + FD_H
                    up = loss()
                    arr[idx] = orig - FD_H
                    down = loss()
                    arr[idx] = orig
                    worst = max(worst, _grad_err(float(g[idx]),
                                                 (up - down) / (2 * FD_H)))

        gin = mlp.input_gradient(model, x, label)
        for j in range(n_in):
            xp, xm = x.copy(), x.copy()
            xp[j] += FD_H
            xm[j] -= FD_H
            fd = (math.log(float(mlp.forward(model, xp)[label]))
                  - math.log(float(mlp.forward(model, xm)[label]))) / (2 * FD_H)
            worst = max(worst, _grad_err(float(gin[j]), fd))

    worst_sum = 0.0
    for _ in range(10):
        ws, state = rng_below(state, 1 << 31)
        model = mlp.init_mlp((5, 8, 4), weight_seed=ws)
        flat, state = uniform_array(state, (N_SOFTMAX_EVALS // 10) * 5)
        X = flat.reshape(-1, 5) * 20.0 - 10.0
        probs = mlp.forward_batch(model, X)
        worst_sum = max(worst_sum, float(np.abs(probs.sum(axis=1) - 1.0).max()))

    ok = worst <= GRAD_TOL and worst_sum <= SOFTMAX_SUM_TOL
    _report(capsys, 2, "analytic gradients and softmax normalization", ok,
            f"max grad rel err {worst:.3e} (tol {GRAD_TOL}); max |sum-1| "
            f"{worst_sum:.3e} over {N_SOFTMAX_EVALS} evals (tol {SOFTMAX_SUM_TOL})")
    assert worst <= GRAD_TOL
    assert worst_sum <= SOFTMAX_SUM_TOL


# ===================================================================================
# criterion 3
# ===================================================================================


def _exact_tail(successes: int, n: int, p: float, side: str) -> Fraction:
    pf = Fraction(p)
    qf = 1 - pf
    idx = range(0, successes + 1) if side == "lower" else range(successes, n + 1)
    return sum(Fraction(math.comb(n, i)) * pf**i * qf**(n - i) for i in idx)


def test_c3_statistical_oracles_match_exact_references(capsys):
    worst_rel = 0.0
    for n in range(ENUM_MAX_N + 1):
        for s in range(n + 1):
            for p in ENUM_P_GRID:
                for side in ("lower", "upper"):
                    got = verifiers.binomial_tail(s, n, p, side)
                    want = float(_exact_tail(s, n, p, side))
                    worst_rel = max(worst_rel, abs(got - want) / want)

    from veriml.stats import two_proportion_z
    _, p_hand = two_proportion_z(90, 100, 70, 100)
    z_err = abs(p_hand - 2.03e-4)

    # Sequential test error rates, simulated on both hypotheses.
    false_cheat = false_honest = 0
    state = derive_seed(0xC3, 1)
    for truth_rate, honest_stream in ((SPRT_P_HONEST, True), (SPRT_P_CHEAT, False)):
        for _ in range(N_SPRT_STREAMS):
            st, decision = None, verifiers.SPRT_CONTINUE
            while decision == verifiers.SPRT_CONTINUE:
                u, state = rng_uniform(state)
                st, decision = verifiers.sprt_step(
                    st, u < truth_rate, SPRT_P_HONEST, SPRT_P_CHEAT,
                    SPRT_ALPHA, SPRT_BETA)
            if honest_stream:
                false_cheat += decision == verifiers.SPRT_ACCEPT_CHEAT
            else:
                false_honest += decision == verifiers.SPRT_ACCEPT_HONEST

    max_errors = SPRT_ERROR_FACTOR * SPRT_ALPHA * N_SPRT_STREAMS
    ok = (worst_rel <= ENUM_REL_TOL and z_err <= Z_CASE_TOL
          and false_cheat <= max_errors and false_honest <= max_errors)
    _report(capsys, 3, "statistical oracle equivalence", ok,
            f"binomial tails rel err {worst_rel:.2e} over n<=20; z-case "
            f"|p-2.03e-4|={z_err:.2e}; false AcceptCheat {false_cheat} and "
            f"false AcceptHonest {false_honest} of {N_SPRT_STREAMS} "
            f"(limit {max_errors:.0f} each)")
    assert worst_rel <= ENUM_REL_TOL
    assert z_err <= Z_CASE_TOL
    assert false_cheat <= max_errors
    assert false_honest <= max_errors


# ===================================================================================
# criterion 4
# ===================================================================================


def test_c4_steg_probe_power_size_and_roundtrip(capsys, steg_env):
    cfg, fx = steg_env
    frac = cfg.raw["verifier"]["frac_steg"]
    detections = false_flags = 0
    for t in range(STEG_TRIALS):
        plan = verifiers.ProbePlan(STEG_K, frac, derive_seed(0xC4, t), STEG_ALPHA)
        v = verifiers.steg_probe(
            Provider(kind="SubstituteModel", backend=fx.supplier,
                     cheap_model=fx.cheap_model),
            fx.suite, fx.probe_covers, plan)
        detections += v.decision == verifiers.LIKELY_FRAUDULENT
        v = verifiers.steg_probe(
            Provider(kind="HonestPassthrough", backend=fx.supplier),
            fx.suite, fx.probe_covers, plan)
        false_flags += v.decision == verifiers.LIKELY_FRAUDULENT

    secret_dim = cfg.raw["steg"]["secret_dim"]
    held = fx.data.held.inputs[:ROUNDTRIP_N]
    state = derive_seed(0xC4, 7777)
    container_hits = cover_hits = 0
    for x in held:
        secret, state = steg.random_secret(state, secret_dim)
        z = steg.embed(fx.suite.steg, x, secret)
        container_hits += steg.reveal_detect(fx.suite.reveal, z)
        cover_hits += steg.reveal_detect(fx.suite.reveal, x)
    detect_rate = container_hits / len(held)
    false_rate = cover_hits / len(held)

    ok = (detections >= STEG_MIN_DETECTIONS and false_flags <= STEG_MAX_FALSE_FLAGS
          and detect_rate >= steg.DETECT_THRESHOLD
          and false_rate <= steg.FALSE_DETECT_THRESHOLD)
    _report(capsys, 4, "steg probe power and size", ok,
            f"substitute flagged {detections}/{STEG_TRIALS} at alpha={STEG_ALPHA} "
            f"(need >= {STEG_MIN_DETECTIONS}); honest flagged {false_flags} "
            f"(allow <= {STEG_MAX_FALSE_FLAGS}); round-trip detect "
            f"{detect_rate:.3f} / false {false_rate:.3f} on {len(held)} held")
    assert len(held) == ROUNDTRIP_N
    assert detections >= STEG_MIN_DETECTIONS
    assert false_flags <= STEG_MAX_FALSE_FLAGS
    assert detect_rate >= steg.DETECT_THRESHOLD
    assert false_rate <= steg.FALSE_DETECT_THRESHOLD


# ===================================================================================
# criterion 5
# ===================================================================================


def test_c5_probabilistic_benchmark_power_and_false_positive_rate(capsys, prob_env):
    cfg, fx = prob_env
    held = fx.data.held
    gap = mlp.accuracy(fx.supplier.model, held) - mlp.accuracy(fx.cheap_model, held)

    detections = 0
    for t in range(PROB_POWER_TRIALS):
        v = verifiers.probabilistic_benchmark(
            Provider(kind="SubstituteModel", backend=fx.supplier,
                     cheap_model=fx.cheap_model),
            fx.supplier, held, PROB_K, PROB_ALPHA, derive_seed(0xC5, t))
        detections += v.decision == verifiers.LIKELY_FRAUDULENT

    false_flags = 0
    for t in range(PROB_FPR_TRIALS):
        v = verifiers.probabilistic_benchmark(
            Provider(kind="HonestPassthrough", backend=fx.supplier),
            fx.supplier, held, PROB_K, PROB_ALPHA, derive_seed(0xC5 + 1, t))
        false_flags += v.decision == verifiers.LIKELY_FRAUDULENT
    fpr = false_flags / PROB_FPR_TRIALS

    ok = (gap >= PROB_MIN_GAP and detections >= PROB_MIN_DETECTIONS
          and fpr <= PROB_ALPHA + PROB_FPR_SLACK)
    _report(capsys, 5, "probabilistic benchmark power", ok,
            f"true accuracy gap {gap:.3f} (need >= {PROB_MIN_GAP}); detected "
            f"{detections}/{PROB_POWER_TRIALS} at k={PROB_K} (need >= "
            f"{PROB_MIN_DETECTIONS}); honest FPR {fpr:.4f} (allow <= "
            f"{PROB_ALPHA + PROB_FPR_SLACK})")
    assert gap >= PROB_MIN_GAP
    assert detections >= PROB_MIN_DETECTIONS
    assert fpr <= PROB_ALPHA + PROB_FPR_SLACK


# ===================================================================================
# criterion 6
# ===================================================================================

# RFC 4231 test vectors for HMAC-SHA-256 (cases 1-4, 6, 7; case 5 is the
# truncated-output case and does not exercise the full tag).
_RFC4231 = [
    (bytes.fromhex("0b" * 20), b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (bytes.fromhex("aa" * 20), bytes.fromhex("dd" * 50),
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes.fromhex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
     bytes.fromhex("cd" * 50),
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (bytes.fromhex("aa" * 131),
     b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (bytes.fromhex("aa" * 131),
     b"This is a test using a larger than block-size key and a larger t"
     b"han block-size data. The key needs to be hashed before being use"
     b"d by the HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]


def test_c6_certificates_are_sound(capsys, meta_env):
    _, fx = meta_env
    vectors_ok = all(hmac_sha256(key, msg).hex() == want
                     for key, msg, want in _RFC4231)

    # Single-byte tampers of (x, probs, nonce, tag) must all fail. This
    # scenario trains on the full pool, so queries come from the train split.
    key = fx.mac_key
    x = np.asarray(fx.data.train.inputs[0], dtype=np.float64)
    resp, _ = supplier_classify(fx.supplier, x, derive_seed(0xC6, 0))
    assert verify_certificate(key, x, resp.probs, resp.certificate)
    fields = [np.asarray(x).tobytes(), np.asarray(resp.probs).tobytes(),
              resp.certificate.nonce, resp.certificate.tag]
    bounds = np.cumsum([len(f) for f in fields])
    state = derive_seed(0xC6, 1)
    tamper_fails = 0
    for _ in range(N_TAMPERS):
        pos, state = rng_below(state, int(bounds[-1]))
        delta, state = rng_below(state, 255)
        fid = int(np.searchsorted(bounds, pos, side="right"))
        off = pos - (0 if fid == 0 else int(bounds[fid - 1]))
        blob = bytearray(fields[fid])
        blob[off] = (blob[off] + 1 + delta) & 0xFF
        parts = list(fields)
        parts[fid] = bytes(blob)
        x2 = np.frombuffer(parts[0], dtype=np.float64)
        probs2 = np.frombuffer(parts[1], dtype=np.float64)
        cert2 = Certificate(parts[2], parts[3])
        tamper_fails += not verify_certificate(key, x2, probs2, cert2)

    # One substituted response hiding among a batch of signed ones.
    pairs = []
    state2 = derive_seed(0xC6, 2)
    for i in range(META_BATCH):
        q = fx.data.train.inputs[i]
        r, state2 = supplier_classify(fx.supplier, q, state2)
        pairs.append((q, r))
    substitution_catches = 0
    for t in range(META_TRIALS):
        idx = t % META_BATCH
        nonce, state2 = rng_bytes(state2, 16)
        tag, state2 = rng_bytes(state2, 32)
        forged = dataclasses.replace(
            pairs[idx][1], probs=mlp.forward(fx.cheap_model, pairs[idx][0]),
            certificate=Certificate(nonce, tag))
        batch = list(pairs)
        batch[idx] = (pairs[idx][0], forged)
        v = verifiers.metaresult_verify(batch, key)
        substitution_catches += (v.decision == verifiers.LIKELY_FRAUDULENT
                                 and v.detail.startswith(f"certificate {idx} "))

    ok = (vectors_ok and tamper_fails == N_TAMPERS
          and substitution_catches == META_TRIALS)
    _report(capsys, 6, "certificate soundness", ok,
            f"RFC 4231 vectors {'all match' if vectors_ok else 'MISMATCH'}; "
            f"tampers rejected {tamper_fails}/{N_TAMPERS}; substituted "
            f"response caught {substitution_catches}/{META_TRIALS}")
    assert vectors_ok
    assert tamper_fails == N_TAMPERS
    assert substitution_catches == META_TRIALS


# ===================================================================================
# criterion 7
# ===================================================================================


def test_c7_robustness_accounting_attacks_and_scores(capsys, robust_env):
    cfg, fx = robust_env
    ver = cfg.raw["verifier"]
    dim = fx.data.recipe.dim
    n_classes = fx.data.recipe.n_classes
    plain = fx.cheap_model          # same architecture, no hardening
    hardened = fx.supplier.model

    # (a) blackbox query accounting: external count == reported count ==
    # closed form 1 + n_steps*(2*dim+1), never over budget.
    step_cost = 2 * dim + 1
    accounting_ok = 0
    state = derive_seed(0xC7, 0)
    for t in range(N_ACCOUNTING_TRACES):
        seen = {"n": 0}

        def scorer(X, _owners, _seen=seen):
            _seen["n"] += len(X)
            return mlp.forward_batch(plain, X)

        budget, state = rng_below(state, 500)
        budget += 30
        target, state = rng_below(state, n_classes)
        x0, _ = uniform_array(derive_seed(0xC7, 1000 + t), dim)
        acfg = adv.AttackConfig(ver["tau"], ver["step_size"], budget,
                                mode=adv.BLACKBOX)
        trace = adv.blackbox_attack(scorer, dim, x0, target, acfg)
        n_steps = (trace.queries_used - 1) // step_cost
        accounting_ok += (trace.queries_used == seen["n"]
                          and trace.queries_used == 1 + n_steps * step_cost
                          and trace.queries_used <= budget)

    # (b) the query-count-to-score squashing, at exact hand points.
    params = adv.SigmoidParams(100.0, 25.0)
    mid_exact = adv.robustness_score(100.0, params) == 0.5
    shift_err = abs(adv.robustness_score(125.0, params) - 1.0 / (1.0 + math.exp(-1.0)))
    budget_params = adv.SigmoidParams.for_budget(400)
    budget_ok = (budget_params.q0, budget_params.s_scale) == (100.0, 25.0)

    # (c) whitebox ascent hits tau=0.9 within the budget from uniform starts.
    wcfg = adv.AttackConfig(WB_TAU, ver["step_size"], WB_BUDGET, mode=adv.WHITEBOX)
    wins = 0
    for t in range(WB_STARTS):
        x0, _ = uniform_array(derive_seed(0xC7, 2000 + t), dim)
        trace = adv.whitebox_attack(plain, x0, t % n_classes, wcfg)
        wins += trace.success and trace.queries_used <= WB_BUDGET

    # A failed whitebox run must be charged exactly its full budget.
    tiny = adv.AttackConfig(0.999, 1e-6, 9, mode=adv.WHITEBOX)
    spent = adv.whitebox_attack(plain, np.full(dim, 0.5), 0, tiny)
    failure_charged = (not spent.success) and spent.queries_used == 9

    # (d) adversarially trained twin scores at least as robust on every class.
    # Ten paired starts per class (same seeds against both models) so the
    # per-class means are estimates, not single-attack rolls.
    acfg = adv.AttackConfig(ver["tau"], ver["step_size"], ver["max_queries"],
                            mode=adv.BLACKBOX)
    sig = adv.SigmoidParams(ver["sigmoid"]["q0"], ver["sigmoid"]["s_scale"])
    classes = list(range(n_classes))
    seed = derive_seed(0xC7, 99)
    hard = adv.robustness_benchmark(lambda X, _: mlp.forward_batch(hardened, X),
                                    dim, classes, 10, acfg, sig, seed)
    soft = adv.robustness_benchmark(lambda X, _: mlp.forward_batch(plain, X),
                                    dim, classes, 10, acfg, sig, seed)
    hardening_ok = all(h.score >= s.score for h, s in zip(hard, soft))

    # (e) discriminator error at its hand-computable points.
    true_s = [np.full(3, 0.8)] * 5
    gen_s = [np.full(3, 0.2)] * 4
    d_perfect = lambda v: 1.0 if v[0] > 0.5 else 0.0
    d_flat = lambda v: 0.5
    d_soft = lambda v: 0.8 if v[0] > 0.5 else 0.2
    disc_errs = (adv.discriminator_error(d_perfect, true_s, gen_s),
                 adv.discriminator_error(d_flat, true_s, gen_s),
                 adv.discriminator_error(d_soft, true_s, gen_s))
    disc_ok = (abs(disc_errs[0] - 0.0) <= DISC_TOL
               and abs(disc_errs[1] - 1.0) <= DISC_TOL
               and abs(disc_errs[2] - 0.4) <= DISC_TOL)

    ok = (accounting_ok == N_ACCOUNTING_TRACES and mid_exact
          and shift_err <= SIGMOID_TOL and budget_ok and wins >= WB_MIN_WINS
          and failure_charged and hardening_ok and disc_ok)
    _report(capsys, 7, "robustness metric and attacks", ok,
            f"accounting exact {accounting_ok}/{N_ACCOUNTING_TRACES}; "
            f"score(q0)==0.5 {mid_exact}, shift err {shift_err:.1e}; whitebox "
            f"wins {wins}/{WB_STARTS} (need >= {WB_MIN_WINS}); hardened >= "
            f"plain per class {hardening_ok}; discriminator errors "
            f"{tuple(round(e, 6) for e in disc_errs)}")
    assert accounting_ok == N_ACCOUNTING_TRACES
    assert mid_exact
    assert shift_err <= SIGMOID_TOL
    assert budget_ok
    assert wins >= WB_MIN_WINS
    assert failure_charged
    assert hardening_ok
    assert disc_ok


# ===================================================================================
# criterion 8
# ===================================================================================


class _FlippedPayload:
    """Stand-in payload whose canonical bytes differ by exactly one bit."""

    def __init__(self, payload, bit: int):
        blob = bytearray(payload.canonical_bytes())
        blob[bit // 8] ^= 1 << (bit % 8)
        self._blob = bytes(blob)
        self.kind = payload.kind

    def canonical_bytes(self) -> bytes:
        return self._blob


def _flip_bit(data: bytes, bit: int) -> bytes:
    blob = bytearray(data)
    blob[bit // 8] ^= 1 << (bit % 8)
    return bytes(blob)


def _lazy_round(ledger, spec, client, ids, values, fee):
    """One full audit round with stale-value oracles; returns tx count and
    whether conservation held after every single ledger operation."""
    profiles = [auditor.OracleProfile(ids[i], auditor.LAZY, stale_value=v)
                for i, v in enumerate(values)]
    rid = ledger.submit_request(client, spec, fee)
    ok = ledger.conservation_holds()
    reports = [auditor.oracle_evaluate(p, spec, rid) for p in profiles]
    ledger.record_reports(reports)
    ok = ok and ledger.conservation_holds()
    tally = auditor.tally_votes(reports, n_registered=len(ids))
    ledger.settle_request(rid, reports, tally)
    ok = ok and ledger.conservation_holds()
    return ok, tally


def test_c8_consensus_conservation_and_tamper_evidence(capsys, auditor_env):
    _, fx = auditor_env
    spec = fx.model_spec
    truth = auditor.compute_metric(spec)
    ids = sorted(auditor.identity(f"acc8-{i}") for i in range(7))
    client = auditor.identity("acc8-client")

    # (a) five honest of seven: consensus exists, equals the true metric, and
    # names exactly the honest reporters, under varying byzantine offsets.
    consensus_ok = 0
    state = derive_seed(0xC8, 0)
    for t in range(AUD_TRIALS):
        u1, state = rng_uniform(state)
        u2, state = rng_uniform(state)
        profiles = [auditor.OracleProfile(ids[i], auditor.HONEST) for i in range(5)]
        profiles.append(auditor.OracleProfile(
            ids[5], auditor.BYZANTINE, offset=0.05 + 0.25 * u1))
        profiles.append(auditor.OracleProfile(
            ids[6], auditor.BYZANTINE, offset=-(0.05 + 0.25 * u2)))
        balances = {client: 10_000}
        balances.update({oid: 50 for oid in ids})
        ledger = auditor.Ledger(balances)
        _, tally = auditor.run_audit_round(ledger, client, spec, 97 + t, profiles)
        consensus_ok += (tally is not None
                         and abs(tally.value - truth) <= AUD_VALUE_TOL
                         and list(tally.majority_oracle_ids) == ids[:5]
                         and ledger.conservation_holds()
                         and ledger.verify_chain())

    # (b) conservation after every operation across a >= 1000-transaction fuzz.
    balances = {client: 500_000}
    balances.update({oid: 200 for oid in ids})
    ledger = auditor.Ledger(balances)
    state = derive_seed(0xC8, 1)
    conserved = True
    rounds = 0
    while sum(len(b.tx_list) for b in ledger.blocks) < FUZZ_MIN_TX:
        shape, state = rng_below(state, 3)
        fee_draw, state = rng_below(state, 400)
        v, state = rng_uniform(state)
        v = round(0.05 + 0.85 * v, 4)
        hi = lambda d: min(1.0, v + d)
        lo = lambda d: max(0.0, v - d)
        if shape == 0:        # 5-of-7 agreement
            values = [v] * 5 + [hi(0.07), lo(0.07)]
        elif shape == 1:      # 4-of-7 agreement, still a strict majority
            values = [v] * 4 + [hi(0.06), hi(0.12), lo(0.06)]
        else:                 # 3/2/2 split: no consensus, full refund
            values = [v] * 3 + [hi(0.08)] * 2 + [lo(0.08)] * 2
        ok, _ = _lazy_round(ledger, spec, client, ids, values, 3 + fee_draw)
        conserved = conserved and ok
        rounds += 1
    fuzz_txs = sum(len(b.tx_list) for b in ledger.blocks)
    conserved = conserved and ledger.verify_chain()

    # (c) every random single-bit tamper of the committed chain is caught.
    tamper_ledger = auditor.Ledger({client: 50_000, **{o: 100 for o in ids}})
    state = derive_seed(0xC8, 2)
    for r in range(5):
        u, state = rng_uniform(state)
        vals = [round(0.1 + 0.8 * u, 4)] * 5 + [0.99, 0.01]
        _lazy_round(tamper_ledger, spec, client, ids, vals, 11 + 3 * r)
    assert tamper_ledger.verify_chain()
    blocks = tamper_ledger.blocks
    detected = 0
    for _ in range(CHAIN_TAMPERS):
        bi, state = rng_below(state, len(blocks))
        original = blocks[bi]
        mode, state = rng_below(state, 10)
        if mode < 7 and original.tx_list:
            ti, state = rng_below(state, len(original.tx_list))
            tx = original.tx_list[ti]
            bit, state = rng_below(state, len(tx.payload.canonical_bytes()) * 8)
            txs = list(original.tx_list)
            txs[ti] = dataclasses.replace(tx, payload=_FlippedPayload(tx.payload, bit))
            blocks[bi] = dataclasses.replace(original, tx_list=tuple(txs))
        elif mode < 9:
            bit, state = rng_below(state, 256)
            blocks[bi] = dataclasses.replace(
                original, block_hash=_flip_bit(original.block_hash, bit))
        else:
            bit, state = rng_below(state, 256)
            blocks[bi] = dataclasses.replace(
                original, prev_hash=_flip_bit(original.prev_hash, bit))
        detected += not tamper_ledger.verify_chain()
        blocks[bi] = original
    assert tamper_ledger.verify_chain()

    # (d) the demo run is byte-reproducible from (seed, rounds).
    demo_a = json.dumps(runner.auditor_demo(master_seed=4242, rounds=3), sort_keys=True)
    demo_b = json.dumps(runner.auditor_demo(master_seed=4242, rounds=3), sort_keys=True)
    demo_ok = demo_a == demo_b

    ok = (consensus_ok == AUD_TRIALS and conserved and fuzz_txs >= FUZZ_MIN_TX
          and detected == CHAIN_TAMPERS and demo_ok)
    _report(capsys, 8, "auditor consensus, conservation, tamper evidence", ok,
            f"consensus correct {consensus_ok}/{AUD_TRIALS}; conservation held "
            f"across {fuzz_txs} txs in {rounds} rounds; tampers detected "
            f"{detected}/{CHAIN_TAMPERS}; demo byte-reproducible {demo_ok}")
    assert consensus_ok == AUD_TRIALS
    assert conserved
    assert fuzz_txs >= FUZZ_MIN_TX
    assert detected == CHAIN_TAMPERS
    assert demo_ok


# ===================================================================================
# criterion 9
# ===================================================================================


def test_c9_every_scenario_runs_and_partial_cheat_sweep_is_monotone(capsys, _isolated_cache):
    shapes_ok = True
    for scenario in cfgmod.SCENARIOS:
        raw = cfgmod.builtin_config(scenario, provider_kind="SubstituteModel",
                                    trials=2)
        report = runner.run_scenario(cfgmod.validate_config(raw))
        round_trip = json.loads(runner.report_to_json(report))
        shapes_ok = shapes_ok and (
            report["scenario"] == scenario
            and len(report["trial_results"]) == 2
            and 0.0 <= report["aggregates"]["detection_rate"] <= 1.0
            and round_trip == json.loads(runner.report_to_json(report)))

    raw = cfgmod.builtin_config(cfgmod.STEG_PROBE, provider_kind="PartialCheat",
                                trials=SWEEP_TRIALS, master_seed=SWEEP_SEED)
    reports = runner.sweep(cfgmod.validate_config(raw), "provider.cheat_rate",
                           SWEEP_RHOS)
    rates = [r["aggregates"]["detection_rate"] for r in reports]
    monotone = all(b >= a for a, b in zip(rates, rates[1:]))

    ok = shapes_ok and monotone
    _report(capsys, 9, "end-to-end scenarios and cheat-rate sweep", ok,
            f"all {len(cfgmod.SCENARIOS)} scenarios valid: {shapes_ok}; "
            f"detection by cheat rate {[round(r, 3) for r in rates]} "
            f"nondecreasing: {monotone}")
    assert shapes_ok
    assert monotone
