"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The end-to-end criteria
(8-10) train on the bundled synthetic dataset: 500 train / 200 val groups,
3 classes, 32-d latent, 64-d face features, group size 3-8, 30% corrupted
faces at 10x clutter, 20% inconsistent individuals. Training runs use the
bundled learning rates with 30 epochs, seeds 0-4.
"""

import math
import time
from dataclasses import replace

import numpy as np

from ual.cli import _bundled, _gradcheck_units, main, parse_kv_file, sha256_file
from ual.datagen_metrics import (
    f_measure,
    generate_dataset,
    macro_average,
    spec_from_mapping,
)
from ual.gaussian_embedding import mc_predict
from ual.losses import kl_loss
from ual.numerics import SeededRng, gradient_check, softmax
from ual.pipeline import (
    BranchPrediction,
    TrainingConfig,
    branch_infer,
    evaluate_dataset,
    fuse_predictions,
    train_model,
)
from ual.quality_filter import fiqe_score, filter_faces
from ual.uncertainty_scoring import uncertainty_kernel

SEEDS = (0, 1, 2, 3, 4)
EPOCHS = 30
FACE_LR = 1e-3


def support_weighted_average(values, supports) -> float:
    """Mean over classes weighted by class support."""
    v = np.asarray(values, dtype=np.float64)
    s = np.asarray(supports, dtype=np.float64)
    return float((v * s).sum() / s.sum())


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared synthetic data and trained models (computed lazily, cached per session)

_cache: dict = {}


def bundled_datasets():
    if "data" not in _cache:
        spec = spec_from_mapping(parse_kv_file(_bundled("synthetic-default.gen")))
        assert (spec.num_groups, spec.num_classes) == (500, 3)
        assert (spec.face_dim, spec.group_size_min, spec.group_size_max) == (64, 3, 8)
        assert (spec.corrupt_fraction, spec.corrupt_scale) == (0.3, 10.0)
        assert spec.inconsistent_fraction == 0.2
        train = generate_dataset(spec)
        val = generate_dataset(replace(spec, num_groups=200, partition="val"))
        _cache["data"] = (train, val)
    return _cache["data"]


def face_config(seed: int, **kw) -> TrainingConfig:
    base = dict(
        latent_dim=32, face_lr=FACE_LR, epochs=EPOCHS, batch_size=64, seed=seed,
    )
    base.update(kw)
    return TrainingConfig(**base)


def trained_face(seed: int, ablation: str, **cfg_kw):
    key = ("face", seed, ablation, tuple(sorted(cfg_kw.items())))
    if key not in _cache:
        train, _ = bundled_datasets()
        cfg = face_config(seed, **cfg_kw)
        _cache[key] = train_model(train, cfg, branch_tags=("face",), ablation=ablation)
    return _cache[key]


def face_micro(result, seed: int, ablation: str) -> float:
    _, val = bundled_datasets()
    (out,) = evaluate_dataset(
        result.store, result.branches, val, result.config, seed, ablation=ablation
    )
    return out.branch_reports["face"].micro_accuracy


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    worst = 0.0
    for seed in SEEDS:
        for name, loss_fn, store in _gradcheck_units(seed):
            res = gradient_check(loss_fn, store, tolerance=1e-4)
            assert res.failure is None, f"{name}: non-finite gradient"
            worst = max(worst, res.worst)
            assert res.passed, f"{name} seed {seed}: max rel err {res.worst:.3e}"
    elapsed = time.monotonic() - start
    report(
        1,
        worst < 1e-4 and elapsed < 30.0,
        f"all loss terms + heads match finite differences "
        f"(worst rel err {worst:.2e}, {elapsed:.1f}s < 30s)",
    )


def test_criterion_2_kl_identities():
    # kl_loss is the KL term of both the face and the object branch
    zero = float(kl_loss(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))[0])  # a stack of one
    unit = float(kl_loss(np.ones((1, 1, 1)), np.zeros((1, 1, 1)))[0])
    rng = SeededRng(202)
    nonneg = True
    for _ in range(10_000):
        mu = rng.normals(4)
        log_var = rng.normals(4)
        nonneg = nonneg and kl_loss(mu[None, None, :], log_var[None, None, :])[0] >= 0.0
    report(
        2,
        zero == 0.0 and unit == 0.5 and nonneg,
        f"kl(0,1)={zero}, kl(mu=1)={unit}, nonnegative on 1e4 random embeddings",
    )


def test_criterion_3_reparameterization():
    # the face draws come from uncertainty_kernel (training and inference),
    # the object draws from mc_predict
    rng = SeededRng(303)
    ok = True
    for _ in range(20):
        mu = rng.normals((3, 6))
        sigma = np.exp(rng.normals((3, 6)))
        out = uncertainty_kernel(mu, sigma, np.zeros((3, 6)))
        ok = ok and np.array_equal(out.z, mu)
        ok = ok and float(out.prods.sum()) == 0.0  # the rec term
    W = rng.normals((3, 6))
    b = rng.normals(3)
    classify = lambda z: z @ W.T + b  # noqa: E731
    mu, sigma = rng.normals((1, 6)), np.exp(rng.normals((1, 6)))
    deterministic = softmax(classify(mu)[0])
    probs1 = mc_predict(mu, sigma, classify, np.zeros((1, 1, 6)))[0]
    ok = ok and np.array_equal(probs1, deterministic)
    # larger N: every draw is exactly mu; averaging and the batched matmul
    # reintroduce ordinary last-ulp rounding, nothing more
    probs16 = mc_predict(mu, sigma, classify, np.zeros((1, 16, 6)))[0]
    ok = ok and np.max(np.abs(probs16 - deterministic)) < 1e-14
    report(3, ok, "forced eps=0 gives z*=mu bit-exactly, rec=0, MC == deterministic")


def test_criterion_4_score_weight_algebra():
    # scores and alphas as training (one round) and inference (N rounds) see them
    rng = SeededRng(404)
    ok = True
    groups = 0
    for _ in range(250):
        n = 2 + rng.integer(9)
        mu, sigma = rng.normals((n, 4)), np.exp(rng.normals((n, 4)))
        out = uncertainty_kernel(mu, sigma, rng.normals((4, n, 4)))
        for s, alpha in zip(out.s, out.alpha):
            if np.unique(s).shape[0] != n:
                continue
            groups += 1
            ok = ok and np.max(np.abs(alpha + s - (s.min() + s.max()))) <= 1e-12
            ok = ok and np.array_equal(
                np.argsort(alpha, kind="stable")[::-1], np.argsort(s, kind="stable")
            )
    same = np.tile(rng.normals(4), (5, 1))
    degenerate = uncertainty_kernel(np.zeros((5, 4)), np.ones((5, 4)), same).alpha
    ok = ok and groups >= 900 and np.array_equal(degenerate, np.ones(5))
    report(
        4, ok, f"alpha + s conserved, ordering reversed, degenerate alpha == 1 ({groups} groups)"
    )


def test_criterion_5_metric_reproduction():
    ave = macro_average([84.16, 75.18, 78.62])
    fs = [f_measure(p, r) for p, r in [(87.57, 84.16), (73.93, 75.18), (76.08, 78.62)]]
    weighted = support_weighted_average([84.16, 75.18, 78.62], [773, 728, 564])
    ok = (
        abs(ave - 79.32) <= 0.005
        and abs(fs[0] - 85.83) <= 0.01
        and abs(fs[1] - 74.55) <= 0.01
        and abs(fs[2] - 77.33) <= 0.01
        and abs(weighted - 79.52) <= 0.1
    )
    report(
        5, ok,
        f"Ave={ave:.4f} (79.32+-0.005), F={[round(f, 3) for f in fs]}, "
        f"support-weighted={weighted:.4f} (79.52+-0.1)",
    )


def test_criterion_6_fiqe():
    identical = float(fiqe_score(np.tile(SeededRng(1).normals(8), (1, 5, 1)))[0])  # a stack of one
    pair = float(fiqe_score(np.array([[[0.0, 0.0], [0.0, 2.0]]]))[0])
    expected_pair = 2.0 / (1.0 + math.e)
    rng = SeededRng(606)
    never_empty = True
    for trial in range(50):
        n = 1 + rng.integer(6)
        mu, sigma = np.empty((n, 8)), np.empty((n, 8))
        for i in range(n):
            mu[i] = rng.normals(8)
            sigma[i] = np.exp(rng.normals(8) + 2.0)  # wildly dispersed: most fail
        streams = [rng.derive("f", trial, i) for i in range(n)]
        eps = np.stack([st.normals((8, 8)) for st in streams])
        kept, _ = filter_faces(mu, sigma, eps, 0.3, [n])
        never_empty = never_empty and len(kept) >= 1
    ok = identical == 1.0 and abs(pair - expected_pair) <= 1e-12 and never_empty
    report(
        6, ok,
        f"identical->1.0, pair@2 -> {pair:.6f} (=2*sigmoid(-1)), filtering never empties",
    )


def test_criterion_7_fusion():
    p = np.array([0.5, 0.25, 0.25])
    same = fuse_predictions([
        BranchPrediction("face", p), BranchPrediction("object", p),
        BranchPrediction("scene", p),
    ], "pwfs")
    fixed_point = np.max(np.abs(same.probs - p)) <= 1e-12
    f, o, s = [0.8, 0.1, 0.1], [0.4, 0.3, 0.3], [0.5, 0.25, 0.25]
    result = fuse_predictions([
        BranchPrediction("face", np.array(f)),
        BranchPrediction("object", np.array(o)),
        BranchPrediction("scene", np.array(s)),
    ], "pwfs")
    conf = np.array([0.8, 0.4, 0.5])
    oracle = sum((c / conf.sum()) * np.array(v) for c, v in zip(conf, [f, o, s]))
    oracle = oracle / oracle.sum()
    weights_ok = (
        all(w >= 0 for w in result.weights.values())
        and abs(sum(result.weights.values()) - 1.0) <= 1e-12
    )
    example_ok = (
        np.max(np.abs(result.probs - oracle)) <= 1e-12
        and abs(result.weights["face"] - 8 / 17) <= 1e-12
        and abs(result.weights["object"] - 4 / 17) <= 1e-12
        and abs(result.weights["scene"] - 5 / 17) <= 1e-12
    )
    report(7, fixed_point and weights_ok and example_ok,
           "weights simplex, identical-input fixed point, worked example matches oracle")


def test_criterion_8_uncertainty_benefit():
    start = time.monotonic()
    gaps = []
    for seed in SEEDS:
        ual = face_micro(trained_face(seed, "full"), seed, "full")
        det = face_micro(trained_face(seed, "no-ual-fiqe"), seed, "no-ual-fiqe")
        gaps.append(ual - det)
    elapsed = time.monotonic() - start
    mean_gap = float(np.mean(gaps))
    report(
        8,
        mean_gap >= 0.03 and elapsed < 300.0,
        f"UAL face branch beats deterministic baseline by {100 * mean_gap:.2f} pts "
        f"(need >= 3) over {len(SEEDS)} seeds; per-seed "
        f"{[round(100 * g, 1) for g in gaps]}; {elapsed:.0f}s < 300s",
    )


_LOSS_VARIANTS = {
    "cls": dict(lambda2=0.0, lambda3=0.0, lambda4=0.0),
    "cls+kl": dict(lambda2=1e-4, lambda3=0.0, lambda4=0.0),
    "cls+kl+rank": dict(lambda2=1e-4, lambda3=1.0, lambda4=0.0),
    "full": dict(lambda2=1e-4, lambda3=1.0, lambda4=0.01),
}


def test_criterion_9_loss_term_ablation():
    means = {}
    for name, lams in _LOSS_VARIANTS.items():
        accs = [
            face_micro(trained_face(seed, "no-fiqe", **lams), seed, "no-fiqe")
            for seed in SEEDS
        ]
        means[name] = float(np.mean(accs))
    best = max(means.values())
    kl_ok = means["cls+kl"] >= means["cls"]
    full_ok = (best - means["full"]) <= 0.005 + 1e-12
    report(
        9,
        kl_ok and full_ok,
        f"adding KL: {100 * means['cls']:.2f} -> {100 * means['cls+kl']:.2f}; "
        f"full {100 * means['full']:.2f} within 0.5 of best {100 * best:.2f} "
        f"({ {k: round(100 * v, 2) for k, v in means.items()} })",
    )


def test_criterion_10_mc_sampling_study():
    # Fig-3-style study on the trained face branch (sampling path, no FIQE
    # gate so the repeat-to-repeat spread reflects Monte-Carlo noise alone)
    result = trained_face(0, "no-fiqe", **_LOSS_VARIANTS["full"])
    _, val = bundled_datasets()
    cfg = result.config
    repeats = 20
    smaller = 0
    counts = (1, 64)
    # one call per repeat over every group; a group's predictions do not
    # depend on the groups it is run with
    runs = [
        branch_infer(
            result.branches["face"], val.groups, result.store, cfg,
            SeededRng(1000 + rep).derive("infer"),
            sample_counts=counts, ablation="no-fiqe",
        )[0].probs  # (G, E, C)
        for rep in range(repeats)
    ]
    for g in range(len(val.groups)):
        sweeps = [run[g] for run in runs]
        spreads = {}
        for i, n in enumerate(counts):
            probs = [sweep[i] for sweep in sweeps]
            spreads[n] = float(np.std(np.stack(probs), axis=0).mean())
        if spreads[64] < spreads[1]:
            smaller += 1
    frac = smaller / len(val.groups)
    report(
        10,
        frac >= 0.95,
        f"prediction std shrinks from N=1 to N=64 on {100 * frac:.1f}% of val groups (need >= 95%)",
    )


def test_criterion_11_determinism(tmp_path):
    spec = tmp_path / "spec.gen"
    spec.write_text(
        "num_groups = 40\ngroup_size_min = 2\ngroup_size_max = 5\n"
        "face_dim = 8\nobject_dim = 6\nscene_dim = 4\nnum_classes = 3\n"
        "spread = 1.0\ncorrupt_fraction = 0.3\ncorrupt_scale = 10.0\n"
        "inconsistent_fraction = 0.2\nseed = 77\n"
    )
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "latent_dim = 6\nepochs = 3\nbatch_size = 16\nseed = 11\n"
        "face_lr = 1e-3\nobject_lr = 0.05\nscene_lr = 0.05\n"
        "mc_samples = 4\nfiqe_samples = 4\n"
    )
    train = tmp_path / "train.jsonl"
    val = tmp_path / "val.jsonl"
    assert main(["simulate", "--spec", str(spec), "--out", str(train)]) == 0
    assert main(["simulate", "--spec", str(spec), "--out", str(val),
                 "--partition", "val", "--num-groups", "20"]) == 0

    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg), "--train", str(train),
                     "--val", str(val), "--out", str(out)]) == 0
        assert main(["eval", "--manifest", str(out / "manifest.json"),
                     "--data", str(val), "--out", str(out / "report")]) == 0
        digest = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                digest[str(path.relative_to(out))] = sha256_file(path)
        outputs.append(digest)
    ok = outputs[0] == outputs[1] and len(outputs[0]) >= 7
    report(
        11, ok,
        f"two identical-seed train+eval runs: {len(outputs[0])} files byte-identical",
    )
