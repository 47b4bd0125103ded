"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line even under pytest's output capture.

The numeric criteria run at their stated tolerances; the end-to-end
criterion is a directional check on a planted-topic corpus. All
randomness is seeded, so the suite is deterministic.
"""

import filecmp
import math
import time
from pathlib import Path

import numpy as np
import pytest

from _gradients import objective_gradients
from _kernel import objective
from _planted import (
    CLASS_NAMES,
    majority_baseline_predictions,
    make_planted_corpus,
)
from gssnmf import (
    ModelConfig,
    avg_coherence,
    build_label_matrix,
    build_seed_matrix,
    coherence,
    fit,
    macro_f1,
    split_mask,
    threshold_predictions,
)
from gssnmf.cli import main as cli_main
from gssnmf.factorization import _initial_factors as initial_factors


def _announce(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {name}{detail}")


# ---------------------------------------------------------------------------
# 1. Gradient oracle
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_oracle(capsys):
    started = time.monotonic()
    ok = False
    try:
        d, n, k, s, p = 8, 6, 3, 2, 2
        lam, mu = 0.7, 0.3
        delta = 1e-5
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            x = rng.random((d, n))
            w = rng.random((d, k))
            h = rng.random((k, n))
            y = rng.random((d, s))
            b = rng.random((k, s))
            z = rng.random((p, n))
            l = rng.random((p, n)) * 2.0
            c = rng.random((p, k))

            def total(w_, h_, b_, c_):
                return objective(x, w_, h_, y, b_, z, l, c_, lam, mu)[0]

            grads = objective_gradients(x, w, h, y, b, z, l, c, lam, mu)
            for grad, mat, name in zip(grads, (w, h, b, c), "whbc"):
                fd = np.zeros_like(mat)
                for idx in np.ndindex(mat.shape):
                    plus, minus = mat.copy(), mat.copy()
                    plus[idx] += delta
                    minus[idx] -= delta
                    args = {"w": w, "h": h, "b": b, "c": c}
                    args[name] = plus
                    f_plus = total(args["w"], args["h"], args["b"], args["c"])
                    args[name] = minus
                    f_minus = total(args["w"], args["h"], args["b"], args["c"])
                    fd[idx] = (f_plus - f_minus) / (2 * delta)
                rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
                assert rel < 1e-4, f"seed {seed}: gradient {name} rel err {rel}"
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"gradient oracle took {elapsed:.1f}s"
        ok = True
    finally:
        _announce(capsys, 1, "gradient oracle (20 instances, rel err < 1e-4)", ok)


# ---------------------------------------------------------------------------
# 2. Monotonicity
# ---------------------------------------------------------------------------

def test_criterion_2_objective_monotone(capsys):
    started = time.monotonic()
    ok = False
    try:
        d, n, k, s, p = 100, 80, 8, 3, 4
        violations = []
        for seed in range(10):
            rng = np.random.default_rng(2000 + seed)
            x = rng.random((d, n))
            y = np.zeros((d, s))
            y[rng.choice(d, s, replace=False), np.arange(s)] = 1.0
            z = np.zeros((p, n))
            z[rng.integers(0, p, n), np.arange(n)] = 1.0
            mask = split_mask(n, 0.7, rng_seed=seed, n_classes=p)
            config = ModelConfig(rank=k, lam=0.01, mu=0.01, max_iters=300,
                                 rng_seed=seed)
            result = fit(x, config, y=y, z=z, l=mask)
            trace = np.array(result.objective_trace)
            rises = np.nonzero(np.diff(trace) > trace[:-1] * 1e-9)[0]
            for i in rises:
                violations.append((seed, int(i) + 2, float(trace[i + 1] - trace[i])))
        assert not violations, f"objective increased at (seed, iteration, delta): {violations}"
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"monotonicity check took {elapsed:.1f}s"
        ok = True
    finally:
        _announce(capsys, 2,
                  "objective monotone (10 instances, 300 iterations, slack 1e-9)", ok)


# ---------------------------------------------------------------------------
# 3. Reduction equivalence (independently coded baseline loops)
# ---------------------------------------------------------------------------
# The baselines write each rule as one expression with the same Gram-first
# grouping and denominator floor the solver documents; equivalence is
# required bitwise, so the arithmetic conventions must agree even though
# the code paths are separate.

def _classical_loop(x, w, h, eps, iters):
    for _ in range(iters):
        w = w * ((x @ h.T) / (w @ (h @ h.T) + eps))
        h = h * ((w.T @ x) / ((w.T @ w) @ h + eps))
    return w, h


def _ssnmf_loop(x, z, l, w, h, c, mu, eps, iters):
    ll = l * l
    lz = ll * z
    for _ in range(iters):
        w = w * ((x @ h.T) / (w @ (h @ h.T) + eps))
        h = h * (((w.T @ x) + mu * (c.T @ lz))
                 / ((w.T @ w) @ h + mu * (c.T @ (ll * (c @ h))) + eps))
        c = c * ((lz @ h.T) / ((ll * (c @ h)) @ h.T + eps))
    return w, h, c


def _guided_loop(x, y, w, h, b, lam, eps, iters):
    for _ in range(iters):
        w = w * (((x @ h.T) + lam * (y @ b.T))
                 / (w @ (h @ h.T) + lam * (w @ (b @ b.T)) + eps))
        h = h * ((w.T @ x) / ((w.T @ w) @ h + eps))
        b = b * ((w.T @ y) / ((w.T @ w) @ b + eps))
    return w, h, b


def _gssnmf_loop(x, y, z, l, w, h, b, c, lam, mu, eps, iters):
    ll = l * l
    lz = ll * z
    for _ in range(iters):
        w = w * (((x @ h.T) + lam * (y @ b.T))
                 / (w @ (h @ h.T) + lam * (w @ (b @ b.T)) + eps))
        h = h * (((w.T @ x) + mu * (c.T @ lz))
                 / ((w.T @ w) @ h + mu * (c.T @ (ll * (c @ h))) + eps))
        b = b * ((w.T @ y) / ((w.T @ w) @ b + eps))
        c = c * ((lz @ h.T) / ((ll * (c @ h)) @ h.T + eps))
    return w, h, b, c


def test_criterion_3_reduction_equivalence(capsys):
    ok = False
    try:
        rng = np.random.default_rng(3000)
        d, n, k, s, p = 30, 24, 4, 3, 5
        iters = 100
        x = rng.random((d, n))
        y = np.zeros((d, s))
        y[rng.choice(d, s, replace=False), np.arange(s)] = 1.0
        z = np.zeros((p, n))
        z[rng.integers(0, p, n), np.arange(n)] = 1.0
        mask = split_mask(n, 0.7, rng_seed=1, n_classes=p)

        # lam > 0 and mu > 0: the combined model
        config = ModelConfig(rank=k, lam=0.05, mu=0.05, max_iters=iters,
                             rng_seed=14)
        res = fit(x, config, y=y, z=z, l=mask)
        w0, h0, b0, c0 = initial_factors(d, n, config, n_seeds=s, n_classes=p)
        w_ref, h_ref, b_ref, c_ref = _gssnmf_loop(
            x, y, z, mask.l, w0, h0, b0, c0, config.lam, config.mu, config.eps,
            iters,
        )
        assert np.array_equal(res.w, w_ref)
        assert np.array_equal(res.h, h_ref)
        assert np.array_equal(res.b, b_ref)
        assert np.array_equal(res.c, c_ref)

        # lam = 0: label-supervised variant
        config = ModelConfig(rank=k, lam=0.0, mu=0.05, max_iters=iters, rng_seed=11)
        res = fit(x, config, z=z, l=mask)
        w0, h0, _, c0 = initial_factors(d, n, config, n_classes=p)
        w_ref, h_ref, c_ref = _ssnmf_loop(
            x, z, mask.l, w0, h0, c0, config.mu, config.eps, iters
        )
        assert np.array_equal(res.w, w_ref)
        assert np.array_equal(res.h, h_ref)
        assert np.array_equal(res.c, c_ref)

        # mu = 0: seed-guided variant
        config = ModelConfig(rank=k, lam=0.05, mu=0.0, max_iters=iters, rng_seed=12)
        res = fit(x, config, y=y)
        w0, h0, b0, _ = initial_factors(d, n, config, n_seeds=s)
        w_ref, h_ref, b_ref = _guided_loop(
            x, y, w0, h0, b0, config.lam, config.eps, iters
        )
        assert np.array_equal(res.w, w_ref)
        assert np.array_equal(res.h, h_ref)
        assert np.array_equal(res.b, b_ref)

        # lam = mu = 0: plain factorization
        config = ModelConfig(rank=k, max_iters=iters, rng_seed=13)
        res = fit(x, config)
        w0, h0, _, _ = initial_factors(d, n, config)
        w_ref, h_ref = _classical_loop(x, w0, h0, config.eps, iters)
        assert np.array_equal(res.w, w_ref)
        assert np.array_equal(res.h, h_ref)
        ok = True
    finally:
        _announce(capsys, 3,
                  "reduction equivalence (bitwise, 100 iterations each)", ok)


def test_zero_weights_skip_their_terms_bitwise():
    # Y, Z and L are all given, so B and C exist and update, but a zero
    # weight leaves its terms out of the W and H rules: the factors are
    # bitwise those of the loop without that term.
    rng = np.random.default_rng(3001)
    d, n, k, s, p = 30, 24, 4, 3, 5
    iters = 60
    x = rng.random((d, n))
    y = np.zeros((d, s))
    y[rng.choice(d, s, replace=False), np.arange(s)] = 1.0
    z = np.zeros((p, n))
    z[rng.integers(0, p, n), np.arange(n)] = 1.0
    mask = split_mask(n, 0.7, rng_seed=2, n_classes=p)

    def run(lam, mu):
        config = ModelConfig(rank=k, lam=lam, mu=mu, max_iters=iters, rng_seed=15)
        start = initial_factors(d, n, config, n_seeds=s, n_classes=p)
        return fit(x, config, y=y, z=z, l=mask), start

    res, (w0, h0, _, _) = run(0.0, 0.0)
    w_ref, h_ref = _classical_loop(x, w0, h0, res.config.eps, iters)
    assert np.array_equal(res.w, w_ref) and np.array_equal(res.h, h_ref)

    res, (w0, h0, b0, _) = run(0.05, 0.0)
    w_ref, h_ref, b_ref = _guided_loop(x, y, w0, h0, b0, 0.05, res.config.eps, iters)
    assert np.array_equal(res.w, w_ref) and np.array_equal(res.h, h_ref)
    assert np.array_equal(res.b, b_ref)

    res, (w0, h0, _, c0) = run(0.0, 0.05)
    w_ref, h_ref, c_ref = _ssnmf_loop(x, z, mask.l, w0, h0, c0, 0.05,
                                      res.config.eps, iters)
    assert np.array_equal(res.w, w_ref) and np.array_equal(res.h, h_ref)
    assert np.array_equal(res.c, c_ref)


def test_reference_products_alone_equal_the_reference_loop(monkeypatch):
    # Every faster product form failing its check leaves fit on the
    # per-cell products X H^T and W^T X, still bitwise the listed rules.
    from gssnmf import factorization

    monkeypatch.setattr(factorization, "_blocks_equal", lambda *blocks: False)
    rng = np.random.default_rng(3002)
    d, n, k, s, p = 30, 24, 4, 3, 5
    x = rng.random((d, n))
    y = np.zeros((d, s))
    y[rng.choice(d, s, replace=False), np.arange(s)] = 1.0
    z = np.zeros((p, n))
    z[rng.integers(0, p, n), np.arange(n)] = 1.0
    mask = split_mask(n, 0.7, rng_seed=3, n_classes=p)
    config = ModelConfig(rank=k, lam=0.05, mu=0.05, max_iters=60, rng_seed=16)
    res = fit(x, config, y=y, z=z, l=mask)
    start = initial_factors(d, n, config, n_seeds=s, n_classes=p)
    want = _gssnmf_loop(x, y, z, mask.l, *start, config.lam, config.mu,
                        config.eps, config.max_iters)
    for got, ref in zip((res.w, res.h, res.b, res.c), want):
        assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# 4. Coherence oracle
# ---------------------------------------------------------------------------

def _coherence_oracle(keywords, doc_sets):
    # brute-force pair counting, summed in the formula's stated pair order
    total = 0.0
    for j in range(1, len(keywords)):
        for i in range(j):
            co = 0
            df = 0
            for docset in doc_sets:
                if keywords[i] in docset:
                    df += 1
                    if keywords[j] in docset:
                        co += 1
            total += math.log((co + 1) / df)
    return total


def test_criterion_4_coherence_oracle(capsys):
    ok = False
    try:
        for seed in range(25):
            rng = np.random.default_rng(4000 + seed)
            vocab = list("abcdefgh")[: int(rng.integers(3, 9))]
            docs = [
                {w for w in vocab if rng.random() < 0.5} or {vocab[0]}
                for _ in range(int(rng.integers(2, 11)))
            ]
            present = sorted({w for s in docs for w in s})
            n_kw = min(len(present), int(rng.integers(2, 6)))
            keywords = [str(w) for w in rng.choice(present, n_kw, replace=False)]
            assert coherence(keywords, docs) == _coherence_oracle(keywords, docs), (
                f"seed {seed}: coherence mismatch for {keywords}"
            )
        ok = True
    finally:
        _announce(capsys, 4, "coherence equals brute-force oracle (25 corpora)", ok)


# ---------------------------------------------------------------------------
# 5. Macro F1 oracle and the frozen averaged-score check
# ---------------------------------------------------------------------------

def _macro_f1_oracle(pred, truth):
    scores = []
    for i in range(pred.shape[0]):
        tp = fp = fn = 0
        for j in range(pred.shape[1]):
            if pred[i, j] == 1 and truth[i, j] == 1:
                tp += 1
            elif pred[i, j] == 1:
                fp += 1
            elif truth[i, j] == 1:
                fn += 1
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return sum(scores) / len(scores), scores


def test_criterion_5_macro_f1_oracle(capsys):
    ok = False
    try:
        for seed in range(25):
            rng = np.random.default_rng(5000 + seed)
            p = int(rng.integers(1, 6))
            m = int(rng.integers(1, 21))
            pred = (rng.random((p, m)) < 0.4).astype(float)
            truth = (rng.random((p, m)) < 0.4).astype(float)
            macro, per_class = macro_f1(pred, truth)
            macro_ref, per_class_ref = _macro_f1_oracle(pred, truth)
            assert abs(macro - macro_ref) <= 1e-12
            for got, want in zip(per_class, per_class_ref):
                assert abs(got - want) <= 1e-12
        per_topic = [1112.94, 1388.307, 1290.817, 921.023, 1109.453,
                     1123.185, 1090.895]
        assert abs(avg_coherence(per_topic) - 1148.089) <= 0.001
        ok = True
    finally:
        _announce(capsys, 5,
                  "macro F1 oracle (25 instances) and averaged-score check", ok)


# ---------------------------------------------------------------------------
# 6. tf-idf oracle
# ---------------------------------------------------------------------------

def test_criterion_6_tfidf_oracle(capsys):
    ok = False
    try:
        from gssnmf import PipelineParams, build_corpus

        docs = [("d1", "a b"), ("d2", "a c"), ("d3", "a")]
        corpus = build_corpus(
            docs, PipelineParams(max_df=1.0, min_df=0.0, stopwords=frozenset())
        )
        assert corpus.vocab.terms == ["a", "b", "c"]

        # hand computation, straight from the weighting definition
        n = 3
        counts = [{"a": 1, "b": 1}, {"a": 1, "c": 1}, {"a": 1}]
        df = {"a": 3, "b": 1, "c": 1}
        expected = np.zeros((3, 3))
        for j, doc in enumerate(counts):
            col = []
            for t in ("a", "b", "c"):
                idf = math.log((1 + n) / (1 + df[t])) + 1.0
                col.append(doc.get(t, 0) * idf)
            norm = math.sqrt(sum(v * v for v in col))
            expected[:, j] = [v / norm for v in col]
        assert np.max(np.abs(corpus.x - expected)) < 1e-9
        norms = np.linalg.norm(corpus.x, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9
        ok = True
    finally:
        _announce(capsys, 6, "tf-idf matches hand-computed example (1e-9)", ok)


# ---------------------------------------------------------------------------
# 7. Planted-model end-to-end
# ---------------------------------------------------------------------------

def test_criterion_7_planted_end_to_end(capsys):
    started = time.monotonic()
    ok = False
    detail = ""
    try:
        corpus, assignments, class_names = make_planted_corpus()
        assert corpus.n_docs == 200 and corpus.n_terms == 300
        labels = build_label_matrix(assignments, corpus.doc_ids)
        seeds = build_seed_matrix(class_names, corpus.vocab)
        assert seeds.y.shape[1] == len(CLASS_NAMES)

        n = corpus.n_docs
        p = len(labels.label_names)
        trials = range(10)
        base = 100
        masks = {t: split_mask(n, 0.7, base + t, p) for t in trials}

        def trial_macro(result, mask):
            test = mask.test_ids
            truth = labels.z[:, test]
            counts = [int(v) for v in truth.sum(axis=0)]
            preds = threshold_predictions((result.c @ result.h)[:, test], counts)
            return macro_f1(preds, truth)[0]

        # label-only runs over a mu grid pick the strongest opponent
        ssnmf_means = {}
        for mu in (0.03, 0.1, 0.3, 1.0):
            vals = []
            for t in trials:
                config = ModelConfig(rank=3, lam=0.0, mu=mu, max_iters=100,
                                     rng_seed=base + t)
                vals.append(trial_macro(fit(corpus, config, z=labels,
                                            l=masks[t]), masks[t]))
            ssnmf_means[mu] = float(np.mean(vals))
        best_mu = max(ssnmf_means, key=lambda m: ssnmf_means[m])

        # seed-guided runs at that mu, best lambda
        gssnmf_means = {}
        for lam in (0.3, 1.0, 2.0, 4.0):
            vals = []
            for t in trials:
                config = ModelConfig(rank=3, lam=lam, mu=best_mu, max_iters=100,
                                     rng_seed=base + t)
                vals.append(trial_macro(fit(corpus, config, y=seeds, z=labels,
                                            l=masks[t]), masks[t]))
            gssnmf_means[lam] = float(np.mean(vals))
        best_lam = max(gssnmf_means, key=lambda m: gssnmf_means[m])

        majority = float(np.mean([
            macro_f1(
                majority_baseline_predictions(labels.z, masks[t].train_ids,
                                              masks[t].test_ids),
                labels.z[:, masks[t].test_ids],
            )[0]
            for t in trials
        ]))

        guided = gssnmf_means[best_lam]
        label_only = ssnmf_means[best_mu]
        detail = (f" (guided {guided:.3f} vs label-only {label_only:.3f} "
                  f"vs majority {majority:.3f})")
        assert guided > majority, "seed-guided model does not beat majority baseline"
        assert guided >= label_only, "seed guidance made classification worse"
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"end-to-end check took {elapsed:.1f}s"
        ok = True
    finally:
        _announce(capsys, 7, "planted-corpus classification direction" + detail, ok)


# ---------------------------------------------------------------------------
# 8. CLI determinism
# ---------------------------------------------------------------------------

def _write_cli_fixture(root: Path):
    corpus_dir = root / "docs"
    corpus_dir.mkdir()
    rng = np.random.default_rng(99)
    words = {
        "gang": ["gangx", "crewx", "turfx", "streetx"],
        "theft": ["theftx", "stealx", "storex", "goodsx"],
    }
    shared = ["courtx", "trialx", "judgex", "motionx", "briefx", "appealx"]
    labels_lines = []
    for j in range(24):
        cls = "gang" if j % 2 == 0 else "theft"
        pool = words[cls] + shared
        tokens = [words[cls][0]]  # anchor word always present
        for _ in range(30):
            tokens.append(pool[int(rng.integers(0, len(pool)))])
        (corpus_dir / f"doc{j:02d}.txt").write_text(" ".join(tokens), "utf-8")
        labels_lines.append(f"doc{j:02d}.txt,{cls}")
    (root / "labels.csv").write_text("\n".join(labels_lines) + "\n", "utf-8")
    (root / "seeds.txt").write_text("gangx\ntheftx\n", "utf-8")
    return corpus_dir


def _run_cli_twice(argv_builder, out_root: Path):
    """Run a CLI command into two directories; return both file maps."""
    outputs = []
    for run in ("run1", "run2"):
        out_dir = out_root / run
        out_dir.mkdir(parents=True, exist_ok=True)
        code = cli_main(argv_builder(out_dir))
        assert code == 0, f"command failed with exit code {code}"
        files = sorted(
            p.relative_to(out_dir).as_posix()
            for p in out_dir.rglob("*") if p.is_file()
        )
        outputs.append((out_dir, files))
    (dir1, files1), (dir2, files2) = outputs
    assert files1 == files2 and files1, "runs produced different file sets"
    for rel in files1:
        assert filecmp.cmp(dir1 / rel, dir2 / rel, shallow=False), (
            f"{rel} differs between reruns"
        )


def test_criterion_8_cli_determinism(capsys, tmp_path):
    ok = False
    try:
        corpus_dir = _write_cli_fixture(tmp_path)

        _run_cli_twice(
            lambda out: ["ingest", str(corpus_dir), "--out", str(out / "corpus.txt")],
            tmp_path / "ingest",
        )
        corpus_file = tmp_path / "ingest" / "run1" / "corpus.txt"

        _run_cli_twice(
            lambda out: ["rank-scan", str(corpus_file), "--top", "5",
                         "--out", str(out / "spectrum.csv")],
            tmp_path / "rankscan",
        )

        def factorize_args(out):
            return [
                "factorize", str(corpus_file), "--out", str(out / "model"),
                "--rank", "2", "--lambda", "0.1", "--mu", "0.05",
                "--max-iters", "40", "--rng-seed", "7",
                "--seeds", str(tmp_path / "seeds.txt"),
                "--labels", str(tmp_path / "labels.csv"),
                "--train-fraction", "0.7", "--split-seed", "3",
            ]

        _run_cli_twice(factorize_args, tmp_path / "factorize")
        model_dir = tmp_path / "factorize" / "run1" / "model"

        _run_cli_twice(
            lambda out: ["classify", str(model_dir),
                         str(tmp_path / "labels.csv"),
                         str(model_dir / "mask.json"),
                         "--out", str(out / "report.json")],
            tmp_path / "classify",
        )

        _run_cli_twice(
            lambda out: ["coherence", str(model_dir), str(corpus_file),
                         "--n-top", "4", "--out", str(out / "coherence.json")],
            tmp_path / "coherence",
        )

        def sweep_args(out):
            return [
                "sweep", str(corpus_file), str(tmp_path / "labels.csv"),
                str(tmp_path / "seeds.txt"),
                "--out", str(out / "sweep.csv"),
                "--out-mean", str(out / "sweep.mean.csv"),
                "--best-by-lambda", str(out / "best.csv"),
                "--ranks", "2", "--lambda-grid", "0,0.1",
                "--mu-grid", "0.01,0.05", "--trials", "2",
                "--base-seed", "5", "--max-iters", "25",
            ]

        _run_cli_twice(sweep_args, tmp_path / "sweep")
        mean_csv = tmp_path / "sweep" / "run1" / "sweep.mean.csv"

        _run_cli_twice(
            lambda out: ["plot-heatmap", str(mean_csv),
                         "--out", str(out / "heat.svg")],
            tmp_path / "plot",
        )
        ok = True
    finally:
        _announce(capsys, 8, "CLI outputs byte-identical across reruns", ok)
