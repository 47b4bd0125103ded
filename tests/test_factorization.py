import math
import tracemalloc
from dataclasses import asdict
from itertools import product

import numpy as np
import pytest

from _gradients import objective_gradients
from gssnmf import factorization, linalg
from gssnmf.factorization import (
    FactorizationError,
    FactorizationResult,
    ModelConfig,
    Problem,
    fit,
    fit_cells,
    initial_factors,
    load_result,
    objective,
    save_result,
    top_keywords,
    update_step,
)
from gssnmf.supervision import LabelMatrix, MaskMatrix, SeedMatrix, split_mask
from gssnmf.textpipe import CorpusMatrix, Vocabulary


def _random_instance(seed, d=8, n=6, k=3, s=2, p=2):
    rng = np.random.default_rng(seed)
    return {
        "x": rng.random((d, n)),
        "w": rng.random((d, k)),
        "h": rng.random((k, n)),
        "y": rng.random((d, s)),
        "b": rng.random((k, s)),
        "z": (rng.random((p, n)) < 0.5).astype(float),
        "l": rng.random((p, n)) * 2.0,  # general weights exercise the squared mask
        "c": rng.random((p, k)),
    }


def test_model_config_validation():
    with pytest.raises(ValueError, match="rank"):
        ModelConfig(rank=0)
    with pytest.raises(ValueError, match="max_iters"):
        ModelConfig(rank=1, max_iters=0)
    with pytest.raises(ValueError, match="weights"):
        ModelConfig(rank=1, lam=-0.1)
    with pytest.raises(ValueError, match="eps"):
        ModelConfig(rank=1, eps=0.0)
    cfg = ModelConfig(rank=2, lam=0.5, mu=0.1)
    assert ModelConfig(**asdict(cfg)) == cfg


@pytest.mark.parametrize("name", ["lam", "mu", "eps", "tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ModelConfig(rank=1, **{name: value})


_DATA = np.ones((4, 3))


@pytest.mark.parametrize("kwargs,match", [
    ({"x": np.array([[1.0, np.nan]])}, "NaN"),
    ({"x": _DATA, "y": np.ones((5, 2))}, "guiding term: Y is 5x2 but X is 4x3"),
    ({"x": _DATA, "z": np.ones((2, 3))}, "label term: .* together"),
    # L would broadcast against Z; its shape must equal Z's all the same.
    ({"x": _DATA, "z": np.ones((2, 3)), "l": np.ones((1, 3))}, "label term: Z is 2x3"),
    ({"x": _DATA, "z": np.ones((2, 4)), "l": np.ones((2, 4))}, "label term: Z is 2x4"),
], ids=["nan-x", "y-rows", "z-without-l", "l-shape", "z-columns"])
def test_problem_rejects_bad_data(kwargs, match):
    with pytest.raises(ValueError, match=match):
        Problem(**kwargs)


def test_problem_takes_wrapped_arrays_as_they_are():
    x, y, z, mask = _labelled_problem(5, 12, 10)
    terms = [f"t{c}" for c in "abcdefghijkl"]
    p = Problem(CorpusMatrix(x, Vocabulary(terms), [f"d{j}" for j in range(10)], None),
                SeedMatrix(y, terms[:2]), LabelMatrix(z, ["a", "b", "c"]), mask)
    assert p.x is x and p.y is y and p.z is z and p.l is mask.l
    assert p.xx == np.vdot(x, x)
    assert np.array_equal(p.llz, mask.l * mask.l * z)


_WRAPPERS = {
    "corpus": lambda a: CorpusMatrix(a, Vocabulary(["aa", "bb"]), ["d0", "d1", "d2"]),
    "seed": lambda a: SeedMatrix(a, ["aa", "bb", "cc"]),
    "label": lambda a: LabelMatrix(a, ["a", "b"]),
    "mask": lambda a: MaskMatrix(a, [0, 1], [2]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kind", sorted(_WRAPPERS))
def test_wrapper_types_reject_non_finite_arrays(kind, bad):
    a = np.ones((2, 3))
    a[1, 2] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        _WRAPPERS[kind](a)


@pytest.mark.parametrize("copy", [np.asfortranarray, lambda a: a.astype(np.float32)],
                         ids=["fortran", "float32"])
def test_fit_on_a_wrapped_copy_of_x_equals_fit_on_x(copy):
    # float32 values, so the float32 copy holds X exactly
    x = np.random.default_rng(8).random((60, 50)).astype(np.float32).astype(np.float64)
    terms = ["".join(t) for t in product("abcdefgh", repeat=2)][:60]
    corpus = CorpusMatrix(copy(x), Vocabulary(terms), [f"d{j}" for j in range(50)])
    cfg = ModelConfig(rank=4, max_iters=30, rng_seed=1)
    got, want = fit(corpus, cfg), fit(x, cfg)
    assert np.array_equal(got.w, want.w) and np.array_equal(got.h, want.h)
    assert got.objective_trace == want.objective_trace
    assert got.term_trace == want.term_trace


def test_objective_perfect_reconstruction_is_zero():
    w = np.array([[1.0], [2.0]])
    h = np.array([[3.0, 4.0]])
    assert objective(w @ h, w, h) == (0.0, 0.0, 0.0, 0.0)


def _direct_terms(x, w, h, y, b, z, l, c, lam, mu):
    # The loss terms from their definitions, residuals and all.
    recon = 0.5 * np.sum((x - w @ h) ** 2)
    guide = 0.5 * lam * np.sum((y - w @ b) ** 2)
    label = 0.5 * mu * np.sum((l * (z - c @ h)) ** 2)
    return recon, guide, label


@pytest.mark.parametrize("seed", range(10))
def test_objective_matches_direct_formula(seed):
    rng = np.random.default_rng(300 + seed)
    d, n, k = (int(v) for v in rng.integers(2, 40, 3))
    inst = _random_instance(seed, d=d, n=n, k=k, s=3, p=4)
    lam, mu = rng.uniform(0.01, 2.0, 2)
    total, *terms = objective(**inst, lam=lam, mu=mu)
    expected = _direct_terms(**inst, lam=lam, mu=mu)
    for got, want in zip(terms, expected):
        assert got == pytest.approx(want, rel=1e-12)
    assert total == pytest.approx(sum(expected), rel=1e-12)


def test_objective_exact_reconstruction_stays_non_negative():
    # X = W H in floats: the Gram-form expansion cancels to a few ulps of
    # ||X||^2 either side of zero, and the clamp keeps it from going below.
    for seed in range(30):
        rng = np.random.default_rng(seed)
        w = rng.random((50, 4))
        h = rng.random((4, 40))
        x = w @ h
        _, recon, _, _ = objective(x, w, h)
        assert 0.0 <= recon <= 1e-14 * np.sum(x * x), f"seed {seed}: {recon}"


def test_objective_scalar_cases():
    total, recon, guide, label = objective([[4.0]], [[1.0]], [[1.0]])
    assert (total, recon, guide, label) == (4.5, 4.5, 0.0, 0.0)
    total, recon, guide, label = objective(
        [[1.0]], [[1.0]], [[1.0]], y=[[1.0]], b=[[0.0]], lam=1.0
    )
    assert recon == 0.0 and guide == 0.5 and total == 0.5


def test_objective_shape_errors_name_the_term():
    with pytest.raises(ValueError, match="reconstruction term"):
        objective(np.ones((2, 2)), np.ones((3, 1)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="guiding term"):
        objective(np.ones((2, 2)), np.ones((2, 1)), np.ones((1, 2)),
                  y=np.ones((3, 1)), b=np.ones((1, 1)), lam=1.0)
    with pytest.raises(ValueError, match="label term"):
        objective(np.ones((2, 2)), np.ones((2, 1)), np.ones((1, 2)),
                  z=np.ones((1, 3)), l=np.ones((1, 3)), c=np.ones((1, 1)), mu=1.0)
    with pytest.raises(ValueError, match="lam > 0"):
        objective(np.ones((2, 2)), np.ones((2, 1)), np.ones((1, 2)), lam=0.5)


def test_update_step_scalar_fixed_point():
    w = np.array([[1.0]])
    h = np.array([[1.0]])
    x = np.array([[4.0]])
    p, cfg = Problem(x), ModelConfig(rank=1)
    w, h, _, _, _ = update_step(p, cfg, w, h, None, None)
    assert w[0, 0] == pytest.approx(4.0, rel=1e-9)
    w, h, _, _, _ = update_step(p, cfg, w, h, None, None)
    for _ in range(5):
        w, h, _, _, _ = update_step(p, cfg, w, h, None, None)
    assert (w @ h)[0, 0] == pytest.approx(4.0, rel=1e-9)


def test_update_step_preserves_zeros():
    inst = _random_instance(0)
    w, h, b, c = inst["w"].copy(), inst["h"].copy(), inst["b"].copy(), inst["c"].copy()
    w[2, 1] = 0.0
    h[0, 3] = 0.0
    b[1, 0] = 0.0
    c[0, 2] = 0.0
    p = Problem(inst["x"], inst["y"], inst["z"], inst["l"])
    cfg = ModelConfig(rank=3, lam=0.4, mu=0.2)
    for i in range(50):
        w, h, b, c, _ = update_step(p, cfg, w, h, b, c, iteration=i + 1)
        assert w[2, 1] == 0.0 and h[0, 3] == 0.0
        assert b[1, 0] == 0.0 and c[0, 2] == 0.0
        assert np.all(w >= 0) and np.all(h >= 0)
        assert np.all(b >= 0) and np.all(c >= 0)


def test_update_step_lambda_zero_matches_plain_rule():
    inst = _random_instance(1)
    x, w0, h0 = inst["x"], inst["w"], inst["h"]
    eps = 1e-12
    w1, h1, _, _, _ = update_step(Problem(x), ModelConfig(rank=3, eps=eps),
                                  w0.copy(), h0.copy(), None, None)
    w_plain = w0 * ((x @ h0.T) / (w0 @ (h0 @ h0.T) + eps))
    assert np.array_equal(w1, w_plain)
    h_plain = h0 * ((w1.T @ x) / ((w1.T @ w1) @ h0 + eps))
    assert np.array_equal(h1, h_plain)


def test_update_step_floors_a_zero_denominator():
    # The W update divides 1 by a zero denominator, the H update 0 by 0.
    p = Problem(np.ones((1, 1)))
    w, h, _, _, losses = update_step(p, ModelConfig(rank=1, eps=1e-12),
                                     np.zeros((1, 1)), np.ones((1, 1)), None, None)
    # Without the floor, 0 * (1 / 0) and 1 * (0 / 0) would be nan.
    assert w[0, 0] == 0.0 and h[0, 0] == 0.0
    assert losses == (0.5, 0.5, 0.0, 0.0)


@pytest.mark.parametrize("config, match", [
    (ModelConfig(rank=2, lam=0.5), "lam > 0 requires a seed matrix Y"),
    (ModelConfig(rank=2, mu=0.5), "mu > 0 requires a label matrix Z"),
])
def test_update_step_rejects_a_weight_without_its_data(config, match):
    x = np.random.default_rng(0).random((5, 4))
    with pytest.raises(ValueError, match=match):
        update_step(Problem(x), config, np.ones((5, 2)), np.ones((2, 4)), None, None)


def test_update_step_flags_divergence():
    # a denominator poisoned with an inf input turns the ratio into nan
    w = np.array([[1.0]])
    h = np.array([[np.inf]])
    with np.errstate(all="ignore"):
        with pytest.raises(FactorizationError, match="iteration 7"):
            update_step(Problem(np.array([[1.0]])), ModelConfig(rank=1),
                        w, h, None, None, iteration=7)


@pytest.mark.parametrize("lam,mu", [(0.7, 0.3), (0.0, 0.3), (0.7, 0.0)])
def test_gradients_match_finite_differences(lam, mu):
    inst = _random_instance(11)
    x, w, h = inst["x"], inst["w"], inst["h"]
    y, b = (inst["y"], inst["b"]) if lam > 0 else (None, None)
    z, l, c = (inst["z"], inst["l"], inst["c"]) if mu > 0 else (None, None, None)

    def f(w_, h_, b_, c_):
        return objective(x, w_, h_, y, b_, z, l, c_, lam, mu)[0]

    gw, gh, gb, gc = objective_gradients(x, w, h, y, b, z, l, c, lam, mu)
    pairs = [(gw, w, "w"), (gh, h, "h")]
    if lam > 0:
        pairs.append((gb, b, "b"))
    if mu > 0:
        pairs.append((gc, c, "c"))
    delta = 1e-5
    for grad, mat, name in pairs:
        fd = np.zeros_like(mat)
        for idx in np.ndindex(mat.shape):
            plus, minus = mat.copy(), mat.copy()
            plus[idx] += delta
            minus[idx] -= delta
            kw = {"w": w, "h": h, "b": b, "c": c}
            kw[name] = plus
            f_plus = f(kw["w"], kw["h"], kw["b"], kw["c"])
            kw[name] = minus
            f_minus = f(kw["w"], kw["h"], kw["b"], kw["c"])
            fd[idx] = (f_plus - f_minus) / (2 * delta)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4, f"gradient mismatch for {name}: {rel}"


def test_stationary_point_barely_moves():
    # Exact factorization: all four gradients vanish, so one update step
    # changes entries only through the eps floor in the denominators.
    rng = np.random.default_rng(7)
    d, n, k, s, p = 9, 8, 3, 2, 2
    w = rng.uniform(0.5, 1.5, (d, k))
    h = rng.uniform(0.5, 1.5, (k, n))
    b = rng.uniform(0.5, 1.5, (k, s))
    c = rng.uniform(0.5, 1.5, (p, k))
    x = w @ h
    y = w @ b
    z = c @ h
    l = np.ones((p, n))
    gw, gh, gb, gc = objective_gradients(x, w, h, y, b, z, l, c, 0.6, 0.4)
    for g in (gw, gh, gb, gc):
        assert np.max(np.abs(g)) < 1e-10
    w2, h2, b2, c2, _ = update_step(Problem(x, y, z, l),
                                    ModelConfig(rank=k, lam=0.6, mu=0.4), w, h, b, c)
    for before, after in ((w, w2), (h, h2), (b, b2), (c, c2)):
        assert np.max(np.abs(after - before) / before) < 1e-8


def test_fit_requires_supervision_inputs():
    x = np.random.default_rng(0).random((6, 5))
    with pytest.raises(ValueError, match="seed matrix"):
        fit(x, ModelConfig(rank=2, lam=0.1))
    with pytest.raises(ValueError, match="label matrix"):
        fit(x, ModelConfig(rank=2, mu=0.1))
    with pytest.raises(ValueError, match="together"):
        fit(x, ModelConfig(rank=2), z=np.ones((2, 5)))


def test_fit_is_deterministic():
    x = np.random.default_rng(3).random((20, 15))
    cfg = ModelConfig(rank=4, max_iters=40, rng_seed=9)
    a = fit(x, cfg)
    b = fit(x, cfg)
    assert a.objective_trace == b.objective_trace
    assert np.array_equal(a.w, b.w) and np.array_equal(a.h, b.h)


def test_fit_trace_matches_iterations_and_is_monotone():
    rng = np.random.default_rng(4)
    x = rng.random((25, 18))
    y = np.zeros((25, 2))
    y[3, 0] = y[11, 1] = 1.0
    z = np.zeros((3, 18))
    z[rng.integers(0, 3, 18), np.arange(18)] = 1.0
    mask = split_mask(18, 0.7, rng_seed=0, n_classes=3)
    cfg = ModelConfig(rank=4, lam=0.2, mu=0.2, max_iters=60, rng_seed=5)
    res = fit(x, cfg, y=y, z=z, l=mask)
    assert res.iterations == 60
    assert len(res.term_trace) == 60
    trace = np.array(res.objective_trace)
    assert np.all(np.diff(trace) <= trace[:-1] * 1e-9)
    for total, parts in zip(res.objective_trace, res.term_trace):
        assert total == pytest.approx(sum(parts), rel=1e-12)
    # the last trace entry is exactly what objective reports on the result
    assert (res.objective_trace[-1], *res.term_trace[-1]) == objective(
        x, res.w, res.h, y, res.b, z, mask, res.c, cfg.lam, cfg.mu
    )
    assert np.all(res.w >= 0) and np.all(res.h >= 0)
    assert np.all(res.b >= 0) and np.all(res.c >= 0)


def test_every_trace_entry_equals_objective():
    rng = np.random.default_rng(21)
    x = rng.random((20, 16))
    y = np.zeros((20, 2))
    y[2, 0] = y[9, 1] = 1.0
    z = np.zeros((3, 16))
    z[rng.integers(0, 3, 16), np.arange(16)] = 1.0
    mask = split_mask(16, 0.7, rng_seed=1, n_classes=3)
    full = fit(x, ModelConfig(rank=3, lam=0.3, mu=0.2, max_iters=8, rng_seed=6),
               y=y, z=z, l=mask)
    for i in range(1, 9):
        cfg = ModelConfig(rank=3, lam=0.3, mu=0.2, max_iters=i, rng_seed=6)
        res = fit(x, cfg, y=y, z=z, l=mask)
        want = objective(x, res.w, res.h, y, res.b, z, mask, res.c, cfg.lam, cfg.mu)
        assert (full.objective_trace[i - 1], *full.term_trace[i - 1]) == want


def test_fit_checks_each_bare_input_once(monkeypatch):
    rng = np.random.default_rng(4)
    x = rng.random((25, 18))
    y = np.zeros((25, 2))
    y[3, 0] = y[11, 1] = 1.0
    z = np.zeros((3, 18))
    z[rng.integers(0, 3, 18), np.arange(18)] = 1.0
    mask = split_mask(18, 0.7, rng_seed=0, n_classes=3)
    calls = []

    def counting(a):
        calls.append(a)
        return linalg.as_matrix(a)

    monkeypatch.setattr(factorization, "as_matrix", counting)
    for iters in (10, 100):
        calls.clear()
        cfg = ModelConfig(rank=4, lam=0.2, mu=0.2, max_iters=iters, rng_seed=5)
        fit(x, cfg, y=y, z=z, l=mask)
        # X, Y and Z are bare arrays; the mask arrives already checked
        assert [id(a) for a in calls] == [id(x), id(y), id(z)]


def test_fit_loop_allocates_no_d_by_n_temporary():
    rng = np.random.default_rng(11)
    d, n, p = 400, 300, 3
    x = rng.random((d, n))
    y = np.zeros((d, 2))
    y[7, 0] = y[90, 1] = 1.0
    z = np.zeros((p, n))
    z[rng.integers(0, p, n), np.arange(n)] = 1.0
    mask = split_mask(n, 0.7, rng_seed=0, n_classes=p)
    cfg = ModelConfig(rank=5, lam=0.3, mu=0.006, max_iters=20, rng_seed=2)
    tracemalloc.start()
    try:
        fit(x, cfg, y=y, z=z, l=mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * x.nbytes, f"peak {peak / x.nbytes:.2f} d x n arrays"


def test_fit_early_stop_tolerance():
    x = np.random.default_rng(5).random((15, 12))
    eager = fit(x, ModelConfig(rank=3, max_iters=500, rng_seed=1, tol=1e-6))
    full = fit(x, ModelConfig(rank=3, max_iters=500, rng_seed=1))
    assert eager.iterations < full.iterations == 500
    # the early-stopped trace is a prefix of the full one
    assert full.objective_trace[: eager.iterations] == eager.objective_trace


def _labelled_problem(seed, d, n, density=1.0, p=3):
    rng = np.random.default_rng(seed)
    x = rng.random((d, n)) * (rng.random((d, n)) < density)
    x[np.arange(d), rng.integers(0, n, d)] += 1.0  # no empty term row
    y = np.zeros((d, 2))
    y[1, 0] = y[d // 2, 1] = 1.0
    z = np.zeros((p, n))
    z[rng.integers(0, p, n), np.arange(n)] = 1.0
    return x, y, z, split_mask(n, 0.7, rng_seed=seed, n_classes=p)


def _assert_same_fit(got, want):
    assert isinstance(got, FactorizationResult)
    for name in ("w", "h", "b", "c"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.objective_trace == want.objective_trace
    assert got.term_trace == want.term_trace
    assert got.config == want.config


_GRID = [(lam, mu) for lam in (0.0, 0.3) for mu in (0.0, 0.05)]


@pytest.mark.parametrize("d,n,density,rank,iters", [
    (50, 40, 1.0, 2, 30),
    (50, 40, 1.0, 3, 30),
    (600, 700, 0.05, 7, 3),
])
def test_fit_cells_equal_standalone_fit(d, n, density, rank, iters):
    x, y, z, mask = _labelled_problem(rank, d, n, density)
    configs = [ModelConfig(rank=rank, lam=lam, mu=mu, max_iters=iters, rng_seed=4)
               for lam, mu in _GRID]
    for got, config in zip(fit_cells(x, configs, y=y, z=z, l=mask), configs):
        _assert_same_fit(got, fit(x, config, y=y, z=z, l=mask))


def test_fit_cells_without_stacking_still_equal_fit(monkeypatch):
    x, y, z, mask = _labelled_problem(8, 60, 50)
    checked = []

    def mismatch(stacked, singles):
        checked.append(len(stacked))
        return False

    monkeypatch.setattr(factorization, "_blocks_equal", mismatch)
    configs = [ModelConfig(rank=3, lam=lam, mu=mu, max_iters=12, rng_seed=2)
               for lam, mu in _GRID]
    results = fit_cells(x, configs, y=y, z=z, l=mask)
    # one check, on the first iteration; every cell runs alone after it
    assert checked == [4]
    for got, config in zip(results, configs):
        _assert_same_fit(got, fit(x, config, y=y, z=z, l=mask))


def test_fit_cells_stop_each_cell_on_its_own(monkeypatch):
    x, y, z, mask = _labelled_problem(9, 40, 30)
    checks = []
    real = factorization._blocks_equal

    def spy(stacked, singles):
        checks.append((len(stacked), real(stacked, singles)))
        return checks[-1][1]

    monkeypatch.setattr(factorization, "_blocks_equal", spy)
    configs = [
        ModelConfig(rank=3, lam=0.3, mu=0.05, max_iters=60, rng_seed=1),
        ModelConfig(rank=3, lam=0.3, mu=0.05, max_iters=60, rng_seed=1, tol=1e-3),
        ModelConfig(rank=3, lam=0.0, mu=0.05, max_iters=25, rng_seed=1),
        ModelConfig(rank=3, lam=0.3, mu=0.0, max_iters=60, rng_seed=1, tol=1e-2),
    ]
    results = fit_cells(x, configs, y=y, z=z, l=mask)
    stops = [r.iterations for r in results]
    assert len(set(stops)) == 4 and stops[0] == 60
    # Each width the batch ran at was checked once before use, widest
    # first, until a check failed and the cells went on alone.
    widths, passed = zip(*checks)
    assert widths == (4, 3, 2)[: len(checks)]
    assert all(passed[:-1]) and (len(checks) == 3 or not passed[-1])
    for got, config in zip(results, configs):
        _assert_same_fit(got, fit(x, config, y=y, z=z, l=mask))


def test_fit_cells_diverging_cell_leaves_the_batch():
    x, y, z, mask = _labelled_problem(3, 50, 40)
    configs = [ModelConfig(rank=3, lam=lam, mu=0.1, max_iters=20, rng_seed=1)
               for lam in (0.2, 1.7e308, 0.5)]
    with np.errstate(all="ignore"):
        results = fit_cells(x, configs, y=y, z=z, l=mask)
        with pytest.raises(FactorizationError) as alone:
            fit(x, configs[1], y=y, z=z, l=mask)
    assert isinstance(results[1], FactorizationError)
    assert str(results[1]) == str(alone.value)
    assert "iteration" in str(alone.value)
    for i in (0, 2):
        _assert_same_fit(results[i], fit(x, configs[i], y=y, z=z, l=mask))


def test_fit_cells_builds_one_problem(monkeypatch):
    x, y, z, mask = _labelled_problem(6, 30, 20)
    built = []

    class Counting(factorization.Problem):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(factorization, "Problem", Counting)
    configs = [ModelConfig(rank=3, lam=lam, mu=mu, max_iters=5, rng_seed=1, tol=1e-9)
               for lam, mu in _GRID]
    fit_cells(x, configs, y=y, z=z, l=mask)
    assert len(built) == 1


def test_fit_cells_requires_a_shared_start():
    x = np.random.default_rng(0).random((6, 5))
    with pytest.raises(ValueError, match="at least one"):
        fit_cells(x, [])
    with pytest.raises(ValueError, match="share rank and rng_seed"):
        fit_cells(x, [ModelConfig(rank=2), ModelConfig(rank=3)])
    with pytest.raises(ValueError, match="share rank and rng_seed"):
        fit_cells(x, [ModelConfig(rank=2), ModelConfig(rank=2, rng_seed=1)])
    with pytest.raises(ValueError, match="seed matrix"):
        fit_cells(x, [ModelConfig(rank=2), ModelConfig(rank=2, lam=0.1)])


def test_fit_unsupervised_leaves_b_and_c_unset():
    x = np.random.default_rng(6).random((10, 8))
    res = fit(x, ModelConfig(rank=2, max_iters=10))
    assert res.b is None and res.c is None
    losses = res.final_losses
    assert losses["guiding"] == 0.0 and losses["label"] == 0.0


def test_top_keywords_ordering_and_ties():
    vocab = Vocabulary(["alpha", "beta", "gamma"])
    w = np.array([[0.1, 0.5], [0.9, 0.5], [0.5, 0.1]])
    assert top_keywords(w, vocab, 0, 2) == ["beta", "gamma"]
    # column 1 ties alpha/beta at 0.5; alphabetical order breaks it
    assert top_keywords(w, vocab, 1, 2) == ["alpha", "beta"]
    assert sorted(top_keywords(w, vocab, 0, 3)) == ["alpha", "beta", "gamma"]
    with pytest.raises(ValueError, match="topic index"):
        top_keywords(w, vocab, 2, 1)
    with pytest.raises(ValueError, match="n_top"):
        top_keywords(w, vocab, 0, 4)


def test_top_keywords_matches_full_sort_with_ties():
    rng = np.random.default_rng(12)
    terms = [f"t{chr(97 + i % 26)}{chr(97 + i // 26)}" for i in range(60)]
    vocab = Vocabulary(list(rng.permutation(terms)))
    for _ in range(20):
        w = np.round(rng.random((60, 3)), 1)  # coarse weights: many ties
        w[rng.random(w.shape) < 0.3] = 0.0
        w[:, 2] = 0.0
        for topic in range(3):
            full = sorted(range(60), key=lambda i: (-w[i, topic], vocab.terms[i]))
            for n_top in (1, 7, 30, 60):
                assert top_keywords(w, vocab, topic, n_top) == \
                    [vocab.terms[i] for i in full[:n_top]]


def test_result_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    x = rng.random((12, 9))
    y = np.zeros((12, 2))
    y[1, 0] = y[5, 1] = 1.0
    z = np.zeros((2, 9))
    z[rng.integers(0, 2, 9), np.arange(9)] = 1.0
    mask = split_mask(9, 0.7, rng_seed=2, n_classes=2)
    cfg = ModelConfig(rank=3, lam=0.3, mu=0.2, max_iters=25, rng_seed=3)
    res = fit(x, cfg, y=y, z=z, l=mask)
    save_result(res, tmp_path / "run", doc_ids=[f"d{i}" for i in range(9)],
                label_names=["a", "b"])
    loaded, manifest = load_result(tmp_path / "run")
    assert np.array_equal(loaded.w, res.w)
    assert np.array_equal(loaded.h, res.h)
    assert np.array_equal(loaded.b, res.b)
    assert np.array_equal(loaded.c, res.c)
    assert loaded.objective_trace == res.objective_trace
    assert loaded.term_trace == res.term_trace
    assert loaded.config == cfg
    assert manifest["doc_ids"] == [f"d{i}" for i in range(9)]
    assert manifest["label_names"] == ["a", "b"]
    with pytest.raises(ValueError, match="manifest"):
        load_result(tmp_path / "nowhere")


def test_initial_factors_draw_order_is_stable():
    cfg = ModelConfig(rank=2, rng_seed=77)
    w1, h1, b1, c1 = initial_factors(5, 4, cfg, n_seeds=3, n_classes=2)
    w2, h2, _, _ = initial_factors(5, 4, cfg)
    # W and H coincide whether or not B, C are drawn afterwards
    assert np.array_equal(w1, w2) and np.array_equal(h1, h2)
    assert b1.shape == (2, 3) and c1.shape == (2, 2)
