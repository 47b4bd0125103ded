import builtins
import copy
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from contextlib import ExitStack, redirect_stderr
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gssnmf import cli
from gssnmf.cli import main
from gssnmf.factorization import load_result
from gssnmf.linalg import save_matrix_csv, write_file
from gssnmf.textpipe import load_corpus


@pytest.fixture()
def workspace(tmp_path):
    """Small two-class corpus with labels and seed words on disk."""
    return _make_workspace(tmp_path)


def _make_workspace(tmp_path):
    corpus_dir = tmp_path / "docs"
    corpus_dir.mkdir()
    rng = np.random.default_rng(42)
    class_words = {
        "gang": ["gangx", "crewx", "turfx", "streetx", "colorsx"],
        "theft": ["theftx", "stealx", "storex", "goodsx", "lootx"],
    }
    shared = ["courtx", "trialx", "judgex", "motionx", "briefx", "appealx",
              "recordx", "filingx"]
    labels_lines = []
    for j in range(20):
        cls = "gang" if j % 2 == 0 else "theft"
        pool = class_words[cls] + shared
        tokens = [class_words[cls][0]]
        for _ in range(25):
            tokens.append(pool[int(rng.integers(0, len(pool)))])
        (corpus_dir / f"doc{j:02d}.txt").write_text(" ".join(tokens), "utf-8")
        labels_lines.append(f"doc{j:02d}.txt,{cls}")
    labels_file = tmp_path / "labels.csv"
    labels_file.write_text("\n".join(labels_lines) + "\n", "utf-8")
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("gangx\ntheftx\n", "utf-8")

    corpus_file = tmp_path / "corpus.txt"
    assert main(["ingest", str(corpus_dir), "--out", str(corpus_file)]) == 0
    return {
        "root": tmp_path,
        "corpus_dir": corpus_dir,
        "corpus_file": corpus_file,
        "labels": labels_file,
        "seeds": seeds_file,
    }


def test_ingest_reports_shape(workspace, capsys):
    out = workspace["root"] / "again.txt"
    assert main(["ingest", str(workspace["corpus_dir"]), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "terms=" in stdout and "documents=20" in stdout and "density=" in stdout
    corpus = load_corpus(out)
    assert corpus.n_docs == 20


def test_ingest_empty_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["ingest", str(empty), "--out", str(tmp_path / "c.txt")])
    assert code == 2
    assert "no documents" in capsys.readouterr().err


def test_ingest_accepts_df_and_feature_flags(workspace):
    out = workspace["root"] / "filtered.txt"
    code = main([
        "ingest", str(workspace["corpus_dir"]), "--out", str(out),
        "--max-df", "0.8", "--min-df", "0.04", "--max-features", "700",
    ])
    assert code == 0
    corpus = load_corpus(out)
    assert corpus.n_terms <= 700


def test_ingest_into_its_own_corpus_dir_is_repeatable(workspace, capsys):
    docs = workspace["corpus_dir"]
    out = docs / "corpus.txt"
    summaries, files = [], []
    for _ in range(2):
        capsys.readouterr()
        assert main(["ingest", str(docs), "--out", str(out)]) == 0
        summaries.append(capsys.readouterr().out.splitlines()[0])
        files.append(out.read_bytes())
    assert summaries[0] == summaries[1]
    assert "documents=20" in summaries[0]
    assert files[0] == files[1]
    assert "corpus.txt" not in load_corpus(out).doc_ids
    # A hard link to the output is the output, not a document.
    os.link(out, docs / "linked.txt")
    assert main(["ingest", str(docs), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == summaries[0]
    assert out.read_bytes() == files[0]


def test_ingest_leaves_out_a_stopword_file_in_its_corpus_dir(workspace):
    docs = workspace["corpus_dir"]
    (docs / "stop.txt").write_text("courtx\n", "utf-8")
    out = workspace["root"] / "stopped.txt"
    assert main(["ingest", str(docs), "--out", str(out),
                 "--stopwords", str(docs / "stop.txt")]) == 0
    corpus = load_corpus(out)
    assert corpus.n_docs == 20 and "stop.txt" not in corpus.doc_ids
    assert "courtx" not in corpus.vocab.terms


def test_ingest_checks_flags_before_reading_the_stopword_file(workspace, capsys):
    out = workspace["root"] / "c.txt"
    capsys.readouterr()
    assert main(["ingest", str(workspace["corpus_dir"]), "--out", str(out),
                 "--stopwords", str(workspace["root"] / "missing.txt"),
                 "--max-df", "2"]) == 2
    assert capsys.readouterr().err == "error: max_df must be in (0, 1], got 2.0\n"
    assert not out.exists()


def test_rank_scan_known_spectrum(tmp_path):
    # corpus file written directly around a diagonal-like matrix
    from gssnmf.textpipe import CorpusMatrix, Vocabulary, save_corpus

    x = np.diag([3.0, 2.0, 1.0])
    corpus = CorpusMatrix(x, Vocabulary(["aa", "bb", "cc"]), ["d1", "d2", "d3"])
    corpus_file = tmp_path / "diag.txt"
    save_corpus(corpus, corpus_file)
    out = tmp_path / "spectrum.csv"
    assert main(["rank-scan", str(corpus_file), "--top", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text("utf-8").splitlines()
    assert lines[0] == "index,singular_value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([3.0, 2.0, 1.0], rel=1e-6)
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]


def test_rank_scan_default_top_is_20(tmp_path):
    from gssnmf.textpipe import CorpusMatrix, Vocabulary, save_corpus

    rng = np.random.default_rng(0)
    terms = sorted("t" + "".join(c) for c in
                   __import__("itertools").product("abcde", repeat=2))
    x = rng.random((25, 22))
    corpus = CorpusMatrix(x, Vocabulary(terms), [f"d{i}" for i in range(22)])
    corpus_file = tmp_path / "c.txt"
    save_corpus(corpus, corpus_file)
    out = tmp_path / "s.csv"
    assert main(["rank-scan", str(corpus_file), "--out", str(out)]) == 0
    assert len(out.read_text("utf-8").splitlines()) == 21  # header + 20


def test_rank_scan_top_out_of_range_exits_2(workspace, capsys):
    code = main(["rank-scan", str(workspace["corpus_file"]), "--top", "999",
                 "--out", str(workspace["root"] / "s.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --top must be <= min(terms, documents) = 18 of "
        f"{workspace['corpus_file']}, got 999\n")


def test_factorize_classical_runs(workspace):
    out = workspace["root"] / "plain"
    code = main(["factorize", str(workspace["corpus_file"]), "--out", str(out),
                 "--rank", "2", "--max-iters", "30"])
    assert code == 0
    result, manifest = load_result(out)
    assert result.b is None and result.c is None
    assert result.iterations == 30
    assert manifest["doc_ids"][0] == "doc00.txt"
    assert not (out / "mask.json").exists()


def test_factorize_mu_without_labels_exits_2(workspace, capsys):
    code = main(["factorize", str(workspace["corpus_file"]),
                 "--out", str(workspace["root"] / "x"),
                 "--rank", "2", "--mu", "0.001"])
    assert code == 2
    assert "--labels" in capsys.readouterr().err


def test_factorize_lambda_without_seeds_exits_2(workspace, capsys):
    code = main(["factorize", str(workspace["corpus_file"]),
                 "--out", str(workspace["root"] / "x"),
                 "--rank", "2", "--lambda", "0.3"])
    assert code == 2
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--eps=nan", "--tol=nan", "--lambda=inf", "--mu=-inf"])
def test_factorize_rejects_non_finite_settings(workspace, capsys, flag):
    out = workspace["root"] / "non_finite"
    code = main(["factorize", str(workspace["corpus_file"]), "--out", str(out),
                 "--rank", "2", "--max-iters", "5", flag])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert not out.exists()


def test_factorize_missing_rank_exits_2(workspace, capsys):
    code = main(["factorize", str(workspace["corpus_file"]),
                 "--out", str(workspace["root"] / "x")])
    assert code == 2
    assert "--rank" in capsys.readouterr().err


def test_factorize_and_classify_full_model(workspace, capsys):
    out = workspace["root"] / "model"
    code = main([
        "factorize", str(workspace["corpus_file"]), "--out", str(out),
        "--rank", "2", "--lambda", "0.3", "--mu", "0.1",
        "--max-iters", "60", "--seeds", str(workspace["seeds"]),
        "--labels", str(workspace["labels"]), "--split-seed", "1",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "final losses" in stdout and "iterations=60" in stdout
    result, manifest = load_result(out)
    assert result.b is not None and result.c is not None
    assert manifest["label_names"] == ["gang", "theft"]

    report_path = workspace["root"] / "report.json"
    code = main(["classify", str(out), str(workspace["labels"]),
                 str(out / "mask.json"), "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text("utf-8"))
    assert report["label_names"] == ["gang", "theft"]
    assert 0.0 <= report["macro_f1"] <= 1.0
    assert len(report["per_class_f1"]) == 2
    # two cleanly separated classes with anchors should classify well
    assert report["macro_f1"] > 0.6


def test_classify_perfect_recovery_scores_one(workspace, tmp_path):
    # hand-built factors whose product reproduces the labels exactly
    from gssnmf.factorization import FactorizationResult, ModelConfig, save_result
    from gssnmf.supervision import (build_label_matrix, load_label_assignments,
                                    save_mask, split_mask)

    assignments = load_label_assignments(workspace["labels"])
    doc_ids = sorted(assignments)
    labels = build_label_matrix(assignments, doc_ids)
    p, n = labels.z.shape
    d = 5
    c = np.eye(p)
    h = labels.z.copy()
    w = np.ones((d, p))
    result = FactorizationResult(
        w=w, h=h, b=None, c=c,
        objective_trace=[1.0], term_trace=[(1.0, 0.0, 0.0)],
        config=ModelConfig(rank=p, mu=0.1, max_iters=1),
    )
    model = tmp_path / "exact"
    save_result(result, model, doc_ids=doc_ids, label_names=labels.label_names)
    mask = split_mask(n, 0.7, rng_seed=0, n_classes=p)
    save_mask(mask, model / "mask.json")
    report_path = tmp_path / "perfect.json"
    assert main(["classify", str(model), str(workspace["labels"]),
                 str(model / "mask.json"), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text("utf-8"))
    assert report["macro_f1"] == 1.0
    assert report["per_class_f1"] == [1.0, 1.0]


@pytest.mark.parametrize("names", [("alpha", "beta"), ("zeta", "alpha")])
def test_classify_labels_of_other_classes_exit_2(workspace, tmp_path, capsys, names):
    # Classes of other names would score C's rows as the wrong classes:
    # as row names in the same order, or in the other order.
    out = workspace["root"] / "model_classes"
    assert main(["factorize", str(workspace["corpus_file"]), "--out", str(out),
                 "--rank", "2", "--mu", "0.1", "--max-iters", "5",
                 "--labels", str(workspace["labels"])]) == 0
    renamed = tmp_path / "renamed.csv"
    text = workspace["labels"].read_text("utf-8")
    renamed.write_text(text.replace(",gang", f",{names[0]}")
                       .replace(",theft", f",{names[1]}"), "utf-8")
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main(["classify", str(out), str(renamed), str(out / "mask.json"),
                 "--out", str(report)]) == 2
    assert capsys.readouterr().err == (
        f"error: {renamed}: classes {sorted(names)}, but {out} was fit on "
        "['gang', 'theft']\n")
    assert not report.exists()


def test_sweep_error_identifies_failing_cell(workspace, tmp_path, capsys):
    # lambda near the float maximum makes its cell's W update overflow
    args = [
        "sweep", str(workspace["corpus_file"]), str(workspace["labels"]),
        str(workspace["seeds"]),
        "--out", str(tmp_path / "s.csv"),
        "--ranks", "2", "--lambda-grid", "0.1,1.7e308", "--mu-grid", "0.05",
        "--trials", "1", "--max-iters", "5",
        "--metric", "avg_coherence", "--n-top", "5",
    ]
    with np.errstate(all="ignore"):
        assert main(args) == 1
    err = capsys.readouterr().err
    assert err == ("error: sweep cell (rank=2, lambda=1.7e+308, mu=0.05, trial=0): "
                   "update diverged at iteration 2: non-finite entries in W\n")


@pytest.mark.parametrize("command", ["sweep-1", "sweep-2", "factorize"])
def test_a_diverging_fit_prints_one_error_line(workspace, tmp_path, monkeypatch,
                                                capsys, command):
    # lambda near the float maximum makes the W update overflow. main runs
    # at numpy's default error state; a numpy warning, printed, would be a
    # line of its own.
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    if command == "factorize":
        args = ["factorize", str(workspace["corpus_file"]), "--out",
                str(tmp_path / "model"), "--rank", "2", "--lambda", "1.7e308",
                "--seeds", str(workspace["seeds"])]
    else:
        args = _sweep_args(workspace, tmp_path, extra=(
            "--ranks", "2", "--lambda-grid", "0.1,1.7e308", "--mu-grid", "0.05",
            "--trials", "1", "--jobs", command[-1]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.endswith("update diverged at iteration 2: non-finite entries in W\n")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_factorize_with_a_non_finite_loss_exits_1_and_writes_nothing(
        workspace, tmp_path, capsys):
    # Four seed words at lambda near the float maximum: one iteration's
    # factors are finite, but the guiding term of its loss overflows.
    seeds, out = tmp_path / "four-seeds.txt", tmp_path / "model"
    seeds.write_text("gangx\ncrewx\ntheftx\nstealx\n", "utf-8")
    with np.errstate(all="ignore"):
        assert main(["factorize", str(workspace["corpus_file"]), "--out", str(out),
                     "--rank", "3", "--lambda", "1.7e308", "--seeds", str(seeds),
                     "--max-iters", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: update diverged at iteration 1: non-finite loss\n")
    assert not out.exists()


def test_classify_without_label_supervision_exits_2(workspace, capsys):
    out = workspace["root"] / "plain2"
    assert main(["factorize", str(workspace["corpus_file"]), "--out", str(out),
                 "--rank", "2", "--max-iters", "10"]) == 0
    # hand it a valid mask anyway
    model = workspace["root"] / "model_for_mask"
    assert main([
        "factorize", str(workspace["corpus_file"]), "--out", str(model),
        "--rank", "2", "--mu", "0.1", "--max-iters", "10",
        "--labels", str(workspace["labels"]),
    ]) == 0
    code = main(["classify", str(out), str(workspace["labels"]),
                 str(model / "mask.json")])
    assert code == 2
    assert "not label-supervised" in capsys.readouterr().err


def _config(**items):
    """A manifest edit: the config with ``items`` set, a None value removed."""
    def mangle(m):
        config = {**m["config"], **items}
        return {**m, "config": {k: v for k, v in config.items() if v is not None}}
    return mangle


# Each mangle with the config key its message names, or None.
@pytest.mark.parametrize("mangle, key", [
    (_config(bogus=1), "bogus"),  # unknown key
    (lambda m: {k: v for k, v in m.items() if k != "config"}, None),  # missing key
    (lambda m: [m], None),  # not a JSON object
    (lambda m: {**m, "doc_ids": 5}, None),  # doc_ids not a list
    (_config(rng_seed=-1), "rng_seed"),
    # Counts that compare equal to an integer but are not JSON integers.
    (lambda m: {**m, "iterations_run": float(m["iterations_run"])}, None),
    (_config(rank=2.0), "rank"),
    (_config(max_iters=5.0), "max_iters"),
    (_config(rng_seed=0.0), "rng_seed"),
    (_config(rank=True), "rank"),
    # Weights that are not JSON numbers.
    (_config(lam=True), "lam"),
    (_config(mu=False), "mu"),
    (_config(eps=True), "eps"),
    (_config(tol=False), "tol"),
    (_config(lam="0.3"), "lam"),
    (_config(rank=None), "rank"),
    # Forms read_form passes and ModelConfig refuses.
    (_config(rank=0), "rank"),
    (_config(max_iters=0), "max_iters"),
    (_config(eps=0), "eps"),
    (_config(tol=math.nan), "tol"),
    (_config(lam=-1), None),  # names both weights
], ids=["unknown-config-key", "missing-config", "list", "doc-ids-not-list",
        "negative-rng-seed", "iterations-run-float", "rank-float", "max-iters-float",
        "rng-seed-float", "rank-bool", "lam-bool", "mu-bool", "eps-bool", "tol-bool",
        "lam-string", "missing-rank", "rank-zero", "max-iters-zero", "eps-zero",
        "tol-nan", "lam-negative"])
def test_bad_manifest_exits_2_naming_it(workspace, capsys, mangle, key):
    out = workspace["root"] / "model_bad_manifest"
    assert main([
        "factorize", str(workspace["corpus_file"]), "--out", str(out),
        "--rank", "2", "--mu", "0.1", "--max-iters", "5",
        "--labels", str(workspace["labels"]),
    ]) == 0
    path = out / "manifest.json"
    path.write_text(json.dumps(mangle(json.loads(path.read_text("utf-8")))),
                    "utf-8")
    capsys.readouterr()
    for argv in (["coherence", str(out), str(workspace["corpus_file"])],
                 ["classify", str(out), str(workspace["labels"]),
                  str(out / "mask.json")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        if key is not None:
            assert err.startswith(f"error: {path}: invalid config: {key}")


def test_classify_manifest_without_doc_ids_exits_2(pristine, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(pristine / "model", model)
    path = model / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text("utf-8")), "doc_ids": None}),
                    "utf-8")
    capsys.readouterr()
    assert main(["classify", str(model), str(pristine / "labels.csv"),
                 str(model / "mask.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {model}: manifest carries no document ids; "
        "re-run factorize on the corpus\n")


@pytest.mark.parametrize("key,value", [
    ("n_classes", 10**15), ("n_classes", 0), ("n_docs", 10**15),
])
def test_classify_mask_of_other_shape_exits_2_naming_it(workspace, capsys, key, value):
    out = workspace["root"] / "model_bad_mask"
    assert main([
        "factorize", str(workspace["corpus_file"]), "--out", str(out),
        "--rank", "2", "--mu", "0.1", "--max-iters", "5",
        "--labels", str(workspace["labels"]),
    ]) == 0
    path = out / "mask.json"
    path.write_text(json.dumps({**json.loads(path.read_text("utf-8")), key: value}),
                    "utf-8")
    capsys.readouterr()
    assert main(["classify", str(out), str(workspace["labels"]), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_bad_trace_number_exits_2_naming_file_and_line(workspace, capsys):
    out = workspace["root"] / "model_bad_trace"
    assert main([
        "factorize", str(workspace["corpus_file"]), "--out", str(out),
        "--rank", "2", "--max-iters", "5",
    ]) == 0
    path = out / "trace.csv"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("1,abc,2,3,4\n")
    capsys.readouterr()
    # header on line 1, five iterations on lines 2-6, the bad row on line 7
    assert main(["coherence", str(out), str(workspace["corpus_file"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{path}:7: bad number" in err and "'abc'" in err


def test_classify_degenerate_scores_is_deterministic(workspace, tmp_path):
    out = workspace["root"] / "model3"
    assert main([
        "factorize", str(workspace["corpus_file"]), "--out", str(out),
        "--rank", "2", "--mu", "0.1", "--max-iters", "10",
        "--labels", str(workspace["labels"]),
    ]) == 0
    # zero out H: thresholding must fall back to the row-order tie-break
    result, _ = load_result(out)
    save_matrix_csv(np.zeros_like(result.h), out / "h.csv")
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    for path in (r1, r2):
        assert main(["classify", str(out), str(workspace["labels"]),
                     str(out / "mask.json"), "--out", str(path)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_coherence_command(workspace):
    out = workspace["root"] / "model4"
    assert main([
        "factorize", str(workspace["corpus_file"]), "--out", str(out),
        "--rank", "2", "--max-iters", "40",
    ]) == 0
    report_path = workspace["root"] / "coherence.json"
    code = main(["coherence", str(out), str(workspace["corpus_file"]),
                 "--n-top", "5", "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text("utf-8"))
    assert len(report["per_topic_coherence"]) == 2
    assert len(report["topics"]) == 2 and len(report["topics"][0]) == 5
    assert report["avg_coherence"] == pytest.approx(
        sum(report["per_topic_coherence"]) / 2
    )


def test_coherence_rank_one_average_equals_single_topic(workspace):
    out = workspace["root"] / "model5"
    assert main([
        "factorize", str(workspace["corpus_file"]), "--out", str(out),
        "--rank", "1", "--max-iters", "20",
    ]) == 0
    report_path = workspace["root"] / "c1.json"
    assert main(["coherence", str(out), str(workspace["corpus_file"]),
                 "--n-top", "4", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text("utf-8"))
    assert report["avg_coherence"] == report["per_topic_coherence"][0]


def test_coherence_checks_w_once(workspace, monkeypatch):
    from gssnmf import linalg

    out = workspace["root"] / "model6"
    assert main(["factorize", str(workspace["corpus_file"]), "--out", str(out),
                 "--rank", "3", "--max-iters", "10"]) == 0
    w_shape = load_result(out)[0].w.shape
    checked = []

    def spy(name):
        real = getattr(linalg, name)

        def check(*args, **kwargs):
            got = real(*args, **kwargs)
            checked.append((name, got.shape))
            return got

        return check

    for module_name, module in list(sys.modules.items()):
        for name in ("as_matrix", "read_rows"):
            if module_name.startswith("gssnmf.") and hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name))
    assert main(["coherence", str(out), str(workspace["corpus_file"]),
                 "--n-top", "4"]) == 0
    # W is checked where it is read, and not again for its keywords.
    assert [name for name, shape in checked if shape == w_shape] == ["read_rows"]


@pytest.mark.parametrize("rows", ["negative", "vocab+2"])
def test_corpus_header_shape_mismatch_exits_2_naming_line_1(
    workspace, tmp_path, capsys, rows
):
    lines = workspace["corpus_file"].read_text("utf-8").splitlines(keepends=True)
    header = json.loads(lines[0])
    header["rows"] = -3 if rows == "negative" else len(header["vocab"]) + 2
    bad = tmp_path / "bad"
    bad.mkdir()
    corpus_file = bad / "corpus.txt"
    corpus_file.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), "utf-8")
    code = main(["rank-scan", str(corpus_file), "--out", str(bad / "rank.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "corpus.txt:1:" in err
    assert not (bad / "rank.csv").exists()


def test_coherence_corpus_mismatch_exits_2(workspace, tmp_path, capsys):
    out = workspace["root"] / "model6"
    assert main([
        "factorize", str(workspace["corpus_file"]), "--out", str(out),
        "--rank", "2", "--max-iters", "10",
    ]) == 0
    from gssnmf.textpipe import CorpusMatrix, Vocabulary, save_corpus

    other = CorpusMatrix(np.eye(2), Vocabulary(["aa", "bb"]), ["x", "y"])
    other_file = tmp_path / "other.txt"
    save_corpus(other, other_file)
    code = main(["coherence", str(out), str(other_file), "--n-top", "2"])
    assert code == 2
    assert "mismatch" in capsys.readouterr().err


def test_config_file_supplies_flags_and_cli_overrides(workspace):
    config_path = workspace["root"] / "config.json"
    config_path.write_text(json.dumps({
        "rank": 2, "lambda": 0.0, "mu": 0.0, "max-iters": 15, "rng-seed": 3,
    }), "utf-8")
    out1 = workspace["root"] / "cfg1"
    assert main(["factorize", str(workspace["corpus_file"]), "--out", str(out1),
                 "--config", str(config_path)]) == 0
    result, _ = load_result(out1)
    assert result.iterations == 15 and result.config.rank == 2

    # explicit flag beats the config value
    out2 = workspace["root"] / "cfg2"
    assert main(["factorize", str(workspace["corpus_file"]), "--out", str(out2),
                 "--config", str(config_path), "--max-iters", "5"]) == 0
    result, _ = load_result(out2)
    assert result.iterations == 5


def test_config_file_rejects_unknown_keys(workspace, capsys):
    config_path = workspace["root"] / "bad.json"
    config_path.write_text(json.dumps({"wat": 1}), "utf-8")
    code = main(["factorize", str(workspace["corpus_file"]),
                 "--out", str(workspace["root"] / "x"),
                 "--config", str(config_path)])
    assert code == 2
    assert "unknown config key 'wat'" in capsys.readouterr().err


def test_config_file_rejects_a_positional_key(workspace, capsys):
    # A default would never fill the positional: the command line's
    # corpus file would be fitted and the key silently ignored.
    config_path = workspace["root"] / "positional.json"
    config_path.write_text(json.dumps({
        "corpus-file": "nonexistent.txt", "rank": 2, "max-iters": 2,
    }), "utf-8")
    out = workspace["root"] / "positional"
    code = main(["factorize", str(workspace["corpus_file"]), "--out", str(out),
                 "--config", str(config_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'corpus-file' names a positional")
    assert not out.exists()


def test_config_file_supplies_required_flags_and_cli_overrides(workspace, tmp_path):
    config_path = tmp_path / "required.json"
    config_path.write_text(json.dumps({
        "out": str(tmp_path / "cfg"), "rank": 2, "max-iters": 5,
    }), "utf-8")
    argv = ["factorize", str(workspace["corpus_file"]), "--config", str(config_path)]
    assert main(argv) == 0
    assert load_result(tmp_path / "cfg")[0].config.rank == 2

    # explicit required flags beat the config values
    assert main([*argv, "--out", str(tmp_path / "flag"), "--rank", "3"]) == 0
    assert load_result(tmp_path / "flag")[0].config.rank == 3


def test_config_file_rejects_bad_values(workspace, capsys):
    config_path = workspace["root"] / "bad.json"
    config_path.write_text(json.dumps({"rank": "seven"}), "utf-8")
    code = main(["factorize", str(workspace["corpus_file"]),
                 "--out", str(workspace["root"] / "x"),
                 "--config", str(config_path)])
    assert code == 2
    assert "config key 'rank'" in capsys.readouterr().err

    config_path.write_text(json.dumps({"ranks": "a,b"}), "utf-8")
    code = main(["sweep", str(workspace["corpus_file"]),
                 str(workspace["labels"]), str(workspace["seeds"]),
                 "--out", str(workspace["root"] / "s.csv"),
                 "--lambda-grid", "0.1", "--mu-grid", "0.1",
                 "--config", str(config_path)])
    assert code == 2
    assert "config key 'ranks'" in capsys.readouterr().err

    config_path.write_text(json.dumps({"rank": [2]}), "utf-8")
    code = main(["factorize", str(workspace["corpus_file"]),
                 "--out", str(workspace["root"] / "x"),
                 "--config", str(config_path)])
    assert code == 2
    assert "scalar" in capsys.readouterr().err


def test_config_file_accepts_json_lists_for_grids(workspace, tmp_path):
    config_path = workspace["root"] / "grids.json"
    config_path.write_text(json.dumps({
        "ranks": [2], "lambda-grid": [0.0, 0.3], "mu-grid": [0.05],
        "trials": 2, "base-seed": 9, "max-iters": 15,
    }), "utf-8")
    out = tmp_path / "sweep.csv"
    code = main(["sweep", str(workspace["corpus_file"]),
                 str(workspace["labels"]), str(workspace["seeds"]),
                 "--out", str(out), "--config", str(config_path)])
    assert code == 0
    lines = out.read_text("utf-8").splitlines()
    assert len(lines) == 1 + 1 * 2 * 1 * 2


def test_config_file_for_ingest(workspace, tmp_path):
    config_path = workspace["root"] / "ingest.json"
    config_path.write_text(json.dumps({"max-features": 6, "max-df": 0.9}),
                           "utf-8")
    out = tmp_path / "capped.txt"
    code = main(["ingest", str(workspace["corpus_dir"]), "--out", str(out),
                 "--config", str(config_path)])
    assert code == 0
    corpus = load_corpus(out)
    assert corpus.n_terms <= 6


def _sweep_args(ws, out_dir, extra=()):
    return [
        "sweep", str(ws["corpus_file"]), str(ws["labels"]), str(ws["seeds"]),
        "--out", str(out_dir / "sweep.csv"),
        "--out-mean", str(out_dir / "sweep.mean.csv"),
        "--ranks", "2", "--lambda-grid", "0,0.3", "--mu-grid", "0.05,0.1",
        "--trials", "2", "--base-seed", "9", "--max-iters", "20",
        *extra,
    ]


def test_sweep_row_counts_and_sorting(workspace, tmp_path):
    out_dir = tmp_path / "sweep"
    out_dir.mkdir()
    assert main(_sweep_args(workspace, out_dir)) == 0
    lines = (out_dir / "sweep.csv").read_text("utf-8").splitlines()
    assert lines[0] == "rank,lambda,mu,trial,metric_value"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 1 * 2 * 2 * 2
    keys = [(int(r[0]), float(r[1]), float(r[2]), int(r[3])) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert 0.0 <= float(r[4]) <= 1.0

    mean_lines = (out_dir / "sweep.mean.csv").read_text("utf-8").splitlines()
    assert mean_lines[0] == "rank,lambda,mu,mean_metric_value"
    assert len(mean_lines) == 1 + 4
    by_cell = {}
    for r in rows:
        by_cell.setdefault((r[0], r[1], r[2]), []).append(float(r[4]))
    for line in mean_lines[1:]:
        rank, lam, mu, mean = line.split(",")
        vals = by_cell[(rank, lam, mu)]
        assert float(mean) == pytest.approx(sum(vals) / len(vals), abs=1e-15)


def test_sweep_single_cell_rerun_reproduces_rows(workspace, tmp_path):
    full_dir = tmp_path / "full"
    full_dir.mkdir()
    assert main(_sweep_args(workspace, full_dir)) == 0
    full_rows = (full_dir / "sweep.csv").read_text("utf-8").splitlines()[1:]

    cell_dir = tmp_path / "cell"
    cell_dir.mkdir()
    args = [
        "sweep", str(workspace["corpus_file"]), str(workspace["labels"]),
        str(workspace["seeds"]),
        "--out", str(cell_dir / "sweep.csv"),
        "--ranks", "2", "--lambda-grid", "0.3", "--mu-grid", "0.1",
        "--trials", "2", "--base-seed", "9", "--max-iters", "20",
    ]
    assert main(args) == 0
    cell_rows = (cell_dir / "sweep.csv").read_text("utf-8").splitlines()[1:]
    wanted = [r for r in full_rows if r.startswith("2,0.3,0.1,")]
    assert cell_rows == wanted


def test_sweep_parallel_matches_serial(workspace, tmp_path):
    serial = tmp_path / "serial"
    serial.mkdir()
    parallel = tmp_path / "parallel"
    parallel.mkdir()
    assert main(_sweep_args(workspace, serial)) == 0
    assert main(_sweep_args(workspace, parallel, extra=("--jobs", "2"))) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()
    assert (serial / "sweep.mean.csv").read_bytes() == \
        (parallel / "sweep.mean.csv").read_bytes()


@pytest.mark.parametrize("jobs,metric,tol", [
    pytest.param("1", "avg_coherence", 0.0, id="1"),
    pytest.param("2", "avg_coherence", 0.0, id="2"),
    pytest.param("1", "avg_coherence", 3e-3, id="tol-1"),
    pytest.param("2", "avg_coherence", 3e-3, id="tol-2"),
    pytest.param("1", "macro_f1", 0.0, id="macro_f1-1"),
    pytest.param("2", "macro_f1", 3e-3, id="macro_f1-tol-2"),
])
def test_sweep_coherence_rows_equal_public_api(workspace, tmp_path, jobs, metric, tol):
    from gssnmf.evaluation import (avg_coherence, coherence, macro_f1,
                                   threshold_predictions)
    from gssnmf.factorization import ModelConfig, fit, top_keywords
    from gssnmf.supervision import (build_label_matrix, build_seed_matrix,
                                    load_label_assignments, load_seed_words,
                                    split_mask)
    from gssnmf.textpipe import doc_token_sets

    assert main(_sweep_args(workspace, tmp_path, extra=(
        "--metric", metric, "--n-top", "5", "--jobs", jobs, "--tol", repr(tol),
    ))) == 0
    corpus = load_corpus(workspace["corpus_file"])
    seeds = build_seed_matrix(load_seed_words(workspace["seeds"]), corpus.vocab)
    labels = build_label_matrix(load_label_assignments(workspace["labels"]),
                                corpus.doc_ids)
    sets = doc_token_sets(corpus)
    rows = (tmp_path / "sweep.csv").read_text("utf-8").splitlines()[1:]
    assert len(rows) == 8
    stops = {}
    for row in rows:
        rank, lam, mu, trial, value = row.split(",")
        rank, lam, mu, trial = int(rank), float(lam), float(mu), int(trial)
        mask = split_mask(corpus.n_docs, 0.7, 9 + trial, len(labels.label_names))
        config = ModelConfig(rank=rank, lam=lam, mu=mu, max_iters=20,
                             rng_seed=9 + trial, tol=tol)
        result = fit(corpus.x, config, y=seeds.y, z=labels.z, l=mask)
        stops.setdefault((rank, trial), set()).add(result.iterations)
        if metric == "macro_f1":
            truth = labels.z[:, mask.test_ids]
            preds = threshold_predictions((result.c @ result.h)[:, mask.test_ids],
                                          [int(v) for v in truth.sum(axis=0)])
            want, _ = macro_f1(preds, truth)
        else:
            want = avg_coherence([
                coherence(top_keywords(result.w, corpus.vocab, t, 5), sets)
                for t in range(rank)
            ])
        assert value == repr(want)
    if tol:
        # the cells of each (rank, trial) group stop at different iterations
        assert all(len(its) > 1 for its in stops.values())


def test_sweep_reports_first_failing_cell_across_groups(workspace, tmp_path,
                                                        monkeypatch, capsys):
    from gssnmf import cli
    from gssnmf.factorization import FactorizationError

    real = cli.fit_cells
    # (lambda, mu, trial) of two failing cells in different (rank, trial)
    # groups; the later group holds the first failing cell in row order.
    failing = {(0.3, 0.1, 0), (0.0, 0.1, 1)}

    def failing_fit_cells(x, configs, **kwargs):
        out = real(x, configs, **kwargs)
        return [FactorizationError(f"diverged ({c.lam}, {c.mu})")
                if (c.lam, c.mu, c.rng_seed - 9) in failing else r
                for c, r in zip(configs, out)]

    monkeypatch.setattr(cli, "fit_cells", failing_fit_cells)
    assert main(_sweep_args(workspace, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err == ("error: sweep cell (rank=2, lambda=0.0, mu=0.1, trial=1): "
                   "diverged (0.0, 0.1)\n")
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_stops_at_the_first_failing_batch(workspace, tmp_path, monkeypatch,
                                                 capsys):
    # Two serial batches, rank 2 then rank 3, each with a cell whose W
    # update overflows; the first batch's failure ends the sweep.
    real, fitted = cli.fit_cells, []

    def counting(*args, **kwargs):
        fitted.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_cells", counting)
    monkeypatch.setattr(cli, "_BATCH_WIDTH", 6)
    errors = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        out.mkdir()
        args = _sweep_args(workspace, out, extra=(
            "--ranks", "2,3", "--lambda-grid", "0.1,1.7e308", "--mu-grid", "0.05",
            "--trials", "1", "--max-iters", "5", "--jobs", jobs))
        with np.errstate(all="ignore"):
            assert main(args) == 1
        errors.append(capsys.readouterr().err)
        assert list(out.iterdir()) == []
        if jobs == "1":
            assert fitted == [2]
    assert errors[0] == errors[1] == (
        "error: sweep cell (rank=2, lambda=1.7e+308, mu=0.05, trial=0): "
        "update diverged at iteration 2: non-finite entries in W\n")


@pytest.mark.parametrize("workers", ["2", "4"])
def test_sweep_workers_fit_no_batch_after_a_failed_one(workspace, tmp_path, monkeypatch,
                                                       capsys, workers):
    # Twelve one-cell batches of rank 6. The first fails at once and each
    # other one takes 0.3 s, so a worker that keeps fitting after the
    # failure shows in the count of fitted batches. Four workers share
    # the two CPUs of a small host.
    from gssnmf.factorization import FactorizationError

    real = cli.fit_cells

    def failing_first(x, configs, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("fit\n")
        (config,) = configs
        if (config.lam, config.mu, config.rng_seed) == (0.0, 0.0, 9):
            return [FactorizationError("diverged")]
        time.sleep(0.3)
        return real(x, configs, **kwargs)

    monkeypatch.setattr(cli, "fit_cells", failing_first)
    monkeypatch.setattr(cli, "_BATCH_WIDTH", 6)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    errors, fitted = [], []
    for jobs in ("1", workers):
        out, log = tmp_path / jobs, tmp_path / f"{jobs}.log"
        out.mkdir()
        args = _sweep_args(workspace, out, extra=(
            "--ranks", "6", "--lambda-grid", "0,0.3", "--mu-grid", "0,0.006",
            "--trials", "3", "--jobs", jobs))
        assert main(args) == 1
        errors.append(capsys.readouterr().err)
        fitted.append(len(log.read_text("utf-8").splitlines()))
        assert list(out.iterdir()) == []
    assert errors[0] == errors[1] == (
        "error: sweep cell (rank=6, lambda=0.0, mu=0.0, trial=0): diverged\n")
    # The serial sweep stops at the failure; each worker may finish the
    # batch it holds.
    assert fitted[0] == 1
    assert fitted[1] <= int(workers)


@pytest.mark.parametrize("flags", [
    ("--out-mean", "{out}/sweep.csv"),
    ("--out-mean", "{out}/./sweep.csv"),
    ("--best-by-lambda", "{out}/sweep.mean.csv"),
])
def test_sweep_outputs_naming_one_file_exit_2_before_any_input(
        workspace, tmp_path, monkeypatch, capsys, flags):
    def no_read(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr(cli, "load_corpus", no_read)
    monkeypatch.setattr(cli, "fit_cells", no_read)
    out = tmp_path / "out"
    out.mkdir()
    (out / "sweep.csv").write_bytes(b"old rows\n")
    flag, path = flags[0], flags[1].format(out=out)
    assert main(_sweep_args(workspace, out, extra=(flag, path))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} and --") and "the same file" in err, err
    assert sorted(p.name for p in out.iterdir()) == ["sweep.csv"]
    assert (out / "sweep.csv").read_bytes() == b"old rows\n"


@pytest.mark.parametrize("flag", ["--out", "--out-mean", "--best-by-lambda"])
@pytest.mark.parametrize("name, message", [
    ("taken", "an output names a directory"),
    ("nodir/x.csv", "its directory does not exist"),
])
def test_sweep_output_it_cannot_write_exits_2_before_any_input(
        workspace, tmp_path, monkeypatch, capsys, flag, name, message):
    def no_read(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr(cli, "load_corpus", no_read)
    monkeypatch.setattr(cli, "fit_cells", no_read)
    out = tmp_path / "out"
    (out / "taken").mkdir(parents=True)
    path = str(out / name)
    assert main(_sweep_args(workspace, out, extra=(flag, path))) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert [p.name for p in out.rglob("*")] == ["taken"]


def test_rank_scan_out_naming_a_directory_exits_2_and_leaves_no_temporary(
        workspace, capsys):
    out = workspace["root"] / "scan"
    out.mkdir()
    assert main(["rank-scan", str(workspace["corpus_file"]), "--top", "2",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out}: an output names a directory\n"
    assert list(out.iterdir()) == []
    assert list(workspace["root"].rglob("*.tmp")) == []


def test_coherence_out_and_table_naming_one_file_write_neither(workspace, capsys):
    model = workspace["root"] / "model"
    assert main(["factorize", str(workspace["corpus_file"]), "--out", str(model),
                 "--rank", "2", "--max-iters", "5"]) == 0
    same = workspace["root"] / "same.txt"
    capsys.readouterr()
    assert main(["coherence", str(model), str(workspace["corpus_file"]), "--n-top", "3",
                 "--out", str(same), "--table", str(same)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {same}: two outputs name this file\n"
    assert "wrote" not in captured.out
    assert sorted(p.name for p in workspace["root"].iterdir()
                  if p.name.startswith("same")) == []


@pytest.mark.parametrize("argv, message", [
    (["rank-scan", "{corpus}", "--top", "19", "--out", "{root}/s.csv"],
     "--top must be <= min(terms, documents) = 18 of {corpus}, got 19"),
    (["coherence", "{root}/model", "{corpus}", "--n-top", "19", "--out",
      "{root}/c.json"],
     "--n-top must be <= the 18 terms of {corpus}, got 19"),
], ids=["rank-scan-top", "coherence-n-top"])
def test_a_flag_above_the_corpus_bound_is_named(pristine, capsys, argv, message):
    names = {"corpus": pristine / "corpus.txt", "root": pristine}
    capsys.readouterr()
    assert main([a.format(**names) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message.format(**names)}\n"
    assert not (pristine / "s.csv").exists() and not (pristine / "c.json").exists()


def _tree(root):
    """Every file under ``root``, by its relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


_CLASSIFY = ["classify", "model", "labels.csv", "model/mask.json", "--out"]


@pytest.mark.parametrize("argv", [
    ["rank-scan", "corpus.txt", "--top", "2", "--out", "corpus.txt"],
    ["rank-scan", "corpus.txt", "--top", "2", "--out", "./corpus.txt"],
    ["coherence", "model", "corpus.txt", "--n-top", "3", "--out", "corpus.txt"],
    ["coherence", "model", "corpus.txt", "--n-top", "3", "--table", "corpus.txt"],
    [*_CLASSIFY, "labels.csv"],
    [*_CLASSIFY, "model/mask.json"],
    [*_CLASSIFY, "model/manifest.json"],
    ["sweep", "corpus.txt", "labels.csv", "seeds.txt", "--ranks", "1",
     "--lambda-grid", "0", "--mu-grid", "0", "--trials", "1", "--max-iters", "5",
     "--out", "labels.csv"],
    ["plot-heatmap", "mean.csv", "--out", "mean.csv"],
    ["ingest", "docs", "--stopwords", "stop.txt", "--out", "stop.txt"],
], ids=["rank-scan", "rank-scan-other-name", "coherence-out", "coherence-table",
        "classify-labels", "classify-mask", "classify-manifest", "sweep",
        "plot-heatmap", "ingest-stopwords"])
def test_an_output_naming_an_input_exits_2_writing_nothing(
        pristine, tmp_path, monkeypatch, capsys, argv):
    root = tmp_path / "ws"
    shutil.copytree(pristine, root)
    (root / "stop.txt").write_text("court\n", "utf-8")
    monkeypatch.chdir(root)
    before = _tree(root)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {argv[-1]}: an output names an input of this command\n")
    assert _tree(root) == before


@pytest.mark.parametrize("out, blocker", [
    ("afile", "afile"),
    ("afile/sub", "afile"),
    ("corpus.txt", "corpus.txt"),  # the command's own input
    ("model", None),  # a result directory: reruns write into it
    ("new/sub/model", None),  # missing parents are made when it is written
])
def test_factorize_refuses_an_out_under_a_file_before_reading(
        pristine, tmp_path, monkeypatch, capsys, out, blocker):
    root = tmp_path / "ws"
    shutil.copytree(pristine, root)
    (root / "afile").write_bytes(b"kept\n")
    monkeypatch.chdir(root)

    def unread(*args, **kwargs):
        raise ValueError("an input was read")

    monkeypatch.setattr(cli, "load_corpus", unread)
    monkeypatch.setattr(cli, "fit", unread)
    before = _tree(root)
    capsys.readouterr()
    assert main(["factorize", "corpus.txt", "--out", out, "--rank", "7"]) == 2
    err = capsys.readouterr().err
    if blocker is None:
        assert err == "error: an input was read\n"
    else:
        assert err == f"error: --out {out}: {blocker} is not a directory\n"
    assert _tree(root) == before


def _main_catching_interrupts(argv):
    """``main(argv)``; an interrupt it lets escape fails the test, not the
    session."""
    try:
        return main(argv)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")


@pytest.mark.parametrize("command", ["sweep-1", "sweep-2", "factorize"])
def test_an_interrupted_command_ends_with_one_line_and_exit_130(
        workspace, tmp_path, monkeypatch, capsys, command):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(cli, "fit_cells", interrupt)
    monkeypatch.setattr(cli, "fit", interrupt)
    out = tmp_path / "out"
    out.mkdir()
    if command == "factorize":
        args = ["factorize", str(workspace["corpus_file"]), "--out",
                str(out / "model"), "--rank", "2"]
    else:
        args = _sweep_args(workspace, out, extra=("--jobs", command[-1]))
    capsys.readouterr()
    assert _main_catching_interrupts(args) == 130
    assert capsys.readouterr().err == "error: interrupted\n"
    assert list(out.iterdir()) == []


def test_an_interrupt_while_writing_leaves_no_temporary_and_no_result(
        workspace, monkeypatch, capsys):
    out = workspace["root"] / "model"
    held = []

    def interrupt(*args, **kwargs):
        held.extend(out.glob("*.tmp"))
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "save_mask", interrupt)
    capsys.readouterr()
    assert _main_catching_interrupts([
        "factorize", str(workspace["corpus_file"]), "--out", str(out), "--rank", "2",
        "--mu", "0.1", "--max-iters", "5", "--labels", str(workspace["labels"])]) == 130
    assert capsys.readouterr().err == "error: interrupted\n"
    assert held  # the batch held the result's temporaries
    assert list(out.iterdir()) == []
    assert list(workspace["root"].rglob("*.tmp")) == []


@pytest.mark.parametrize("outputs, named", [
    (["--out", "labels.csv"], "labels.csv"),
    (["--out", "s.csv", "--out-mean", "corpus.txt"], "corpus.txt"),
    # --out-mean's default, the --out path with the suffix .mean.csv.
    (["--out", "seeds.csv"], "seeds.mean.csv"),
    (["--out", "s.csv", "--best-by-lambda", "seeds.mean.csv"], "seeds.mean.csv"),
], ids=["out", "out-mean", "out-mean-default", "best-by-lambda"])
def test_sweep_refuses_an_output_naming_an_input_before_reading(
        pristine, tmp_path, monkeypatch, capsys, outputs, named):
    root = tmp_path / "ws"
    shutil.copytree(pristine, root)
    shutil.move(root / "seeds.txt", root / "seeds.mean.csv")
    monkeypatch.chdir(root)

    def unread(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr(cli, "load_corpus", unread)
    monkeypatch.setattr(cli, "fit_cells", unread)
    before = _tree(root)
    capsys.readouterr()
    assert main(["sweep", "corpus.txt", "labels.csv", "seeds.mean.csv", "--ranks", "1",
                 "--lambda-grid", "0", "--mu-grid", "0", *outputs]) == 2
    assert capsys.readouterr().err == (
        f"error: {named}: an output names an input of this command\n")
    assert _tree(root) == before


def test_sweep_rows_do_not_depend_on_stacking(workspace, tmp_path, monkeypatch):
    from gssnmf import factorization

    stacked, alone = tmp_path / "stacked", tmp_path / "alone"
    stacked.mkdir()
    alone.mkdir()
    extra = ("--metric", "avg_coherence", "--n-top", "5")
    assert main(_sweep_args(workspace, stacked, extra=extra)) == 0
    monkeypatch.setattr(factorization, "_blocks_equal", lambda *blocks: False)
    assert main(_sweep_args(workspace, alone, extra=extra)) == 0
    assert (stacked / "sweep.csv").read_bytes() == (alone / "sweep.csv").read_bytes()


@pytest.mark.parametrize("metric", ["macro_f1", "avg_coherence"])
def test_sweep_rows_do_not_depend_on_batching(workspace, tmp_path, monkeypatch,
                                              metric):
    real, batches = cli._sweep_eval, []

    def spy(batch, **inputs):
        batches.append([(config.rank, trial) for config, trial in batch])
        return real(batch, **inputs)

    monkeypatch.setattr(cli, "_sweep_eval", spy)
    extra = ("--ranks", "1,2", "--metric", metric, "--n-top", "4")
    outputs = []
    for name, width, jobs in (("whole", cli._BATCH_WIDTH, "1"), ("capped", 4, "1"),
                              ("parallel", 4, "2")):
        out = tmp_path / name
        out.mkdir()
        monkeypatch.setattr(cli, "_BATCH_WIDTH", width)
        assert main(_sweep_args(workspace, out, extra=extra + ("--jobs", jobs))) == 0
        outputs.append([(out / f).read_bytes() for f in ("sweep.csv", "sweep.mean.csv")])
    # The cells in row order, (rank, lambda, mu, trial): all 16 fit as one
    # batch, then, capped at a width of 4, four rank-1 cells or two rank-2
    # cells a batch. The two workers' threads fit the capped run's batches,
    # in an order of their own.
    whole, capped, parallel = batches[:1], batches[1:7], batches[7:]
    assert whole == [[(1, 0), (1, 1)] * 4 + [(2, 0), (2, 1)] * 4]
    assert capped == [[(1, 0), (1, 1)] * 2, [(1, 0), (1, 1)] * 2,
                      [(2, 0), (2, 1)], [(2, 0), (2, 1)],
                      [(2, 0), (2, 1)], [(2, 0), (2, 1)]]
    assert sorted(parallel) == sorted(capped)
    assert outputs[0] == outputs[1] == outputs[2]


def test_sweep_rows_do_not_depend_on_splitting_a_rank_and_trial(
        workspace, tmp_path, monkeypatch):
    real, shares = cli._batches, []

    def spy(cells):
        batches = real(cells)
        shares.append([[(config.rank, trial) for config, trial in b] for b in batches])
        return batches

    monkeypatch.setattr(cli, "_batches", spy)
    extra = ("--ranks", "1,2,3", "--metric", "avg_coherence", "--n-top", "4")
    whole, split = tmp_path / "whole", tmp_path / "split"
    whole.mkdir()
    split.mkdir()
    assert main(_sweep_args(workspace, whole, extra=extra)) == 0
    # Below the width 8 of rank 2's four cells of one trial, and across
    # the two workers' shares of 12 cells each.
    monkeypatch.setattr(cli, "_BATCH_WIDTH", 3)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert main(_sweep_args(workspace, split, extra=extra + ("--jobs", "2"))) == 0
    assert len(shares) == 1 + 2
    for share in shares[1:]:
        assert sum(batch.count((2, 0)) for batch in share) == 2
        assert sum((2, 0) in batch for batch in share) == 2
    for name in ("sweep.csv", "sweep.mean.csv"):
        assert (whole / name).read_bytes() == (split / name).read_bytes()


def test_sweep_jobs_are_capped_by_the_cpus_this_process_may_run_on(
        workspace, tmp_path, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    serial, capped = tmp_path / "serial", tmp_path / "capped"
    serial.mkdir()
    capped.mkdir()
    assert main(_sweep_args(workspace, serial)) == 0
    assert main(_sweep_args(workspace, capped, extra=("--jobs", "2"))) == 0
    assert (serial / "sweep.csv").read_bytes() == (capped / "sweep.csv").read_bytes()


def test_sweep_pool_has_one_worker_per_cpu_this_process_may_run_on(
        workspace, tmp_path, monkeypatch):
    import concurrent.futures

    real, sizes = concurrent.futures.ThreadPoolExecutor, []

    class RecordedPool(real):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordedPool)
    serial, capped = tmp_path / "serial", tmp_path / "capped"
    serial.mkdir()
    capped.mkdir()
    assert main(_sweep_args(workspace, serial)) == 0
    assert sizes == []
    assert main(_sweep_args(workspace, capped, extra=("--jobs", "5"))) == 0
    assert sizes == [2]
    for name in ("sweep.csv", "sweep.mean.csv"):
        assert (serial / name).read_bytes() == (capped / name).read_bytes()


def test_sweep_split_fault_exits_2_before_any_fit(workspace, tmp_path, monkeypatch,
                                                  capsys):
    real_split, fitted = cli.split_mask, []

    def split(n_docs, train_fraction, seed, n_classes):
        if seed == 9 + 1:
            raise ValueError("no split for this seed")
        return real_split(n_docs, train_fraction, seed, n_classes)

    monkeypatch.setattr(cli, "split_mask", split)
    monkeypatch.setattr(cli, "fit_cells", lambda *a, **k: fitted.append(a))
    assert main(_sweep_args(workspace, tmp_path, extra=("--ranks", "1,2"))) == 2
    assert capsys.readouterr().err == "error: no split for this seed\n"
    assert fitted == []
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_cells_do_not_check_x_again(workspace, tmp_path, monkeypatch):
    from gssnmf import linalg

    shape = load_corpus(workspace["corpus_file"]).x.shape
    real, shapes = linalg.as_matrix, []

    def counting(a):
        out = real(a)
        shapes.append(out.shape)
        return out

    for name, module in list(sys.modules.items()):
        if name.startswith("gssnmf.") and hasattr(module, "as_matrix"):
            monkeypatch.setattr(module, "as_matrix", counting)
    assert main(_sweep_args(workspace, tmp_path, extra=(
        "--metric", "avg_coherence", "--n-top", "5", "--jobs", "1",
    ))) == 0
    # X is checked once, when the corpus is read; no cell checks it again.
    assert shapes.count(shape) == 1


def test_cli_import_leaves_process_pool_unloaded():
    code = ("import sys, gssnmf.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_sweep_rejects_jobs_below_one(workspace, tmp_path, capsys):
    assert main(_sweep_args(workspace, tmp_path, extra=("--jobs", "0"))) == 2
    assert capsys.readouterr().err.startswith("error: argument --jobs")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("extra", [
    ("--lambda-grid", "0,nan"), ("--mu-grid", "inf"), ("--eps", "nan"),
    ("--tol", "inf"),
], ids=["lambda-grid", "mu-grid", "eps", "tol"])
def test_sweep_rejects_non_finite_settings(workspace, tmp_path, capsys, extra):
    assert main(_sweep_args(workspace, tmp_path, extra=extra)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert "sweep cell" not in err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_coherence_metric_and_best_by_lambda(workspace, tmp_path):
    out_dir = tmp_path / "coh"
    out_dir.mkdir()
    args = _sweep_args(workspace, out_dir, extra=(
        "--metric", "avg_coherence", "--n-top", "4",
        "--best-by-lambda", str(out_dir / "best.csv"),
    ))
    assert main(args) == 0
    best_lines = (out_dir / "best.csv").read_text("utf-8").splitlines()
    assert best_lines[0] == "rank,lambda,best_mu,mean_metric_value"
    assert len(best_lines) == 1 + 2  # one row per lambda
    mean_lines = (out_dir / "sweep.mean.csv").read_text("utf-8").splitlines()[1:]
    means = {}
    for line in mean_lines:
        rank, lam, mu, mean = line.split(",")
        means.setdefault(lam, []).append((float(mean), float(mu)))
    for line in best_lines[1:]:
        _, lam, best_mu, best_mean = line.split(",")
        top = max(means[lam], key=lambda vm: (vm[0], -vm[1]))
        assert float(best_mean) == top[0]
        assert float(best_mu) == top[1]


def test_plot_heatmap_svg(workspace, tmp_path):
    out_dir = tmp_path / "sweep"
    out_dir.mkdir()
    assert main(_sweep_args(workspace, out_dir)) == 0
    svg = tmp_path / "heat.svg"
    assert main(["plot-heatmap", str(out_dir / "sweep.mean.csv"),
                 "--out", str(svg)]) == 0
    body = svg.read_text("utf-8")
    assert body.startswith("<svg")
    assert body.count("<rect") == 4
    assert "linear color scale" in body


def test_plot_heatmap_outlines_a_missing_cell(tmp_path):
    mean = tmp_path / "mean.csv"
    mean.write_text("rank,lambda,mu,mean_metric_value\n"
                    "2,0.0,0.0,0.5\n2,0.0,0.1,0.6\n2,0.1,0.0,0.7\n", "utf-8")
    svg = tmp_path / "heat.svg"
    assert main(["plot-heatmap", str(mean), "--out", str(svg)]) == 0
    rects = [line for line in svg.read_text("utf-8").splitlines() if "<rect" in line]
    assert len(rects) == 4
    # lambda 0.1 (row 1) and mu 0.1 (column 1) has no mean: an empty square
    assert rects[3] == ('<rect x="142" y="102" width="56" height="56" '
                        'fill="none" stroke="#999"/>')
    assert all('stroke="#555"' in r for r in rects[:3])


def test_plot_heatmap_rejects_missing_rank(workspace, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    out_dir.mkdir()
    assert main(_sweep_args(workspace, out_dir)) == 0
    code = main(["plot-heatmap", str(out_dir / "sweep.mean.csv"),
                 "--out", str(tmp_path / "h.svg"), "--rank", "9"])
    assert code == 2
    assert "rank 9 not present" in capsys.readouterr().err


def test_parser_defaults_match_documented_values():
    from gssnmf.cli import build_parser

    parser, commands = build_parser()
    coherence_defaults = {a.dest: a.default for a in commands["coherence"]._actions}
    assert coherence_defaults["n_top"] == 30
    scan_defaults = {a.dest: a.default for a in commands["rank-scan"]._actions}
    assert scan_defaults["top"] == 20
    fact_defaults = {a.dest: a.default for a in commands["factorize"]._actions}
    assert fact_defaults["train_fraction"] == 0.7
    assert fact_defaults["eps"] == 1e-12
    sweep_defaults = {a.dest: a.default for a in commands["sweep"]._actions}
    assert sweep_defaults["trials"] == 10
    assert sweep_defaults["metric"] == "macro_f1"


def test_factorize_accepts_reference_configuration_shape(workspace):
    # a realistic fully supervised shape: rank 7, small weights on both terms
    out = workspace["root"] / "ref_shape"
    code = main([
        "factorize", str(workspace["corpus_file"]), "--out", str(out),
        "--rank", "7", "--lambda", "0.3", "--mu", "0.006",
        "--max-iters", "15", "--seeds", str(workspace["seeds"]),
        "--labels", str(workspace["labels"]),
    ])
    assert code == 0
    result, _ = load_result(out)
    assert result.w.shape[1] == 7
    assert result.config.lam == 0.3 and result.config.mu == 0.006


def test_coherence_table_export(workspace):
    out = workspace["root"] / "model_table"
    assert main([
        "factorize", str(workspace["corpus_file"]), "--out", str(out),
        "--rank", "2", "--max-iters", "20",
    ]) == 0
    table_path = workspace["root"] / "topics.txt"
    assert main(["coherence", str(out), str(workspace["corpus_file"]),
                 "--n-top", "4", "--table", str(table_path)]) == 0
    body = table_path.read_text("utf-8")
    assert body.startswith("Topic 1")
    assert "Coherence per topic:" in body
    assert "Averaged coherence:" in body


def test_importing_the_package_loads_neither_the_cli_nor_argparse():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gssnmf; "
         "print(sorted({'gssnmf.cli', 'argparse'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "[]\n"


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "gssnmf", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "factorize" in proc.stdout and "sweep" in proc.stdout


# --- loaders and whole-or-absent writes ---------------------------------------

_MEAN_CSV = "rank,lambda,mu,mean_metric_value\n2,0.0,0.0,0.5\n2,0.0,0.1,0.6\n"


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A workspace with a seeded and labelled model, a mean CSV and a config."""
    root = tmp_path_factory.mktemp("pristine")
    ws = _make_workspace(root)
    assert main([
        "factorize", str(ws["corpus_file"]), "--out", str(root / "model"),
        "--rank", "2", "--lambda", "0.1", "--mu", "0.1", "--max-iters", "5",
        "--seeds", str(ws["seeds"]), "--labels", str(ws["labels"]),
    ]) == 0
    (root / "mean.csv").write_text(_MEAN_CSV, "utf-8")
    (root / "config.json").write_text('{\n  "rank": 2,\n  "max-iters": 5\n}\n', "utf-8")
    return root


def _field(lineno, col, value):
    """An edit setting field ``col`` of line ``lineno`` (1-based) to ``value``."""
    def edit(text):
        lines = text.splitlines()
        fields = lines[lineno - 1].split(",")
        fields[col] = value
        lines[lineno - 1] = ",".join(fields)
        return "\n".join(lines) + "\n"
    return edit


def _line(lineno, value):
    """An edit replacing line ``lineno`` (1-based) by ``value``; None deletes it."""
    def edit(text):
        lines = text.splitlines()
        lines[lineno - 1:lineno] = [] if value is None else value.split("\n")
        return "\n".join(lines) + "\n"
    return edit


def _first_column(text):
    return "".join(line.split(",")[0] + "\n" for line in text.splitlines())


def _not_utf8(lineno):
    """An edit putting the byte 0xff, never UTF-8, at the start of line ``lineno``."""
    def edit(text):
        lines = text.encode("utf-8").split(b"\n")
        lines[lineno - 1] = b"\xff" + lines[lineno - 1]
        return b"\n".join(lines)
    return edit


def _header(key, value):
    """An edit setting the corpus header's ``key`` to ``value(old value)``;
    a None ``value`` removes the key."""
    def edit(text):
        first, rest = text.split("\n", 1)
        header = json.loads(first)
        if value is None:
            del header[key]
        else:
            header[key] = value(header[key])
        return json.dumps(header, separators=(",", ":")) + "\n" + rest
    return edit


def _params(**items):
    """An edit setting ``items`` in the corpus header's pipeline params."""
    return _header("params", lambda params: {**params, **items})


_COMMANDS = {
    "classify": lambda r: ["classify", r / "model", r / "labels.csv",
                           r / "model" / "mask.json"],
    "coherence": lambda r: ["coherence", r / "model", r / "corpus.txt"],
    "rank-scan": lambda r: ["rank-scan", r / "corpus.txt", "--out", r / "s.csv",
                            "--top", "2"],
    "plot-heatmap": lambda r: ["plot-heatmap", r / "mean.csv", "--out", r / "h.svg"],
    "config": lambda r: ["factorize", r / "corpus.txt", "--out", r / "m2",
                         "--config", r / "config.json"],
    "seeds": lambda r: ["factorize", r / "corpus.txt", "--out", r / "m2", "--rank",
                        "2", "--lambda", "0.1", "--seeds", r / "seeds.txt"],
    "ingest": lambda r: ["ingest", r / "docs", "--out", r / "c2.txt"],
    "stopwords": lambda r: ["ingest", r / "docs", "--out", r / "c2.txt",
                            "--stopwords", r / "seeds.txt"],
}

_DEEP_JSON = "[" * 100_000 + "]" * 100_000
_LONG_INT_JSON = "[" + "7" * 5000 + "]"

# (file, edit, command, line named in the error or None). The corpus has 18
# terms, so its header is line 1 and its rows lines 2-19; trace.csv has a
# header and 5 rows; W is 18 x 2, H 2 x 20, B 2 x 2 and C 2 x 2.
_MALFORMED = {
    "w-fields": ("model/w.csv", _line(2, "1"), "classify", 2),
    "w-number": ("model/w.csv", _field(1, 0, "abc"), "coherence", 1),
    "w-nan": ("model/w.csv", _field(1, 0, "nan"), "classify", 1),
    "w-blank": ("model/w.csv", _line(3, ""), "coherence", 3),
    "w-rank": ("model/w.csv", _first_column, "coherence", None),
    "h-rows": ("model/h.csv", _line(2, None), "classify", None),
    "h-inf": ("model/h.csv", _field(2, 3, "inf"), "coherence", 2),
    "b-rank": ("model/b.csv", _line(2, None), "coherence", None),
    "c-number": ("model/c.csv", _field(1, 1, "1.0.0"), "classify", 1),
    "c-rank": ("model/c.csv", _first_column, "classify", None),
    "trace-fields": ("model/trace.csv", _line(3, "2,1,1"), "classify", 3),
    "trace-number": ("model/trace.csv", _field(4, 2, "x"), "coherence", 4),
    "trace-nan": ("model/trace.csv", _field(2, 1, "nan"), "classify", 2),
    "trace-iteration": ("model/trace.csv", _field(2, 0, "1.5"), "classify", 2),
    "trace-blank": ("model/trace.csv", _line(3, "\n" + "3,1,1,0,0"), "coherence", 3),
    "trace-rows": ("model/trace.csv", _line(6, None), "coherence", None),
    "manifest-json": ("model/manifest.json", lambda t: t.replace('"config": {',
                                                                '"config": {,'),
                      "classify", 2),
    "manifest-doc-ids": ("model/manifest.json", lambda t: t.replace('"doc00.txt",', ""),
                         "coherence", None),
    "mask-json": ("model/mask.json", lambda t: t[:-3], "classify", 1),
    "mask-shape": ("model/mask.json", lambda t: t.replace('"n_docs":20', '"n_docs":21'),
                   "classify", None),
    # Counts and ids that int() would truncate to valid ones.
    "mask-n-classes-fraction": ("model/mask.json", lambda t: t.replace(
        '"n_classes":2', '"n_classes":2.5'), "classify", None),
    "mask-n-docs-fraction": ("model/mask.json", lambda t: t.replace(
        '"n_docs":20', '"n_docs":20.7'), "classify", None),
    "mask-id-fraction": ("model/mask.json", lambda t: json.dumps({
        **json.loads(t), "train_ids": [i + 0.9 for i in json.loads(t)["train_ids"]]}),
        "classify", None),
    "corpus-rows-fraction": ("corpus.txt", lambda t: t.replace(
        '"rows":18', '"rows":18.5', 1), "rank-scan", 1),
    "corpus-cols-fraction": ("corpus.txt", lambda t: t.replace(
        '"cols":20', '"cols":20.5', 1), "rank-scan", 1),
    "corpus-fields": ("corpus.txt", lambda t: _line(2, t.splitlines()[1].rsplit(",", 1)[0])(t),
                      "rank-scan", 2),
    "corpus-number": ("corpus.txt", _field(3, 0, "zz"), "coherence", 3),
    "corpus-nan": ("corpus.txt", _field(2, 0, "nan"), "rank-scan", 2),
    "corpus-rows": ("corpus.txt", lambda t: t + t.splitlines()[1] + "\n", "rank-scan", 20),
    "corpus-json": ("corpus.txt", lambda t: t.replace("{", "{{", 1), "rank-scan", 1),
    "corpus-json-end": ("corpus.txt", lambda t: t.replace("}\n", "\n", 1), "rank-scan",
                        1),
    "corpus-empty": ("corpus.txt", lambda t: "", "rank-scan", 1),
    "corpus-format": ("corpus.txt", _line(1, '{"format":"other"}'), "rank-scan", 1),
    "corpus-cols": ("corpus.txt", lambda t: t.replace('"cols":', '"columns":', 1),
                    "rank-scan", 1),
    "corpus-negative": ("corpus.txt", _field(2, 0, "-1.0"), "rank-scan", None),
    "corpus-zero-row": ("corpus.txt", _line(2, ",".join(["0"] * 20)), "rank-scan", None),
    # Header items: terms and document ids are strings, the ids distinct,
    # and both lists are JSON arrays.
    "corpus-vocab-int": ("corpus.txt", _header("vocab", lambda v: [1, *v[1:]]),
                         "rank-scan", None),
    "corpus-doc-id-int": ("corpus.txt", _header("doc_ids", lambda v: [1, *v[1:]]),
                          "rank-scan", None),
    "corpus-doc-ids-string": ("corpus.txt", _header(
        "doc_ids", lambda v: "abcdefghijklmnopqrstuvwxyz"[:len(v)]), "rank-scan", 1),
    "corpus-doc-id-repeat": ("corpus.txt", _header("doc_ids", lambda v: [v[1], *v[1:]]),
                             "rank-scan", None),
    # The pipeline params: numbers, an integer or null, and strings.
    "corpus-stopwords-string": ("corpus.txt", _params(stopwords="the"), "rank-scan", 1),
    "corpus-stopword-int": ("corpus.txt", _params(stopwords=["the", 1]), "rank-scan", 1),
    "corpus-max-features-float": ("corpus.txt", _params(max_features=2.5), "rank-scan", 1),
    "corpus-max-features-bool": ("corpus.txt", _params(max_features=True), "rank-scan", 1),
    "corpus-max-df-bool": ("corpus.txt", _params(max_df=True), "rank-scan", 1),
    "corpus-min-df-bool": ("corpus.txt", _params(min_df=False), "rank-scan", 1),
    # A model whose label names do not match the rows of C.
    "manifest-label-names": ("model/manifest.json", lambda t: json.dumps({
        **json.loads(t), "label_names": json.loads(t)["label_names"][:1]}),
        "coherence", None),
    "mean-repeat": ("mean.csv", lambda t: t + "2,0.0,0.0,0.7\n", "plot-heatmap", 4),
    "mask-no-test": ("model/mask.json", lambda t: json.dumps({
        **json.loads(t), "train_ids": list(range(20)), "test_ids": []}), "classify", None),
    "mean-fields": ("mean.csv", _line(3, "2,0.0,0.1"), "plot-heatmap", 3),
    "mean-number": ("mean.csv", _field(2, 1, "abc"), "plot-heatmap", 2),
    "mean-nan": ("mean.csv", _field(3, 3, "nan"), "plot-heatmap", 3),
    "mean-rank": ("mean.csv", _field(2, 0, "x"), "plot-heatmap", 2),
    "mean-rank-float": ("mean.csv", _field(3, 0, "2.5"), "plot-heatmap", 3),
    "mean-header": ("mean.csv", _line(1, "rank,lambda,mu,value"), "plot-heatmap", None),
    "config-json": ("config.json", lambda t: t.replace("5\n", "5,\n"), "config", 4),
    "config-array": ("config.json", lambda t: '["rank", 2]\n', "config", None),
    "seeds-empty": ("seeds.txt", lambda t: "# none\n\n", "seeds", None),
    "labels-row": ("labels.csv", _line(1, "doc00.txt"), "classify", 1),
    # Bytes that are not UTF-8, one file of each kind.
    "w-utf8": ("model/w.csv", _not_utf8(3), "coherence", None),
    "trace-utf8": ("model/trace.csv", _not_utf8(4), "classify", None),
    "manifest-utf8": ("model/manifest.json", _not_utf8(2), "coherence", None),
    "mask-utf8": ("model/mask.json", _not_utf8(1), "classify", None),
    "corpus-utf8": ("corpus.txt", _not_utf8(5), "rank-scan", None),
    "mean-utf8": ("mean.csv", _not_utf8(2), "plot-heatmap", None),
    "config-utf8": ("config.json", _not_utf8(1), "config", None),
    "seeds-utf8": ("seeds.txt", _not_utf8(2), "seeds", None),
    "stopwords-utf8": ("seeds.txt", _not_utf8(1), "stopwords", None),
    "labels-utf8": ("labels.csv", _not_utf8(7), "classify", None),
    "doc-utf8": ("docs/doc03.txt", _not_utf8(1), "ingest", None),
    # JSON too deeply nested to decode, and an integer too long to convert,
    # in each JSON file.
    "config-deep": ("config.json", lambda t: _DEEP_JSON, "config", None),
    "config-long-int": ("config.json", lambda t: _LONG_INT_JSON, "config", None),
    "manifest-deep": ("model/manifest.json", lambda t: _DEEP_JSON, "coherence", None),
    "manifest-long-int": ("model/manifest.json", lambda t: _LONG_INT_JSON, "classify",
                          None),
    "mask-deep": ("model/mask.json", lambda t: _DEEP_JSON, "classify", None),
    "mask-long-int": ("model/mask.json", lambda t: _LONG_INT_JSON, "classify", None),
    "corpus-deep": ("corpus.txt", _line(1, _DEEP_JSON), "rank-scan", None),
    "corpus-long-int": ("corpus.txt", _line(1, _LONG_INT_JSON), "coherence", None),
    # A weight no float holds, a corpus version other than 1 or none, and a
    # key no form declares.
    "manifest-huge-lam": ("model/manifest.json", lambda t: json.dumps(
        _config(lam=10**400)(json.loads(t))), "coherence", None),
    "corpus-version": ("corpus.txt", _header("version", lambda v: 2), "rank-scan", 1),
    "corpus-no-version": ("corpus.txt", _header("version", None), "rank-scan", 1),
    "mask-extra-key": ("model/mask.json", lambda t: json.dumps({**json.loads(t), "seed": 1}),
                       "classify", None),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_file_exits_2_naming_file_and_line(pristine, tmp_path, capsys, case):
    name, edit, command, line = _MALFORMED[case]
    root = tmp_path / "ws"
    shutil.copytree(pristine, root)
    path = root / name
    data = edit(path.read_text("utf-8"))
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    capsys.readouterr()
    assert main([str(a) for a in _COMMANDS[command](root)]) == 2
    err = capsys.readouterr().err
    where = f"{path}:{line}:" if line else f"{path}:"
    assert err.startswith(f"error: {where}") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def fuzz_ws(pristine, tmp_path_factory):
    """A copy of ``pristine`` whose files a test may edit and restore."""
    root = tmp_path_factory.mktemp("fuzz") / "ws"
    shutil.copytree(pristine, root)
    return root


# Each JSON form: its file and the command that reads it, with an output.
_FORMS = {
    "manifest": ("model/manifest.json", lambda r: ["coherence", r / "model",
                                                   r / "corpus.txt", "--out", r / "out"]),
    "mask": ("model/mask.json", lambda r: ["classify", r / "model", r / "labels.csv",
                                           r / "model" / "mask.json", "--out", r / "out"]),
    "header": ("corpus.txt", lambda r: ["rank-scan", r / "corpus.txt", "--top", "2",
                                        "--out", r / "out"]),
}
_DEEP = "\0deep\0"  # stands for arrays nested too deeply to decode
# Half the time an edge value: an integer no float holds, a non-finite
# number, deep nesting or an empty container; else a value of any JSON type.
_VALUES = st.one_of(
    st.sampled_from([10**400, -10**400, 2**64, math.nan, math.inf, -math.inf, _DEEP,
                     [], {}]),
    st.one_of(st.none(), st.booleans(), st.integers(-2, 30), st.floats(-1e3, 1e3),
              st.text(max_size=4), st.lists(st.integers(-1, 30), max_size=3)),
)


def _paths(value, path=()):
    """The path of ``value`` and of each value inside it, each with its
    value; of an array's items, only the first and the last."""
    yield path, value
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list) and value:
        items = [(i, value[i]) for i in sorted({0, len(value) - 1})]
    else:
        items = []
    for key, item in items:
        yield from _paths(item, (*path, key))


def _mutate(doc, path, op, key, value):
    """``doc`` with the value at ``path`` set to ``value`` ("set") or removed
    ("drop"), or, if it is an object, given ``key`` ("add")."""
    if not path and op != "add":
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    target = parent[path[-1]] if path else doc
    if op == "set":
        parent[path[-1]] = value
    elif op == "drop":
        del parent[path[-1]]
    elif isinstance(target, dict):
        target[key] = value
    return doc


@pytest.mark.parametrize("form", sorted(_FORMS))
@given(data=st.data())
def test_a_mutated_json_form_exits_0_or_2_with_one_error_line(fuzz_ws, form, data):
    """A manifest, mask file or corpus header with swapped types, dropped and
    added keys, huge integers, NaN, deep nesting or empty arrays: the command
    that reads it exits 0, or 2 with one error line and no file written."""
    name, argv = _FORMS[form]
    path, out = fuzz_ws / name, fuzz_ws / "out"
    original = path.read_text("utf-8")
    text, rest = original.split("\n", 1) if form == "header" else (original, "")
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        # Half the time a scalar, where most faults lie, if the document
        # still holds one: a first mutation may have left only containers.
        paths = list(_paths(doc))
        scalars = [p for p, v in paths if not isinstance(v, (dict, list))]
        anywhere = st.sampled_from([p for p, _ in paths])
        where = data.draw(st.sampled_from(scalars) | anywhere if scalars else anywhere,
                          label="path")
        op = data.draw(st.sampled_from(["set", "set", "drop", "add"]), label="op")
        key = data.draw(st.text(max_size=4), label="key")
        # A copy: _VALUES draws its empty containers as the same objects
        # every time, and a later "add" would fill them in place.
        doc = _mutate(doc, where, op, key, copy.deepcopy(data.draw(_VALUES, label="value")))
    text = json.dumps(doc).replace(json.dumps(_DEEP), "[" * 100_000 + "]" * 100_000)
    before = sorted(fuzz_ws.rglob("*"))
    err = io.StringIO()
    try:
        path.write_text(text + "\n" + rest, "utf-8")
        with redirect_stderr(err):
            code = main([str(a) for a in argv(fuzz_ws)])
        written = sorted(fuzz_ws.rglob("*")) != before
    finally:
        path.write_text(original, "utf-8")
        out.unlink(missing_ok=True)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 2) and "Traceback" not in err.getvalue(), err.getvalue()
    assert len(errors) == (code == 2), err.getvalue()
    assert not (code == 2 and written)


def test_refit_into_a_model_directory_leaves_no_stale_factor(workspace, capsys):
    corpus, out = str(workspace["corpus_file"]), workspace["root"] / "reused"
    assert main(["factorize", corpus, "--out", str(out), "--rank", "3",
                 "--mu", "0.1", "--max-iters", "10", "--seeds", str(workspace["seeds"]),
                 "--labels", str(workspace["labels"])]) == 0
    assert {"b.csv", "c.csv", "mask.json"} <= {p.name for p in out.iterdir()}
    assert main(["factorize", corpus, "--out", str(out), "--rank", "3",
                 "--max-iters", "10"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "h.csv", "manifest.json", "trace.csv", "w.csv"]
    capsys.readouterr()
    assert main(["classify", str(out), str(workspace["labels"]),
                 str(out / "mask.json")]) == 2
    assert capsys.readouterr().err == "error: model was not label-supervised\n"


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("kind", ["stopwords", "labels", "config"])
def test_a_byte_order_mark_is_read_as_no_character(workspace, tmp_path, kind):
    text = {"stopwords": "gangx\ncourtx\n", "config": '{"rank": 2, "max-iters": 5}\n',
            "labels": workspace["labels"].read_text("utf-8")}[kind]
    outputs = []
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path, out = tmp_path / f"{name}-{kind}", tmp_path / f"{name}-out"
        path.write_bytes(bom + text.encode())
        argv = {
            "stopwords": ["ingest", workspace["corpus_dir"], "--out", out,
                          "--stopwords", path],
            "labels": ["factorize", workspace["corpus_file"], "--out", out, "--rank",
                       "2", "--max-iters", "5", "--mu", "0.1", "--labels", path],
            "config": ["factorize", workspace["corpus_file"], "--out", out,
                       "--config", path],
        }[kind]
        assert main([str(a) for a in argv]) == 0
        outputs.append(out.read_bytes() if out.is_file() else _snapshot(out))
    assert outputs[0] == outputs[1]
    if kind == "stopwords":
        assert "gangx" not in load_corpus(out).vocab.terms


def test_failed_factorize_leaves_the_old_model(pristine, tmp_path, monkeypatch, capsys):
    root = tmp_path / "ws"
    shutil.copytree(pristine, root)
    model = root / "model"
    before = _snapshot(model)

    def failing_save_mask(mask, path):
        with write_file(path) as fh:
            fh.write("{")
            raise OSError("disk full")

    monkeypatch.setattr(cli, "save_mask", failing_save_mask)
    # Another seed, so every file of the new model would differ.
    assert main([
        "factorize", str(root / "corpus.txt"), "--out", str(model),
        "--rank", "2", "--lambda", "0.1", "--mu", "0.1", "--max-iters", "5",
        "--rng-seed", "1", "--seeds", str(root / "seeds.txt"),
        "--labels", str(root / "labels.csv"),
    ]) == 2
    assert capsys.readouterr().err == "error: disk full\n"
    assert _snapshot(model) == before


def test_failed_sweep_leaves_no_new_file(workspace, tmp_path, monkeypatch):
    out_dir = tmp_path / "sweep"
    out_dir.mkdir()
    (out_dir / "sweep.csv").write_text("old\n", "utf-8")
    args = _sweep_args(workspace, out_dir, extra=("--best-by-lambda",
                                                   str(out_dir / "best.csv")))
    # The mean CSV's directory does not exist.
    args[args.index("--out-mean") + 1] = str(out_dir / "nodir" / "m.csv")
    assert main(args) == 2
    assert _snapshot(out_dir) == {"sweep.csv": b"old\n"}

    real, calls = cli._write_csv, []

    def failing_write_csv(path, header, rows):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        real(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", failing_write_csv)
    assert main(_sweep_args(workspace, out_dir, extra=(
        "--best-by-lambda", str(out_dir / "best.csv")))) == 2
    assert len(calls) == 3
    assert _snapshot(out_dir) == {"sweep.csv": b"old\n"}


@pytest.mark.parametrize("command", ["sweep", "coherence"])
def test_n_top_below_two_exits_2_before_any_input_is_read(
        pristine, tmp_path, monkeypatch, capsys, command):
    read = []
    monkeypatch.setattr(cli, "load_corpus", lambda path: read.append(path))
    monkeypatch.setattr(cli, "load_result", lambda path: read.append(path))
    monkeypatch.setattr(cli, "fit_cells", lambda *a, **k: read.append("fit"))
    out = tmp_path / "sweep.csv"
    argv = {
        "sweep": ["sweep", pristine / "corpus.txt", pristine / "labels.csv",
                  pristine / "seeds.txt", "--out", out, "--ranks", "2",
                  "--lambda-grid", "0", "--mu-grid", "0", "--trials", "1",
                  "--metric", "avg_coherence"],
        "coherence": ["coherence", pristine / "model", pristine / "corpus.txt"],
    }[command]
    capsys.readouterr()
    assert main([str(a) for a in argv] + ["--n-top", "1"]) == 2
    assert capsys.readouterr().err == "error: argument --n-top: must be >= 2, got 1\n"
    assert read == [] and not out.exists()


def _sweep_before_reading(pristine, tmp_path, monkeypatch, capsys, flags):
    """Exit code and stderr of a sweep with ``flags``, which must read no input."""
    read = []
    monkeypatch.setattr(cli, "load_corpus", lambda path: read.append(path))
    monkeypatch.setattr(cli, "load_seed_words", lambda path: read.append(path))
    monkeypatch.setattr(cli, "load_label_assignments", lambda path: read.append(path))
    monkeypatch.setattr(cli, "fit_cells", lambda *a, **k: read.append("fit"))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", pristine / "corpus.txt", pristine / "labels.csv",
            pristine / "seeds.txt", "--out", out, *flags]
    capsys.readouterr()
    code = main([str(a) for a in argv])
    assert read == [] and not out.exists()
    return code, capsys.readouterr().err


def test_sweep_grid_checks_exit_2_before_any_input_is_read(
        pristine, tmp_path, monkeypatch, capsys):
    grid = {"--ranks": "2", "--lambda-grid": "0.1", "--mu-grid": "0.1",
            "--trials": "1"}
    cases = [
        ({"--ranks": ""},
         "argument --ranks: must list one or more distinct values, got ''"),
        ({"--lambda-grid": ""},
         "argument --lambda-grid: must list one or more distinct values, got ''"),
        ({"--mu-grid": ""},
         "argument --mu-grid: must list one or more distinct values, got ''"),
        ({"--lambda-grid": "-0.1"},
         "argument --lambda-grid: must be finite and >= 0, got -0.1"),
        ({"--mu-grid": "0.1,-0.1"}, "argument --mu-grid: must be finite and >= 0, got -0.1"),
        ({"--ranks": "2,0"}, "argument --ranks: must be >= 1, got 0"),
        ({"--trials": "0"}, "argument --trials: must be >= 1, got 0"),
        ({"--train-fraction": "1.5"}, "argument --train-fraction: must be in (0, 1), got 1.5"),
        ({"--train-fraction": "0"}, "argument --train-fraction: must be in (0, 1), got 0.0"),
        # A repeated grid value would run and write its cells again.
        ({"--ranks": "2,3,2"},
         "argument --ranks: must list one or more distinct values, got '2,3,2'"),
        ({"--lambda-grid": "0,0"},
         "argument --lambda-grid: must list one or more distinct values, got '0,0'"),
        ({"--mu-grid": "0,-0"},
         "argument --mu-grid: must list one or more distinct values, got '0,-0'"),
    ]
    for change, message in cases:
        flags = [f"{flag}={value}" for flag, value in {**grid, **change}.items()]
        code, err = _sweep_before_reading(pristine, tmp_path, monkeypatch, capsys,
                                          flags)
        assert (code, err) == (2, f"error: {message}\n"), change
    # argparse's choices refuse an unknown metric.
    code, err = _sweep_before_reading(
        pristine, tmp_path, monkeypatch, capsys,
        [f"{flag}={value}" for flag, value in grid.items()] + ["--metric", "f2"])
    assert code == 2 and "invalid choice: 'f2'" in err


@pytest.mark.parametrize("flags, message", [
    (["--ranks", "2,19"], "--ranks must be <= min(terms, documents) = 18 of {}, got 19"),
    (["--ranks", "2", "--metric", "avg_coherence", "--n-top", "19"],
     "--n-top must be <= the 18 terms of {}, got 19"),
], ids=["rank", "n-top"])
def test_sweep_corpus_bounds_exit_2_before_any_fit(pristine, tmp_path, monkeypatch,
                                                   capsys, flags, message):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_cells called")

    monkeypatch.setattr(cli, "fit_cells", no_fit)
    corpus, out = pristine / "corpus.txt", tmp_path / "sweep.csv"
    capsys.readouterr()
    assert main([str(a) for a in ["sweep", corpus, pristine / "labels.csv",
                                  pristine / "seeds.txt", "--out", out,
                                  "--lambda-grid", "0", "--mu-grid", "0",
                                  "--trials", "1", *flags]]) == 2
    assert capsys.readouterr().err == f"error: {message.format(corpus)}\n"
    assert not out.exists()


def test_factorize_rank_above_the_data_exits_2_before_allocating(pristine, tmp_path,
                                                                  capsys):
    rank = 100_000  # W alone would take 14 MB on the 18 x 20 corpus
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["factorize", str(pristine / "corpus.txt"), "--out",
                     str(tmp_path / "model"), "--rank", str(rank)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: rank must be <= min(d, n) = 18 for a 18x20 X, got {rank}\n")
    # Less than one rank-long vector: no factor was drawn.
    assert peak < 8 * rank
    assert not (tmp_path / "model").exists()


def test_factorize_warns_of_a_seed_word_not_in_the_vocabulary(pristine, tmp_path,
                                                              capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("gangx\nnowherex\n", "utf-8")
    capsys.readouterr()
    assert main(["factorize", str(pristine / "corpus.txt"), "--out",
                 str(tmp_path / "model"), "--rank", "2", "--lambda", "0.1",
                 "--max-iters", "5", "--seeds", str(seeds)]) == 0
    assert capsys.readouterr().err == "warning: seed word 'nowherex' not in vocabulary\n"


def test_sweep_warns_of_a_seed_word_not_in_the_vocabulary_once_before_any_fit(
        pristine, tmp_path, monkeypatch, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("gangx\nnowherex\n", "utf-8")
    err_at_fit = []
    fit_cells = cli.fit_cells

    def recording_fit_cells(*args, **kwargs):
        err_at_fit.append(capsys.readouterr().err)
        return fit_cells(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_cells", recording_fit_cells)
    capsys.readouterr()
    assert main([str(a) for a in [
        "sweep", pristine / "corpus.txt", pristine / "labels.csv", seeds,
        "--out", tmp_path / "sweep.csv", "--ranks", "2", "--lambda-grid", "0.1",
        "--mu-grid", "0", "--trials", "2", "--max-iters", "5"]]) == 0
    # Both trials' groups are one batch, fitted after the one warning.
    assert err_at_fit == ["warning: seed word 'nowherex' not in vocabulary\n"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("labels", [True, False], ids=["labels", "no-labels"])
@pytest.mark.parametrize("value", ["1.5", "0"])
def test_factorize_train_fraction_exits_2_before_any_input_is_read(
        pristine, tmp_path, monkeypatch, capsys, labels, value):
    def no_read(path):
        raise AssertionError(f"{path} read")

    monkeypatch.setattr(cli, "load_corpus", no_read)
    monkeypatch.setattr(cli, "load_label_assignments", no_read)
    argv = ["factorize", pristine / "corpus.txt", "--out", tmp_path / "model",
            "--rank", "2", "--train-fraction", value]
    if labels:
        argv += ["--labels", pristine / "labels.csv"]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    assert capsys.readouterr().err == (
        f"error: argument --train-fraction: must be in (0, 1), got {float(value)}\n")
    assert not (tmp_path / "model").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("ingest", ["--max-df", "2"], "max_df must be in (0, 1], got 2.0"),
    ("ingest", ["--min-df", "0.5", "--max-df", "0.4"],
     "min_df (0.5) must not exceed max_df (0.4)"),
    ("factorize", ["--rank", "2", "--lambda", "0.5"],
     "--lambda > 0 requires --seeds FILE"),
    ("factorize", ["--rank", "2", "--mu", "0.5"], "--mu > 0 requires --labels FILE"),
    ("rank-scan", ["--top", "0"], "argument --top: must be >= 1, got 0"),
], ids=["ingest-max-df", "ingest-min-df", "factorize-lambda", "factorize-mu",
        "rank-scan-top"])
def test_flag_checks_exit_2_before_any_input_is_read(
        tmp_path, monkeypatch, capsys, command, flags, message):
    def no_read(path):
        raise AssertionError(f"{path} read")

    monkeypatch.setattr(cli, "read_corpus_dir", no_read)
    monkeypatch.setattr(cli, "load_corpus", no_read)
    source = "docs" if command == "ingest" else "corpus.txt"
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, str(tmp_path / source), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_on_one_document_exits_2_before_any_fit(tmp_path, monkeypatch, capsys):
    from gssnmf.textpipe import CorpusMatrix, Vocabulary, save_corpus

    corpus = CorpusMatrix(np.ones((2, 1)), Vocabulary(["gangx", "theftx"]), ["d0"])
    save_corpus(corpus, tmp_path / "corpus.txt")
    (tmp_path / "labels.csv").write_text("d0,gang\n", "utf-8")
    (tmp_path / "seeds.txt").write_text("gangx\n", "utf-8")
    out = tmp_path / "sweep.csv"
    fitted = []
    monkeypatch.setattr(cli, "fit_cells", lambda *a, **k: fitted.append(a))
    capsys.readouterr()
    assert main([str(a) for a in [
        "sweep", tmp_path / "corpus.txt", tmp_path / "labels.csv",
        tmp_path / "seeds.txt", "--out", out, "--ranks", "1",
        "--lambda-grid", "0", "--mu-grid", "0", "--trials", "1"]]) == 2
    assert capsys.readouterr().err == (
        "error: need at least 2 documents to split, got 1\n")
    assert fitted == []
    assert not out.exists()
    assert not out.with_suffix(".mean.csv").exists()


def test_sweep_non_finite_grid_values_exit_2_before_any_input_is_read(
        pristine, tmp_path, monkeypatch, capsys):
    for bad in ("nan", "inf"):
        for flag, flags in (
                ("--lambda-grid", ["--lambda-grid", f"0.1,{bad}", "--mu-grid", "0.1"]),
                ("--mu-grid", ["--lambda-grid", "0.1", "--mu-grid", bad])):
            code, err = _sweep_before_reading(
                pristine, tmp_path, monkeypatch, capsys,
                ["--ranks", "2", "--trials", "1", *flags])
            assert (code, err) == (
                2, f"error: argument {flag}: must be finite and >= 0, got {bad}\n")


# --- flags checked while parsing ------------------------------------------

# (command, flag, bad text, reason) for each flag whose value is checked
# while parsing: the reason is the same on the command line and in a config.
_BAD_FLAG_VALUES = [
    ("rank-scan", "top", "0", "must be >= 1, got 0"),
    ("rank-scan", "top", "x", "invalid int value: 'x'"),
    ("factorize", "train-fraction", "0", "must be in (0, 1), got 0.0"),
    ("factorize", "train-fraction", "1", "must be in (0, 1), got 1.0"),
    ("factorize", "train-fraction", "nan", "must be in (0, 1), got nan"),
    ("factorize", "split-seed", "-1", "must be >= 0, got -1"),
    ("coherence", "n-top", "1", "must be >= 2, got 1"),
    ("sweep", "n-top", "0", "must be >= 2, got 0"),
    ("sweep", "jobs", "0", "must be >= 1, got 0"),
    ("sweep", "trials", "-2", "must be >= 1, got -2"),
    ("sweep", "train-fraction", "1.5", "must be in (0, 1), got 1.5"),
    ("sweep", "base-seed", "-1", "must be >= 0, got -1"),
    ("sweep", "ranks", "", "must list one or more distinct values, got ''"),
    ("sweep", "ranks", "2,0", "must be >= 1, got 0"),
    ("sweep", "ranks", "2,3,2", "must list one or more distinct values, got '2,3,2'"),
    ("sweep", "ranks", "2.5", "invalid int value: '2.5'"),
    ("sweep", "lambda-grid", "-0.1", "must be finite and >= 0, got -0.1"),
    ("sweep", "lambda-grid", "0,inf", "must be finite and >= 0, got inf"),
    ("sweep", "mu-grid", "0.1,nan", "must be finite and >= 0, got nan"),
    ("sweep", "mu-grid", "0,-0", "must list one or more distinct values, got '0,-0'"),
]
# Each command's positionals and required --out, none of which exists.
_NO_FILES_ARGV = {
    "rank-scan": ["rank-scan", "corpus.txt", "--out", "out"],
    "factorize": ["factorize", "corpus.txt", "--out", "out", "--rank", "2"],
    "coherence": ["coherence", "model", "corpus.txt"],
    "sweep": ["sweep", "corpus.txt", "labels.csv", "seeds.txt", "--out", "out"],
}


def _spy_on_open(monkeypatch):
    """The names of the files opened from now on; every reader and writer
    goes through ``builtins.open``."""
    opened, real_open = [], builtins.open

    def spy(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    return opened


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("command, flag, text, reason", _BAD_FLAG_VALUES)
def test_bad_flag_value_exits_2_before_any_file_is_opened(
        tmp_path, monkeypatch, capsys, where, command, flag, text, reason):
    monkeypatch.chdir(tmp_path)
    argv = list(_NO_FILES_ARGV[command])
    if where == "flag":
        argv.append(f"--{flag}={text}")
        want, read = f"error: argument --{flag}: {reason}\n", []
    else:
        try:  # a number as a JSON number, anything else as a string
            value = json.loads(text)
        except ValueError:
            value = text
        (tmp_path / "config.json").write_text(json.dumps({flag: value}), "utf-8")
        argv += ["--config", "config.json"]
        want, read = f"error: config key '{flag}': {reason}\n", ["config.json"]
    opened = _spy_on_open(monkeypatch)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == want
    assert opened == read
    assert os.listdir(tmp_path) == read


def test_negative_rng_seed_exits_2_before_any_file_is_opened(tmp_path, monkeypatch,
                                                             capsys):
    monkeypatch.chdir(tmp_path)
    opened = _spy_on_open(monkeypatch)
    capsys.readouterr()
    assert main([*_NO_FILES_ARGV["factorize"], "--rng-seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: rng_seed must be >= 0, got -1\n"
    assert opened == [] and os.listdir(tmp_path) == []


def test_config_flag_without_a_value_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["factorize", "c.txt", "--out", "m", "--config"]) == 2
    assert capsys.readouterr() == ("", "error: argument --config: expected one argument\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["fit", "c.txt"], "argument command: invalid choice: 'fit'"),
    (["factorize", "c.txt"], "the following arguments are required: --out"),
    (["factorize", "c.txt", "--out", "m", "--rank", "2", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["factorize", "c.txt", "--out", "m", "--rank", "two"],
     "argument --rank: invalid int value: 'two'"),
    (["sweep", "c", "l", "s", "--out", "o", "--metric", "f2"],
     "argument --metric: invalid choice: 'f2'"),
    (["sweep", "c", "l", "s", "--out", "o", "--ranks", "2"],
     "the following arguments are required: --lambda-grid, --mu-grid"),
], ids=["no-command", "unknown-command", "missing-out", "unknown-flag", "bad-int",
        "bad-choice", "missing-grid"])
def test_usage_fault_is_one_error_line_without_usage(tmp_path, monkeypatch, capsys,
                                                    argv, message):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}"), err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert os.listdir(tmp_path) == []


def test_out_of_memory_exits_1_without_a_traceback(pristine, tmp_path, monkeypatch,
                                                    capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 522. GiB for an array")

    monkeypatch.setattr(cli, "fit", no_memory)
    capsys.readouterr()
    assert main(["factorize", str(pristine / "corpus.txt"), "--out",
                 str(tmp_path / "model"), "--rank", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 522. GiB for an array\n")
    assert not (tmp_path / "model").exists()


# --- config files ----------------------------------------------------------

# Two JSON values for every flag of factorize and sweep: a valid one, and
# one of another JSON type whose text the flag refuses (or, for a file
# name, takes as text).
_FLAG_VALUES = {
    "factorize": {
        "out": ("m.out", 7), "rank": (3, 2.9), "lambda": (0.25, True),
        "mu": ("0.5", False), "rng-seed": (4, True), "seeds": ("s.txt", 7),
        "labels": ("l.csv", 1.5),
        "split-seed": ("2", 2.0), "max-iters": (7, True), "eps": (1e-9, True),
        "tol": (0.001, False), "train-fraction": (0.6, True),
    },
    "sweep": {
        "out": ("t.csv", 1.5), "out-mean": ("m.csv", 0),
        "best-by-lambda": ("b.csv", False),
        "ranks": ([2, 3], [2.0]), "lambda-grid": ([0, 0.5], [True]),
        "mu-grid": ("0.1,0.2", [0.1, False]), "trials": (3, 3.0),
        "base-seed": (5, True), "metric": ("avg_coherence", "f1"), "n-top": (4, 4.5),
        "max-iters": (7, 7.0), "eps": (1e-9, True), "tol": (0.001, True),
        "train-fraction": (0.6, True), "jobs": (2, True),
    },
}
# Positionals, none of which is read while parsing, and a value of each
# required flag.
_BASE_ARGV = {
    "factorize": ["factorize", "corpus.txt"],
    "sweep": ["sweep", "corpus.txt", "labels.csv", "seeds.txt"],
}
_REQUIRED = {
    "factorize": {"out": "model", "rank": "2"},
    "sweep": {"out": "s.csv", "ranks": "2", "lambda-grid": "0", "mu-grid": "0"},
}
_LIST_FLAGS = ("ranks", "lambda-grid", "mu-grid")


def _base_argv(command, omit=()):
    """The positionals of ``command`` and each required flag not in ``omit``."""
    return [*_BASE_ARGV[command], *(f"--{key}={text}" for key, text
                                    in _REQUIRED[command].items() if key not in omit)]


def _parse(argv):
    """``main(argv)`` stopped where its command would run.

    Returns the exit code, the parsed arguments but ``config`` and ``func``,
    and stderr.
    """
    got = {}

    def record(args):
        got.update(vars(args))
        del got["config"], got["func"]

    err = io.StringIO()
    with ExitStack() as stack:
        for name in ("run_factorize", "run_sweep"):
            stack.enter_context(patch.object(cli, name, record))
        stack.enter_context(redirect_stderr(err))
        code = main([str(a) for a in argv])
    return code, got, err.getvalue()


def _cli_text(key, value):
    """The command-line text a config value stands for, or None if none."""
    if isinstance(value, list) and key in _LIST_FLAGS:
        return ",".join(map(str, value))
    if isinstance(value, (str, int, float)):
        return str(value)
    return None


def _with_config(tmp_path, command, cfg):
    """``_parse`` of ``command`` with ``cfg`` as its config file, the required
    flags ``cfg`` does not name given as flags."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), "utf-8")
    return _parse([*_base_argv(command, cfg), "--config", path])


def test_flag_values_cover_every_flag():
    _, commands = cli.build_parser()
    for command, values in _FLAG_VALUES.items():
        flags = {a.option_strings[-1][2:] for a in commands[command]._actions
                 if a.option_strings}
        assert flags - {"help", "config"} == set(values)


@pytest.mark.parametrize("command, cfg, missing", [
    ("factorize", {}, ["rank"]),
    ("factorize", {"rank": 2}, ["out"]),
    ("sweep", {"ranks": [2], "mu-grid": [0]}, ["lambda-grid"]),
    ("sweep", {"max-iters": 5}, ["ranks", "lambda-grid", "mu-grid"]),
])
def test_required_flag_in_neither_source_exits_2_before_any_file_but_the_config(
        tmp_path, monkeypatch, capsys, command, cfg, missing):
    monkeypatch.chdir(tmp_path)
    argv, read = _base_argv(command, {*cfg, *missing}), []
    if cfg:
        (tmp_path / "config.json").write_text(json.dumps(cfg), "utf-8")
        argv, read = [*argv, "--config", "config.json"], ["config.json"]
    opened = _spy_on_open(monkeypatch)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: the following arguments are required: "
                                   + ", ".join(f"--{flag}" for flag in missing) + "\n")
    assert opened == read and os.listdir(tmp_path) == read


@pytest.mark.parametrize("command, key, which", [
    (command, key, which) for command, values in _FLAG_VALUES.items()
    for key in values for which in ("valid", "other-type")
])
def test_config_value_parses_like_the_same_text_as_a_flag(tmp_path, command, key, which):
    value = _FLAG_VALUES[command][key][which == "other-type"]
    code, got, err = _with_config(tmp_path, command, {key: value})
    want_code, want, _ = _parse([*_base_argv(command, {key}),
                                 f"--{key}={_cli_text(key, value)}"])
    assert (code, got) == (want_code, want)
    if code == 0:
        assert got != _parse(_base_argv(command))[1]  # the value arrived
    else:
        assert err.startswith(f"error: config key '{key}': ")
    assert code == 0 if which == "valid" else code in (0, 2)


@pytest.mark.parametrize("command, cfg, key", [
    ("factorize", {"rank": 2.9}, "rank"),
    ("factorize", {"max-iters": True}, "max-iters"),
    ("sweep", {"ranks": [2.9], "lambda-grid": [0], "mu-grid": [0]}, "ranks"),
    ("ingest", {"stopwords": ["a"]}, "stopwords"),
], ids=["rank-float", "max-iters-bool", "ranks-float", "stopwords-list"])
def test_config_value_the_flag_refuses_exits_2(workspace, capsys, command, cfg, key):
    path = workspace["root"] / "config.json"
    path.write_text(json.dumps(cfg), "utf-8")
    argv = {
        "factorize": ["factorize", workspace["corpus_file"]],
        "sweep": ["sweep", workspace["corpus_file"], workspace["labels"],
                  workspace["seeds"]],
        "ingest": ["ingest", workspace["corpus_dir"]],
    }[command]
    out = workspace["root"] / "out"
    capsys.readouterr()
    assert main([str(a) for a in argv] + ["--out", str(out), "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config key '{key}': ")
    assert not out.exists()


def test_config_seeds_value_is_a_file_name(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seeds": 7}), "utf-8")
    capsys.readouterr()
    assert main(["factorize", str(workspace["corpus_file"]), "--out", "m",
                 "--rank", "2", "--lambda", "0.1", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'7'" in err and "descriptor" not in err

    (tmp_path / "7").write_text("gangx\n", "utf-8")
    assert main(["factorize", str(workspace["corpus_file"]), "--out", "m",
                 "--rank", "2", "--lambda", "0.1", "--max-iters", "3",
                 "--config", str(path)]) == 0


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5,
)


# (command, config object of its known keys)
_CONFIGS = st.sampled_from(sorted(_FLAG_VALUES)).flatmap(lambda command: st.tuples(
    st.just(command),
    st.dictionaries(st.sampled_from(sorted(_FLAG_VALUES[command])), _JSON, max_size=3),
))


@given(case=_CONFIGS)
@example(case=("factorize", {"rank": "3", "lambda": float("nan"), "seeds": True}))
@example(case=("sweep", {"ranks": "2,3", "metric": "f1", "lambda-grid": [[0]]}))
def test_config_fuzz_parses_like_flags(tmp_path_factory, case):
    """A config object of known keys with any JSON values parses, or exits 2
    naming its key; each value parses as its text does on the command line."""
    command, cfg = case
    code, got, err = _with_config(tmp_path_factory.getbasetemp(), command, cfg)
    texts = {key: _cli_text(key, value) for key, value in cfg.items()}
    if None in texts.values():
        assert code == 2 and err.startswith("error: config key '"), err
        return
    want_code, want, _ = _parse([*_base_argv(command, cfg),
                                 *(f"--{key}={text}" for key, text in texts.items())])
    assert code == want_code
    if code == 0:
        assert repr(sorted(got.items())) == repr(sorted(want.items()))
    else:
        assert code == 2 and err.startswith("error: config key '"), err
