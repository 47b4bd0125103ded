import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import ExitStack, redirect_stderr
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gssnmf import cli
from gssnmf.cli import main
from gssnmf.evaluation import load_report
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
    assert "out of range" in capsys.readouterr().err


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
    report = load_report(report_path)
    assert report.label_names == ["gang", "theft"]
    assert 0.0 <= report.macro_f1 <= 1.0
    assert len(report.per_class_f1) == 2
    # two cleanly separated classes with anchors should classify well
    assert report.macro_f1 > 0.6


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
    report = load_report(report_path)
    assert report.macro_f1 == 1.0
    assert report.per_class_f1 == [1.0, 1.0]


def test_sweep_error_identifies_failing_cell(workspace, tmp_path, capsys):
    # n_top larger than the vocabulary makes the coherence metric fail
    args = [
        "sweep", str(workspace["corpus_file"]), str(workspace["labels"]),
        str(workspace["seeds"]),
        "--out", str(tmp_path / "s.csv"),
        "--ranks", "2", "--lambda-grid", "0.1", "--mu-grid", "0.05",
        "--trials", "1", "--max-iters", "5",
        "--metric", "avg_coherence", "--n-top", "9999",
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "sweep cell (rank=2, lambda=0.1, mu=0.05, trial=0)" in err


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


@pytest.mark.parametrize("mangle", [
    lambda m: {**m, "config": {**m["config"], "bogus": 1}},  # unknown key
    lambda m: {k: v for k, v in m.items() if k != "config"},  # missing key
    lambda m: [m],  # not a JSON object
    lambda m: {**m, "doc_ids": 5},  # doc_ids not a list
], ids=["unknown-config-key", "missing-config", "list", "doc-ids-not-list"])
def test_bad_manifest_exits_2_naming_it(workspace, capsys, mangle):
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
    report = load_report(report_path)
    assert len(report.per_topic_coherence) == 2
    assert len(report.topics) == 2 and len(report.topics[0]) == 5
    assert report.avg_coherence == pytest.approx(
        sum(report.per_topic_coherence) / 2
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
    report = load_report(report_path)
    assert report.avg_coherence == report.per_topic_coherence[0]


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


def test_sweep_cells_do_not_check_x_again(workspace, tmp_path, monkeypatch):
    from gssnmf import factorization, linalg

    shape = load_corpus(workspace["corpus_file"]).x.shape
    shapes = []

    def counting(a):
        out = linalg.as_matrix(a)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(factorization, "as_matrix", counting)
    assert main(_sweep_args(workspace, tmp_path, extra=(
        "--metric", "avg_coherence", "--n-top", "5", "--jobs", "1",
    ))) == 0
    assert shapes and shape not in shapes


def test_cli_import_leaves_process_pool_unloaded():
    code = ("import sys, gssnmf.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_sweep_rejects_jobs_below_one(workspace, tmp_path, capsys):
    assert main(_sweep_args(workspace, tmp_path, extra=("--jobs", "0"))) == 2
    assert capsys.readouterr().err.startswith("error: --jobs")
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


def test_sweep_spec_validation():
    from gssnmf.cli import SweepSpec

    with pytest.raises(ValueError, match="non-empty"):
        SweepSpec([], [0.1], [2], 1, 0, 0.7, "macro_f1")
    with pytest.raises(ValueError, match="trials"):
        SweepSpec([0.1], [0.1], [2], 0, 0, 0.7, "macro_f1")
    with pytest.raises(ValueError, match="metric"):
        SweepSpec([0.1], [0.1], [2], 1, 0, 0.7, "f2")
    with pytest.raises(ValueError, match=">= 0"):
        SweepSpec([-0.1], [0.1], [2], 1, 0, 0.7, "macro_f1")
    spec = SweepSpec([0.2, 0.1], [0.3], [2], 2, 5, 0.7, "macro_f1")
    assert spec.cells() == [
        (2, 0.1, 0.3, 0), (2, 0.1, 0.3, 1), (2, 0.2, 0.3, 0), (2, 0.2, 0.3, 1),
    ]


def test_sweep_spec_rejects_non_finite_grid_values():
    from gssnmf.cli import SweepSpec

    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SweepSpec([0.1, bad], [0.1], [2], 1, 0, 0.7, "macro_f1")
        with pytest.raises(ValueError, match="finite"):
            SweepSpec([0.1], [bad], [2], 1, 0, 0.7, "macro_f1")


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
    "corpus-fields": ("corpus.txt", lambda t: _line(2, t.splitlines()[1].rsplit(",", 1)[0])(t),
                      "rank-scan", 2),
    "corpus-number": ("corpus.txt", _field(3, 0, "zz"), "coherence", 3),
    "corpus-nan": ("corpus.txt", _field(2, 0, "nan"), "rank-scan", 2),
    "corpus-rows": ("corpus.txt", lambda t: t + t.splitlines()[1] + "\n", "rank-scan", 20),
    "corpus-json": ("corpus.txt", lambda t: t.replace("{", "{{", 1), "rank-scan", 1),
    "mean-fields": ("mean.csv", _line(3, "2,0.0,0.1"), "plot-heatmap", 3),
    "mean-number": ("mean.csv", _field(2, 1, "abc"), "plot-heatmap", 2),
    "mean-nan": ("mean.csv", _field(3, 3, "nan"), "plot-heatmap", 3),
    "mean-rank": ("mean.csv", _field(2, 0, "x"), "plot-heatmap", 2),
    "mean-rank-float": ("mean.csv", _field(3, 0, "2.5"), "plot-heatmap", 3),
    "config-json": ("config.json", lambda t: t.replace("5\n", "5,\n"), "config", 4),
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
    assert err.startswith(f"error: {where}"), err


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


def test_load_report_names_the_line_of_a_syntax_error(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{\n  "macro_f1": 0.5,\n}\n', "utf-8")
    with pytest.raises(ValueError, match=f"^{path}:3: invalid report: "):
        load_report(path)


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


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
    assert capsys.readouterr().err == "error: --n-top must be >= 2, got 1\n"
    assert read == [] and not out.exists()


# --- config files ----------------------------------------------------------

# Two JSON values for every optional flag of factorize and sweep: a valid
# one, and one of another JSON type whose text the flag refuses (or, for a
# file name, takes as text).
_FLAG_VALUES = {
    "factorize": {
        "rank": (3, 2.9), "lambda": (0.25, True), "mu": ("0.5", False),
        "rng-seed": (4, True), "seeds": ("s.txt", 7), "labels": ("l.csv", 1.5),
        "split-seed": ("2", 2.0), "max-iters": (7, True), "eps": (1e-9, True),
        "tol": (0.001, False), "train-fraction": (0.6, True),
    },
    "sweep": {
        "out-mean": ("m.csv", 0), "best-by-lambda": ("b.csv", False),
        "ranks": ([2, 3], [2.0]), "lambda-grid": ([0, 0.5], [True]),
        "mu-grid": ("0.1,0.2", [0.1, False]), "trials": (3, 3.0),
        "base-seed": (5, True), "metric": ("avg_coherence", "f1"), "n-top": (4, 4.5),
        "max-iters": (7, 7.0), "eps": (1e-9, True), "tol": (0.001, True),
        "train-fraction": (0.6, True), "jobs": (2, True),
    },
}
# Positionals and the required --out; none reads a file while parsing.
_BASE_ARGV = {
    "factorize": ["factorize", "corpus.txt", "--out", "model"],
    "sweep": ["sweep", "corpus.txt", "labels.csv", "seeds.txt", "--out", "s.csv"],
}
_LIST_FLAGS = ("ranks", "lambda-grid", "mu-grid")


def _parse(argv):
    """``main(argv)`` stopped where its command would run.

    Returns the exit code, the parsed arguments but ``config`` and ``func``,
    and stderr.
    """
    got = {}

    def record(args):
        got.update(vars(args))
        del got["config"], got["func"]
        return 0

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
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), "utf-8")
    return _parse([*_BASE_ARGV[command], "--config", path])


def test_flag_values_cover_every_optional_flag():
    _, commands = cli.build_parser()
    for command, values in _FLAG_VALUES.items():
        flags = {a.option_strings[-1][2:] for a in commands[command].flags.values()
                 if a.option_strings and not a.required}
        assert flags - {"help", "config"} == set(values)


@pytest.mark.parametrize("command, key, which", [
    (command, key, which) for command, values in _FLAG_VALUES.items()
    for key in values for which in ("valid", "other-type")
])
def test_config_value_parses_like_the_same_text_as_a_flag(tmp_path, command, key, which):
    value = _FLAG_VALUES[command][key][which == "other-type"]
    code, got, err = _with_config(tmp_path, command, {key: value})
    want_code, want, _ = _parse([*_BASE_ARGV[command],
                                 f"--{key}={_cli_text(key, value)}"])
    assert (code, got) == (want_code, want)
    if code == 0:
        assert got != _parse(_BASE_ARGV[command])[1]  # the value arrived
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
    want_code, want, _ = _parse([*_BASE_ARGV[command],
                                 *(f"--{key}={text}" for key, text in texts.items())])
    assert code == want_code
    if code == 0:
        assert repr(sorted(got.items())) == repr(sorted(want.items()))
    else:
        assert code == 2 and err.startswith("error: config key '"), err
