"""gssnmf benchmark: seeded workloads driven through the real CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_chain --seed 1 --seconds 50 --trace 0

Every command runs as ``python -m gssnmf <command>`` in its own process with
BLAS pinned to one thread, exactly as a user runs it. The timed sweep runs
with ``--jobs 1``: on a two-CPU host the second CPU's availability swings
from run to run, which made a two-worker sweep's wall time too unsteady to
gate. The worker pool is measured in the traced run instead. The benchmark:

1. generates the workload's inputs from ``--seed``;
2. repeats the workload's command chain until ``--seconds`` have passed (at
   least five times), timing each command from outside and reading its peak
   RSS from ``os.wait4``; between chains it times ``SETUPS_PER_GAP`` more
   set-ups into a scratch directory, and reports the median set-up as
   ``setup_s``;
3. checks the outputs of the first chain against numpy recomputations and
   the outputs of later chains against the first, byte for byte.

With ``--trace 1`` it instead runs the chain once untraced and once under
``tracer.py`` (timing wrappers in every gssnmf module), plus an untraced
sweep with ``POOL_JOBS`` workers for the pool's parallel efficiency, and
reports per-layer metrics. The metric names and units of each mode are
read from ``BENCHMARK.json``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The lines before
it give every metric by name and unit, and the environment block.
``--smoke`` runs tiny inputs in a few seconds, for the benchmark's tests.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
MIN_REPS = 5
SETUPS_PER_GAP = 3
STARTUP_REPS = 5
POOL_JOBS = min(2, os.cpu_count() or 1)
COMMAND_TIMEOUT_S = 150
N_TOP = 30


@dataclass(frozen=True)
class Workload:
    size: object
    smoke: object
    iters: int
    smoke_iters: int


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "paper_chain": Workload(
        size=gen.TextSize(n_docs=500, doc_len=200, n_classes=7,
                          exclusive_bases=60, shared_bases=40,
                          background_bases=1000, forms_per_base=5),
        smoke=gen.TextSize(n_docs=60, doc_len=60, n_classes=7,
                           exclusive_bases=12, shared_bases=8,
                           background_bases=60, forms_per_base=3),
        iters=200, smoke_iters=10),
    "sweep_grid": Workload(
        size=gen.MatrixSize(n_terms=600, n_docs=700, density=0.05, n_classes=7),
        smoke=gen.MatrixSize(n_terms=100, n_docs=120, density=0.1, n_classes=7),
        iters=50, smoke_iters=5),
}


@dataclass
class CmdResult:
    name: str
    wall_s: float
    rss_mb: float
    rc: int


class Run:
    """Inputs, environment and op counts of one benchmark run."""

    def __init__(self, root: Path, workload: str, seed: int, smoke: bool, work: Path):
        self.root = root
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.inputs = work / "inputs"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failures: list[str] = []

    # -- ops -------------------------------------------------------------

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def check(self, fn, *args) -> None:
        """One op: ``fn(*args)`` returns ``(name, ok, detail)``; raising fails it."""
        try:
            name, ok, detail = fn(*args)
        except Exception as exc:  # noqa: BLE001  (any failure is a failed op)
            name, ok, detail = fn.__name__, False, f"{type(exc).__name__}: {exc}"
        self.op(name, ok, detail)

    # -- inputs ----------------------------------------------------------

    def size(self):
        return self.spec.smoke if self.smoke else self.spec.size

    def iters(self) -> int:
        return self.spec.smoke_iters if self.smoke else self.spec.iters

    def setup(self, out: Path) -> None:
        if isinstance(self.size(), gen.TextSize):
            gen.write_text_inputs(out, self.seed, self.size())
        else:
            gen.write_matrix_inputs(out, self.seed, self.size())

    def n_top(self) -> int:
        return 10 if self.smoke else N_TOP

    def chain(self, out: Path, jobs: int = 1) -> list[list[str]]:
        """The workload's command lines, writing under ``out``."""
        inp = self.inputs
        labels, seeds = str(inp / "labels.csv"), str(inp / "seeds.txt")
        if self.name == "sweep_grid":
            return [["sweep", str(inp / "corpus.txt"), labels, seeds,
                     "--out", str(out / "sweep.csv"), "--ranks", "6,7",
                     "--lambda-grid", "0,0.3", "--mu-grid", "0,0.006",
                     "--trials", "2", "--max-iters", str(self.iters()),
                     "--metric", "avg_coherence", "--n-top", str(self.n_top()),
                     "--jobs", str(jobs)]]
        corpus, res = str(out / "corpus.txt"), str(out / "res")
        return [
            ["ingest", str(inp / "docs"), "--out", corpus,
             "--max-features", "150" if self.smoke else "700"],
            ["rank-scan", corpus, "--out", str(out / "rank.csv"), "--top", "20"],
            ["factorize", corpus, "--out", res, "--rank", "7", "--lambda", "0.3",
             "--mu", "0.006", "--seeds", seeds, "--labels", labels,
             "--max-iters", str(self.iters())],
            ["classify", res, labels, res + "/mask.json",
             "--out", str(out / "classify.json")],
            ["coherence", res, corpus, "--n-top", str(self.n_top()),
             "--out", str(out / "coherence.json")],
        ]

    # -- commands --------------------------------------------------------

    def run_command(self, label: str, args: list[str], cwd: Path) -> CmdResult:
        """Run ``python <args>`` through ``spawn.py``, which times it and reads
        its peak RSS from ``wait4``; output goes to ``<label>.log``."""
        read_fd, write_fd = os.pipe()
        with open(cwd / f"{label}.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-S", str(HERE / "spawn.py"), str(write_fd),
                 str(COMMAND_TIMEOUT_S), sys.executable, *args],
                cwd=cwd, env=self.env, stdout=log, stderr=log, pass_fds=(write_fd,))
        os.close(write_fd)
        with os.fdopen(read_fd) as fh:
            report = fh.read()
        rc = proc.wait()
        if rc != 0 or not report:
            return CmdResult(label, 0.0, 0.0, rc or -1)
        got = json.loads(report)
        return CmdResult(label, got["wall_s"], got["rss_mb"], got["rc"])

    def run_chain(self, out: Path, prefix: list[str], jobs: int = 1,
                  span_dir: Path | None = None) -> tuple[float, list[CmdResult]]:
        """Run the chain once; stops at the first failing command.

        The chain's wall time is the sum of its commands' wall times.
        """
        out.mkdir(parents=True)
        results = []
        for i, argv in enumerate(self.chain(out, jobs)):
            name, pre = argv[0], prefix
            if span_dir is not None:
                pre = [*prefix, "--spans", str(span_dir / f"{i}-{name}.json"), "--"]
            res = self.run_command(name, [*pre, *argv], out)
            results.append(res)
            if not self.op(f"{name} exit code", res.rc == 0,
                           f"exit {res.rc}, see {out / (name + '.log')}"):
                break
        return sum(r.wall_s for r in results), results

    # -- checks ----------------------------------------------------------

    def check_outputs(self, out: Path) -> dict:
        """Output checks on one chain; returns the reported quality figures.

        Outputs that cannot be read count as one failed op.
        """
        quality: dict = {}
        self.check(self._check_outputs, out, quality)
        return quality

    def _check_outputs(self, out: Path, quality: dict):
        from gssnmf.stemmer import porter_stem

        if self.name == "sweep_grid":
            x, _, _ = checks.load_corpus_file(self.inputs / "corpus.txt")
            quality["shape"] = x.shape
            quality["density"] = np.count_nonzero(x) / x.size
            rows = checks.sweep_rows(out / "sweep.csv")
            quality["avg_coherence"] = statistics.fmean(float(r[4]) for r in rows)
            self.check(self._check_sweep_cell, out, rows[self.seed % len(rows)][:4])
            return "sweep outputs readable", True, ""
        corpus = checks.load_corpus_file(out / "corpus.txt")
        quality["shape"] = corpus[0].shape
        quality["density"] = np.count_nonzero(corpus[0]) / corpus[0].size
        res = out / "res"
        self.check(checks.check_losses, res, corpus, self.inputs / "seeds.txt",
                   self.inputs / "labels.csv", porter_stem)
        self.check(checks.check_trace, res)
        self.check(checks.check_macro_f1, res, self.inputs / "labels.csv",
                   corpus[2], out / "classify.json")
        self.check(checks.check_coherence, res, corpus, out / "coherence.json",
                   self.n_top())
        manifest = json.loads((res / "manifest.json").read_text(encoding="utf-8"))
        quality["final_objective"] = manifest["final_losses"]["total"]
        quality["macro_f1"] = json.loads(
            (out / "classify.json").read_text(encoding="utf-8"))["macro_f1"]
        quality["avg_coherence"] = json.loads(
            (out / "coherence.json").read_text(encoding="utf-8"))["avg_coherence"]
        return "chain outputs readable", True, ""

    def _check_sweep_cell(self, out: Path, cell: tuple):
        return checks.check_sweep_cell(out / "sweep.csv", cell, self.sweep_cell(cell))

    def sweep_cell(self, cell: tuple) -> float:
        """Re-evaluate one sweep cell in-process through the public API."""
        from gssnmf.evaluation import avg_coherence, coherence
        from gssnmf.factorization import ModelConfig, fit, top_keywords
        from gssnmf.supervision import (build_label_matrix, build_seed_matrix,
                                        load_label_assignments, load_seed_words,
                                        split_mask)
        from gssnmf.textpipe import doc_token_sets, load_corpus

        rank, lam, mu, trial = cell
        corpus = load_corpus(self.inputs / "corpus.txt")
        seeds = build_seed_matrix(load_seed_words(self.inputs / "seeds.txt"),
                                  corpus.vocab)
        labels = build_label_matrix(load_label_assignments(self.inputs / "labels.csv"),
                                    corpus.doc_ids)
        mask = split_mask(corpus.n_docs, 0.7, trial, len(labels.label_names))
        config = ModelConfig(rank=rank, lam=lam, mu=mu, max_iters=self.iters(),
                             rng_seed=trial)
        result = fit(corpus.x, config, y=seeds.y, z=labels.z, l=mask)
        sets = doc_token_sets(corpus)
        return avg_coherence([
            coherence(top_keywords(result.w, corpus.vocab, t, self.n_top()), sets)
            for t in range(rank)
        ])


def _digest(root: Path) -> dict[str, str]:
    """SHA-256 of every output file under ``root`` except command logs."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file() and p.suffix != ".log"
    }


def environment(root: Path, run: Run, quality: dict) -> dict:
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    revision = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse",
                               "HEAD"], capture_output=True, text=True)
        revision = proc.stdout.strip() or None
    shape = quality.get("shape")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "sweep_jobs": {"timed": 1, "pool": POOL_JOBS},
        "git_revision": revision,
        "workload": run.name,
        "seed": run.seed,
        "smoke": run.smoke,
        "matrix_shape": list(shape) if shape else None,
        "matrix_density": quality.get("density"),
    }


def measure(run: Run, seconds: float) -> dict:
    """Untraced run: set-up repeats, then chains for ``seconds``."""
    import gssnmf.textpipe  # noqa: F401  (imported before timing set-up)

    def timed_setup(target: Path) -> None:
        t0 = perf_counter()
        run.setup(target)
        setups.append(perf_counter() - t0)

    start = perf_counter()
    setups: list[float] = []
    timed_setup(run.inputs)
    module = ["-m", "gssnmf"]
    # RSS of the interpreter with gssnmf imported and no data, for reading
    # how much of peak_rss_mb the workload's data takes.
    import_rss = run.run_command("import", ["-c", "import gssnmf.cli"], run.work)
    run.op("import exit code", import_rss.rc == 0, f"exit {import_rss.rc}")
    walls, rss, per_cmd = [], [], {}
    first = None
    quality: dict = {}
    while True:
        if walls:
            # More set-up samples between chains, so that set-up is sampled
            # across the whole run like the chains are.
            for _ in range(SETUPS_PER_GAP):
                timed_setup(run.work / "setup")
                shutil.rmtree(run.work / "setup")
        out = run.work / f"rep{len(walls)}"
        wall, results = run.run_chain(out, module)
        if any(r.rc != 0 for r in results):  # the chain stopped at a failure
            break
        walls.append(wall)
        rss.append(max(r.rss_mb for r in results))
        for r in results:
            per_cmd.setdefault(r.name, []).append(r.wall_s)
        if first is None:
            first = out
            quality = run.check_outputs(out)
        else:
            run.op("outputs identical to first chain", _digest(out) == _digest(first),
                   f"{out} differs from {first}")
            shutil.rmtree(out)
        elapsed = perf_counter() - start
        if len(walls) >= MIN_REPS and elapsed + statistics.fmean(walls) > seconds:
            break
    metrics = {"setup_s": statistics.median(setups)}
    if walls:
        metrics["chain_s"] = statistics.median(walls)
        metrics["peak_rss_mb"] = statistics.median(rss)
    if "avg_coherence" in quality:
        # UMass coherence is negative; its negation is a positive figure
        # for which lower is better.
        metrics["neg_avg_coherence"] = -quality["avg_coherence"]
    extra = {f"{c.replace('-', '_')}_s": statistics.median(v) for c, v in per_cmd.items()}
    extra["import_rss_mb"] = import_rss.rss_mb
    for key in ("macro_f1", "final_objective"):
        if key in quality:
            extra[key] = quality[key]
    extra["chains"] = len(walls)
    extra["chain_walls_s"] = walls
    extra["setup_walls_s"] = setups
    return {"metrics": metrics, "extra": extra, "quality": quality}


def measure_traced(run: Run) -> dict:
    """Traced run: per-layer metrics from one chain under the tracer."""
    span_dir = run.work / "spans"
    span_dir.mkdir(parents=True)
    setup_tracer = tracer.Tracer()
    setup_tracer.install()
    try:
        run.setup(run.inputs)
    finally:
        setup_tracer.uninstall()
    setup_tracer.dump(span_dir / "setup.json")

    module = ["-m", "gssnmf"]
    ref_out = run.work / "untraced"
    _, reference = run.run_chain(ref_out, module)
    pool: list[CmdResult] = []
    if run.name == "sweep_grid":
        _, pool = run.run_chain(run.work / "pool", module, POOL_JOBS)
    traced_out = run.work / "traced"
    _, traced = run.run_chain(traced_out, [str(HERE / "tracer.py")], span_dir=span_dir)
    complete = all(r.rc == 0 for chain in (reference, pool, traced) for r in chain)
    quality: dict = {}
    if complete:
        quality = run.check_outputs(traced_out)
        run.op("traced outputs identical to untraced", _digest(traced_out) ==
               _digest(ref_out), "tracing changed an output file")
        if pool:
            run.op("pool outputs identical to serial", _digest(run.work / "pool") ==
                   _digest(ref_out), "--jobs changed the sweep output")

    startup = []
    for _ in range(STARTUP_REPS):
        startup.append(
            run.run_command("startup", ["-c", "import gssnmf.cli"], run.work).wall_s)
    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(span_dir.glob("*.json"))]
    pool_s = sum(r.wall_s for r in pool)
    metrics = tracer.layer_metrics(records, POOL_JOBS * pool_s)
    metrics["cli.startup_s"] = statistics.median(startup)
    ref_s = sum(r.wall_s for r in reference)
    traced_s = sum(r.wall_s for r in traced)
    metrics["trace.overhead_frac"] = traced_s / ref_s - 1.0 if complete else 0.0
    kept = run.root / ".bench_work" / "traces" / f"{run.name}-seed{run.seed}"
    shutil.rmtree(kept, ignore_errors=True)
    shutil.copytree(span_dir, kept)
    return {"metrics": metrics, "extra": {}, "quality": quality, "spans": kept}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gssnmf benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gssnmf" / "cli.py").is_file():
        print(f"error: {root} holds no gssnmf source tree (src/gssnmf)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    run = Run(root, args.workload, args.seed, args.smoke, work)
    try:
        if args.trace:
            result = measure_traced(run)
        else:
            result = measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    missing = [name for name in units if name not in metrics]
    run.op("every metric measured", not missing, f"no value for {missing}")
    env = environment(root, run, result["quality"])
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        if name in metrics:
            note = "  (computed from shapes)" if name in tracer.COMPUTED else ""
            print(f"{name:45s} {metrics[name]!r:>24} {unit}{note}")
    for name, value in result["extra"].items():
        unit = ("s" if name.endswith("_s") else "MB" if name.endswith("_mb")
                else "count" if name == "chains" else "1")
        print(f"{name:45s} {value!r:>24} {unit}  (not gated)")
    if "spans" in result:
        print(f"spans kept in {result['spans']}")
    print(f"{'ops_attempted':45s} {run.attempted:>24} count")
    print(f"{'ops_failed':45s} {len(run.failures):>24} count")
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
