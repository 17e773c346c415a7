"""The four benchmark workloads and the correctness gate.

A workload has a ``generate`` that builds its inputs from a seed with the
library's generators, a ``prepare`` that adds their known answers and any
input files, and a ``run_pass`` that sends one batch of inputs through the
library, closed loop with one caller, and returns the latency of every item
in the batch.  Only the library calls are timed; each output is checked
against its known answer after the timed block.  The library is always
reached through the package (``lib.name``) at call time, so the wrappers
of a traced run see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

clock = time.perf_counter

# Round-trip tolerance on standardized matrices, as in the acceptance suite.
TOL = 1e-9
# Library and oracle compute chi and B with the same formulas in another
# summation or association order.
EXACT_TOL = 1e-12
KINDS = ("general", "polytree", "homogeneous")
ALPHAS = (0.5, 1.0, 2.0)

# Failures with a known cause are counted in ``failed`` like any other and
# reported under these names; they do not clear ``correct``, which flags
# failures nobody has explained yet.  Both come from the fixed 1e-9
# tolerances of the row recursion and the validity check, and a failure is
# filed under one only when its own evidence shows that cause.
#
# The recursion snaps entries within an absolute 1e-9 of zero, while on
# most seeds a general model at d = 200 has true entries, diagonal ones
# among them, between 1e-10 and 1e-23: the recovery returns a wrong matrix
# or rejects a valid one.  See ``snapped_entry``.
LARGE_RECOVERY_DEFECT = "recover_from_reachability snaps true entries at or below 1e-9"
# At d = 100 the recovered matrix is within 1e-15 of the truth, but that is
# a relative 1e-9 on entries near 1e-7, and is_mlcm, whose tolerance is a
# relative 1e-9, rejects it on some seeds.  Known only while the recovered
# file does match the truth.
RECOVERED_CHECK_DEFECT = "is_mlcm rejects a correctly recovered matrix at d = 100"


# -- correctness gate --------------------------------------------------------


@dataclass
class Outcome:
    value: object = None
    error: Exception | None = None


def attempt(fn: Callable, *args) -> Outcome:
    """Call into the library; an exception becomes part of the outcome."""
    try:
        return Outcome(fn(*args))
    except Exception as exc:  # the gate judges it against the known answer
        # The traceback's frames hold the call's arguments in a reference
        # cycle, which would keep a pass's sample alive into the next pass
        # and inflate peak_rss_mb.
        return Outcome(error=exc.with_traceback(None))


def _matches(got, expected: np.ndarray, tol: float, relative: bool = False,
             support: bool = True) -> tuple[bool, str]:
    try:
        got = np.asarray(got, dtype=float)
    except (TypeError, ValueError):
        return False, f"not a numeric matrix: {type(got).__name__}"
    if got.shape != expected.shape:
        return False, f"shape {got.shape}, expected {expected.shape}"
    if not np.isfinite(got).all():
        return False, "non-finite entries"
    differs = (got > 0) != (expected > 0)
    if support and differs.any():
        j, i = map(int, np.argwhere(differs)[0])
        return False, f"support differs at ({j + 1},{i + 1}): {got[j, i]!r} vs {expected[j, i]!r}"
    error = np.abs(got - expected)
    if relative:
        error = error / np.maximum(np.abs(expected), np.finfo(float).tiny)
    worst = float(error.max(initial=0.0))
    return worst <= tol, f"max error {worst:.3g} > {tol:g}"


class Gate:
    """Counts checked operations and the ones whose output was wrong.

    A failure is a wrong answer against the known truth, a wrong verdict,
    an expected rejection that did not happen, or an unexpected exception.

    Every pass repeats the same operations on the same inputs, and an
    operation is counted once per run however many passes repeat it: the
    n-th check labelled ``op`` in a pass is the same operation in every
    pass.  It is failed if it failed in any pass.  So ``attempted`` and
    ``failed`` depend on the seed and the code, not on how many passes
    fitted into the time.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known: Counter = Counter()
        self.unexplained: list[str] = []
        self._checked: set = set()
        self._failures: set = set()
        self._in_pass: Counter = Counter()

    @property
    def correct(self) -> bool:
        return not self.unexplained

    def new_pass(self) -> None:
        self._in_pass.clear()

    def check(self, op: str, ok: bool, detail: str = "", known_defect: str | None = None) -> bool:
        key = (op, self._in_pass[op])
        self._in_pass[op] += 1
        if key not in self._checked:
            self._checked.add(key)
            self.attempted += 1
        if ok:
            return True
        if key in self._failures:
            return False
        self._failures.add(key)
        self.failed += 1
        if known_defect:
            self.known[known_defect] += 1
        else:
            self.unexplained.append(f"{op}: {detail}")
        return False

    def error(self, op: str, outcome: Outcome, known_defect: str | None = None) -> bool:
        """An exception where an answer was expected."""
        error = outcome.error
        return self.check(op, False, f"raised {type(error).__name__}: {error}", known_defect)

    def matrix(self, op, outcome, expected, tol=TOL, relative=False, support=True,
               known_defect=None) -> bool:
        if outcome.error is not None:
            return self.error(op, outcome, known_defect)
        ok, detail = _matches(outcome.value, expected, tol, relative, support)
        return self.check(op, ok, detail, known_defect)

    def verdict(self, op, outcome, expected: bool, reason: str | None = None) -> bool:
        if outcome.error is not None:
            return self.error(op, outcome)
        got = bool(outcome.value)
        ok = got == expected and (reason is None or outcome.value.reason == reason)
        return self.check(op, ok, f"verdict {outcome.value!r}, expected {expected} ({reason})")

    def raises(self, op, outcome, error_type) -> bool:
        ok = isinstance(outcome.error, error_type)
        got = "no error" if outcome.error is None else type(outcome.error).__name__
        return self.check(op, ok, f"{got}, expected {error_type.__name__}")

    def contains(self, op, outcome, expected, tol=TOL) -> bool:
        if outcome.error is not None:
            return self.error(op, outcome)
        found = any(_matches(m.std_mlcm, expected, tol)[0] for m in outcome.value)
        return self.check(op, found, f"generating matrix not among {len(outcome.value)} models")


# -- model inputs with known answers -----------------------------------------


@dataclass(eq=False)
class Case:
    """One model with everything known about it from its construction."""

    kind: str
    model: object
    b: np.ndarray
    bbar: np.ndarray
    chi: np.ndarray
    reach: np.ndarray
    initials: list[int]
    zeroed: np.ndarray | None = None
    other_reach: np.ndarray | None = None
    orderings: list = field(default_factory=list)
    max_weighted: bool = False


def _linear_extension(d: int, edges, rng) -> list[int]:
    children = {v: [] for v in range(1, d + 1)}
    indeg = {v: 0 for v in range(1, d + 1)}
    for k, i in edges:
        children[k].append(i)
        indeg[i] += 1
    ready = [v for v in range(1, d + 1) if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop(int(rng.integers(len(ready))))
        order.append(v)
        for c in sorted(children[v]):
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return order


def make_case(model, kind: str, orderings=(), residual=False) -> Case:
    d = model.d
    edges = sorted(model.dag.edges)
    b = oracle.coefficient_matrix(d, model.edge_weights, model.noise_scales)
    bbar = oracle.standardized(b, model.alpha)
    reach = oracle.reachability(d, edges)
    case = Case(
        kind=kind,
        model=model,
        b=b,
        bbar=bbar,
        chi=oracle.tail_dependence(bbar),
        reach=reach,
        initials=sorted(set(range(1, d + 1)) - {i for _, i in edges}),
        orderings=list(orderings),
    )
    # Known negatives: a transitively implied entry zeroed breaks the
    # support pattern, and a DAG with another common-ancestor pattern
    # cannot explain chi's zeros (no edges against some, a chain against none).
    pair = oracle.chained_pair(reach)
    if pair is not None:
        case.zeroed = bbar.copy()
        case.zeroed[pair[0] - 1, pair[1] - 1] = 0.0
    if d >= 2:
        case.other_reach = np.eye(d, dtype=np.int64) if edges else np.triu(np.ones((d, d), np.int64))
    if residual:
        case.max_weighted = oracle.max_weighted_residual(bbar) <= TOL
    return case


# -- identify-small ------------------------------------------------------------

IDENTIFY_PER_CELL = 8  # models per (kind, d) cell: 3 kinds x d = 1..8
IDENTIFY_ORDERINGS = 3
# Enumeration cost is heavy-tailed in the input: about one d = 8 polytree in
# a hundred keeps enumerate_all busy for seconds, and one d = 40 polytree in
# ten does the same to enumerate_all_rmwm.  Redrawn per seed, the models the
# enumerators see moved wall_s and model_p90_ms by 15-20% between seeds, so
# they come from this constant, as the acceptance corpus does.
CORPUS_SEED = 20250801


def identify_generate(lib, seed: int) -> list[tuple]:
    """A fixed corpus mixed like the acceptance corpus, stratified by cell.

    Each (kind, d) cell holds the same number of models, with densities
    stratified over [0.1, 0.9] and an even share of each tail index.
    ``seed`` draws the causal orderings given to recover_from_ordering.
    """
    corpus_rng = np.random.default_rng(CORPUS_SEED)
    rng = np.random.default_rng(seed)
    n = IDENTIFY_PER_CELL
    corpus = []
    for d in range(1, 9):
        for kind in KINDS:
            densities = 0.1 + 0.8 * (corpus_rng.permutation(n) + corpus_rng.random(n)) / n
            alphas = corpus_rng.permutation(np.resize(ALPHAS, n))
            for density, alpha in zip(densities, alphas):
                model = lib.random_weighted_model(
                    d,
                    density=float(density),
                    weight_range=(0.5, 2.0),
                    alpha=float(alpha),
                    seed_or_rng=corpus_rng,
                    polytree=kind == "polytree",
                    homogeneous=kind == "homogeneous",
                )
                edges = sorted(model.dag.edges)
                orderings = [
                    lib.CausalOrdering.from_node_order(_linear_extension(d, edges, rng))
                    for _ in range(IDENTIFY_ORDERINGS)
                ]
                corpus.append((kind, model, orderings))
    return corpus


def identify_prepare(lib, corpus: list[tuple], workdir: Path) -> list[Case]:
    return [make_case(model, kind, orderings) for kind, model, orderings in corpus]


def identify_pass(lib, corpus: list[Case], index: int, gate: Gate) -> list[float]:
    latencies = []
    for case in corpus:
        max_weighted = case.kind != "general"
        start = clock()
        chi = attempt(lib.tdm_from_std_mlcm, case.bbar)
        by_reach = attempt(lib.recover_from_reachability, case.chi, case.reach)
        by_order = [attempt(lib.recover_from_ordering, case.chi, o) for o in case.orderings]
        by_initials = (
            attempt(lib.recover_rmwm_from_initials, case.chi, case.initials)
            if max_weighted else None
        )
        valid = attempt(lib.is_mlcm, case.bbar)
        models = attempt(lib.enumerate_all, case.chi)
        broken = attempt(lib.is_mlcm, case.zeroed) if case.zeroed is not None else None
        mismatch = (
            attempt(lib.recover_from_reachability, case.chi, case.other_reach)
            if case.other_reach is not None else None
        )
        latencies.append(clock() - start)

        gate.matrix("tdm_from_std_mlcm", chi, case.chi, EXACT_TOL)
        gate.matrix("recover_from_reachability", by_reach, case.bbar)
        for outcome in by_order:
            gate.matrix("recover_from_ordering", outcome, case.bbar)
        if by_initials is not None:
            gate.matrix("recover_rmwm_from_initials", by_initials, case.bbar)
        gate.verdict("is_mlcm", valid, True)
        gate.contains("enumerate_all", models, case.bbar)
        if broken is not None:
            gate.verdict("is_mlcm zeroed entry", broken, False, "sign_pattern")
        if mismatch is not None:
            gate.raises("recover_from_reachability other DAG", mismatch, lib.PatternMismatchError)
    return latencies


# -- structure-large -----------------------------------------------------------

LARGE_SIZES = (100, 200)
LARGE_DENSITY = 0.3
POLYTREE_SIZE = 40
POLYTREES = 6  # drawn from CORPUS_SEED


@dataclass(eq=False)
class LargeInputs:
    general: list
    homogeneous: list
    polytrees: list
    empty_dags: list


def large_generate(lib, seed: int) -> LargeInputs:
    """The models and DAGs of a pass; ``large_prepare`` adds their answers."""
    rng = np.random.default_rng(seed)
    general = [lib.random_weighted_model(d, density=LARGE_DENSITY, alpha=1.0, seed_or_rng=rng)
               for d in LARGE_SIZES]
    corpus_rng = np.random.default_rng(CORPUS_SEED)
    return LargeInputs(
        general=general,
        homogeneous=[lib.homogeneous_model(model.dag, 1.0) for model in general],
        polytrees=[lib.random_weighted_model(POLYTREE_SIZE, alpha=1.0, seed_or_rng=corpus_rng,
                                             polytree=True) for _ in range(POLYTREES)],
        empty_dags=[lib.Dag(d, ()) for d in LARGE_SIZES],
    )


def large_prepare(lib, models: LargeInputs, workdir: Path) -> LargeInputs:
    return LargeInputs(
        general=[make_case(model, "general", residual=True) for model in models.general],
        homogeneous=[make_case(model, "homogeneous") for model in models.homogeneous],
        polytrees=[make_case(model, "polytree") for model in models.polytrees],
        empty_dags=models.empty_dags,
    )


def snapped_entry(lib, case: Case, outcome: Outcome) -> str | None:
    """LARGE_RECOVERY_DEFECT when a failed recovery shows that cause, else None.

    The model must have a true entry in (0, 1e-9], which the recursion's
    snap tolerance turns into zero, and the recovery must either reject the
    input as not realizable or return a matrix whose first wrong row, in
    the recursion's order (increasing ancestor count, then node), holds
    such an entry.  Any other exception or wrong matrix is unexplained.
    """
    tiny = (case.bbar > 0) & (case.bbar <= TOL)
    if not tiny.any():
        return None
    if outcome.error is not None:
        return LARGE_RECOVERY_DEFECT if isinstance(outcome.error, lib.NotRealizableError) else None
    try:
        got = np.asarray(outcome.value, dtype=float)
    except (TypeError, ValueError):
        return None
    if got.shape != case.bbar.shape:
        return None
    ancestors = case.reach.sum(axis=0) - 1
    for j in sorted(range(len(tiny)), key=lambda j: (ancestors[j], j)):
        if not _matches(got[j : j + 1], case.bbar[j : j + 1], TOL)[0]:
            return LARGE_RECOVERY_DEFECT if tiny[j].any() else None
    return None


def large_pass(lib, inputs: LargeInputs, index: int, gate: Gate) -> list[float]:
    elapsed = 0.0
    for case in inputs.general:
        start = clock()
        b = attempt(lib.mlcm_from_weights, case.model)
        chi = attempt(lib.tdm_from_std_mlcm, case.bbar)
        recovered = attempt(lib.recover_from_reachability, case.chi, case.reach)
        valid = attempt(lib.is_mlcm, case.bbar)
        dag = attempt(lib.minimum_ml_dag, case.bbar)
        max_weighted = attempt(lib.is_rmwm_mlcm, case.bbar)
        broken = attempt(lib.is_mlcm, case.zeroed)
        mismatch = attempt(lib.recover_from_reachability, case.chi, case.other_reach)
        elapsed += clock() - start

        d = case.model.d
        gate.matrix("mlcm_from_weights", b, case.b, EXACT_TOL, relative=True)
        gate.matrix("tdm_from_std_mlcm", chi, case.chi, EXACT_TOL)
        gate.matrix("recover_from_reachability", recovered, case.bbar,
                    known_defect=snapped_entry(lib, case, recovered))
        gate.verdict("is_mlcm", valid, True)
        if dag.error is None:
            same = np.array_equal(oracle.reachability(d, dag.value.edges), case.reach)
            gate.check("minimum_ml_dag", same, "reachability differs from the model DAG")
        else:
            gate.error("minimum_ml_dag", dag)
        gate.verdict("is_rmwm_mlcm", max_weighted, case.max_weighted)
        gate.verdict("is_mlcm zeroed entry", broken, False, "sign_pattern")
        gate.raises("recover_from_reachability other DAG", mismatch, lib.PatternMismatchError)

    for case, empty in zip(inputs.homogeneous, inputs.empty_dags):
        start = clock()
        check = attempt(lib.check_rmwm_tdm, case.model.dag, case.chi)
        max_weighted = attempt(lib.is_rmwm_mlcm, case.bbar)
        wrong_dag = attempt(lib.check_rmwm_tdm, empty, case.chi)
        elapsed += clock() - start

        gate.verdict("check_rmwm_tdm", check, True)
        if check.error is None and check.value.ok:
            gate.matrix("check_rmwm_tdm std_mlcm", Outcome(check.value.std_mlcm), case.bbar)
        gate.verdict("is_rmwm_mlcm", max_weighted, True)
        gate.verdict("check_rmwm_tdm empty DAG", wrong_dag, False)

    for case in inputs.polytrees:
        start = clock()
        models = attempt(lib.enumerate_all_rmwm, case.chi)
        elapsed += clock() - start
        gate.contains("enumerate_all_rmwm", models, case.bbar)
    return [elapsed]


# -- simulate ------------------------------------------------------------------

SAMPLE_SIZE = 200_000
SAMPLE_D = 20
QUANTILE = 0.98
# Largest |chi_hat - chi| accepted from the estimator at SAMPLE_SIZE and
# QUANTILE, as in the acceptance suite's Monte Carlo criterion.
ESTIMATE_TOL = 0.05
BLOCK_SIZE = 1000
BLOCKS = 10_000
# Kolmogorov-Smirnov distance a correct Frechet margin exceeds with
# probability below 1e-6 (Frechet noise makes the block maxima exactly
# max-stable, so only sampling error remains).
KS_TOL = oracle.dkw_bound(BLOCKS, 1e-6)


# A quantile level that leaves fewer than the 50 tail draws empirical_tdm
# requires, so the estimator must refuse it.
THIN_QUANTILE = 1.0 - 40 / SAMPLE_SIZE


@dataclass(eq=False)
class SimulateInputs:
    case: object
    pareto: object
    mismatched: object  # Pareto noise with another tail index than the model's
    sample_seed: int
    chain: object
    frechet: object
    maxima_seed: int


def simulate_generate(lib, seed: int) -> SimulateInputs:
    """The models, noise and seeds; ``simulate_prepare`` adds their answers."""
    rng = np.random.default_rng(seed)
    return SimulateInputs(
        case=lib.random_weighted_model(SAMPLE_D, density=0.3, alpha=1.0, seed_or_rng=rng),
        pareto=lib.NoiseSpec("pareto", 1.0),
        mismatched=lib.NoiseSpec("pareto", 2.0),
        sample_seed=int(rng.integers(2**31)),
        chain=lib.homogeneous_model(lib.Dag(3, {(1, 2), (2, 3)}), 1.0),
        frechet=lib.NoiseSpec("frechet", 1.0),
        maxima_seed=int(rng.integers(2**31)),
    )


def simulate_prepare(lib, inputs: SimulateInputs, workdir: Path) -> SimulateInputs:
    return replace(inputs, case=make_case(inputs.case, "general"),
                   chain=make_case(inputs.chain, "homogeneous"))


def simulate_pass(lib, inputs: SimulateInputs, index: int, gate: Gate) -> list[float]:
    case = inputs.case
    start = clock()
    block = attempt(lib.sample, case.model, inputs.pareto, SAMPLE_SIZE, inputs.sample_seed)
    estimate = attempt(lib.empirical_tdm, block.value, QUANTILE) if block.error is None else None
    thin = attempt(lib.empirical_tdm, block.value, THIN_QUANTILE) if block.error is None else None
    mismatched = attempt(lib.sample, case.model, inputs.mismatched, SAMPLE_SIZE,
                         inputs.sample_seed)
    maxima = attempt(lib.scaled_block_maxima, inputs.chain.model, inputs.frechet,
                     BLOCK_SIZE, BLOCKS, inputs.maxima_seed)
    elapsed = clock() - start

    gate.raises("sample with another tail index", mismatched, lib.ValidationError)
    if block.error is None:
        values = block.value.values
        # Pareto noise is at least one, so X_i >= max_j b_ji on every draw.
        ok = (values.shape == (SAMPLE_SIZE, SAMPLE_D) and bool(np.isfinite(values).all())
              and bool((values >= case.b.max(axis=0) * (1 - EXACT_TOL)).all()))
        gate.check("sample", ok, "draws outside the support of the model")
        gate.matrix("empirical_tdm", estimate, case.chi, ESTIMATE_TOL, support=False)
        gate.raises("empirical_tdm with too few exceedances", thin, lib.TailSampleError)
    else:
        gate.error("sample", block)
    if maxima.error is None:
        ks = oracle.frechet_ks(maxima.value, inputs.chain.b, 1.0)
        gate.check("scaled_block_maxima", ks <= KS_TOL, f"KS distance {ks:.4f} > {KS_TOL:.4f}")
    else:
        gate.error("scaled_block_maxima", maxima)
    return [elapsed]


# -- cli-roundtrip ----------------------------------------------------------------

CLI_LARGE_D = 100
CLI_SMALL_D = 6
CLI_SIM_D = 10
CLI_SIM_N = 50_000
OUTPUTS = ("large.json", "chi.csv", "bbar.csv", "rejected.csv", "small.json", "small_chi.csv",
           "models.txt", "sim.json", "samples.csv", "sim_chi.csv")


@dataclass(eq=False)
class CliInputs:
    workdir: Path
    commands: list[tuple]  # (label, argv, expected exit code[, known defect on exit 1])
    payload: dict
    large: Case
    small: Case
    samples: np.ndarray
    estimate: np.ndarray
    digests: dict = field(default_factory=dict)


def _csv(path: Path, matrix: np.ndarray, fmt: str) -> None:
    np.savetxt(path, matrix, fmt=fmt, delimiter=",")


def _gen_args(d, density, seed):
    return [str(d), "--density", str(density), "--alpha", "1.0", "--seed", str(seed)]


def cli_generate(lib, seed: int) -> tuple:
    """The seeds and the three models; ``cli_prepare`` writes the files."""
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(2**31, size=4)]
    large_seed, small_seed, sim_model_seed, _ = seeds
    return (
        seeds,
        lib.random_weighted_model(CLI_LARGE_D, density=0.3, alpha=1.0, seed_or_rng=large_seed),
        lib.random_weighted_model(CLI_SMALL_D, density=0.5, alpha=1.0, seed_or_rng=small_seed),
        lib.random_weighted_model(CLI_SIM_D, density=0.3, alpha=1.0,
                                  seed_or_rng=sim_model_seed),
    )


def cli_prepare(lib, generated: tuple, workdir: Path) -> CliInputs:
    seeds, large_model, small_model, sim_model = generated
    large_seed, small_seed, sim_model_seed, sim_seed = seeds
    large = make_case(large_model, "general")
    small = make_case(small_model, "general")
    # No subcommand emits a reachability matrix, so the benchmark writes it.
    w = workdir
    _csv(w / "reach.csv", large.reach, "%d")
    _csv(w / "other_reach.csv", large.other_reach, "%d")
    _csv(w / "zeroed.csv", large.zeroed, "%.17g")
    # The expected simulate outputs, from the library's own sampler.
    block = lib.sample(sim_model, lib.NoiseSpec("pareto", 1.0), CLI_SIM_N, sim_seed)
    p = {name: str(w / name) for name in OUTPUTS}
    commands = [
        ("gen", ["gen", *_gen_args(CLI_LARGE_D, 0.3, large_seed), "--out", p["large.json"]], 0),
        ("tdm", ["tdm", "--model", p["large.json"], "--out", p["chi.csv"]], 0),
        ("recover", ["recover", "--chi", p["chi.csv"], "--reachability", str(w / "reach.csv"),
                     "--out", p["bbar.csv"]], 0),
        ("check", ["check", "--mlcm", p["bbar.csv"]], 0, RECOVERED_CHECK_DEFECT),
        ("check zeroed", ["check", "--mlcm", str(w / "zeroed.csv")], 1),
        ("recover other DAG", ["recover", "--chi", p["chi.csv"], "--reachability",
                               str(w / "other_reach.csv"), "--out", p["rejected.csv"]], 1),
        ("gen small", ["gen", *_gen_args(CLI_SMALL_D, 0.5, small_seed), "--out",
                       p["small.json"]], 0),
        ("tdm small", ["tdm", "--model", p["small.json"], "--out", p["small_chi.csv"]], 0),
        ("enumerate", ["enumerate", "--chi", p["small_chi.csv"], "--out", p["models.txt"]], 0),
        ("gen sim", ["gen", *_gen_args(CLI_SIM_D, 0.3, sim_model_seed), "--out",
                     p["sim.json"]], 0),
        ("simulate", ["simulate", "--model", p["sim.json"], "--noise", "pareto", "--n",
                      str(CLI_SIM_N), "--seed", str(sim_seed), "--out", p["samples.csv"],
                      "--u", str(QUANTILE), "--chi-out", p["sim_chi.csv"]], 0),
    ]
    payload = {
        "alpha": large_model.alpha,
        "d": large_model.d,
        "noise_scales": list(large_model.noise_scales),
        "edges": [[k, i, c] for (k, i), c in sorted(large_model.edge_weights.items())],
    }
    return CliInputs(w, commands, payload, large, small, block.values,
                     lib.empirical_tdm(block, QUANTILE))


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _enumerated(text: str) -> list[np.ndarray]:
    # std_mlcm blocks of the enumerate output, each ended by a blank line
    matrices, rows, inside = [], [], False
    for line in text.splitlines():
        if line == "std_mlcm:":
            inside, rows = True, []
        elif inside and not line.strip():
            matrices.append(np.array(rows, dtype=float))
            inside = False
        elif inside:
            rows.append([float(v) for v in line.split(",")])
    if inside:
        matrices.append(np.array(rows, dtype=float))
    return matrices


def _same_file(gate: Gate, inputs: CliInputs, op: str, path: Path, expected: np.ndarray) -> None:
    # Parse once and check every value; later passes compare the bytes.
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if op not in inputs.digests:
        got = attempt(_read_csv, path)
        if gate.matrix(op, got, expected, tol=0.0, support=False):
            inputs.digests[op] = digest
    else:
        gate.check(op, digest == inputs.digests[op], f"{path.name} changed between passes")


def cli_pass(lib, inputs: CliInputs, index: int, gate: Gate) -> list[float]:
    for name in OUTPUTS:
        (inputs.workdir / name).unlink(missing_ok=True)
    codes = []
    sink = io.StringIO()
    start = clock()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for _, argv, *_ in inputs.commands:
            codes.append(attempt(lib.cli.main, argv))
    elapsed = clock() - start

    # A rejected recovery is only the known check defect while the
    # recovered file itself holds the truth.
    recovered = inputs.workdir / "bbar.csv"
    recovered_right = recovered.exists() and _matches(
        attempt(_read_csv, recovered).value, inputs.large.bbar, TOL)[0]
    for (label, _, expected, *known), code in zip(inputs.commands, codes):
        if code.error is not None:
            gate.error(f"cli {label}", code)
        else:
            gate.check(f"cli {label}", code.value == expected,
                       f"exit code {code.value}, expected {expected}",
                       known[0] if known and code.value == 1 and recovered_right else None)

    def model_file(op, path):
        gate.check(op, json.loads(path.read_text()) == inputs.payload,
                   "model file differs from its seed")

    def models_file(op, path):
        found = any(_matches(m, inputs.small.bbar, TOL)[0] for m in _enumerated(path.read_text()))
        gate.check(op, found, "generating matrix not among the models")

    outputs = [
        ("cli gen output", "large.json", model_file),
        ("cli tdm output", "chi.csv",
         lambda op, path: gate.matrix(op, attempt(_read_csv, path), inputs.large.chi, EXACT_TOL)),
        ("cli recover output", "bbar.csv",
         lambda op, path: gate.matrix(op, attempt(_read_csv, path), inputs.large.bbar)),
        ("cli enumerate output", "models.txt", models_file),
        ("cli simulate samples", "samples.csv",
         lambda op, path: _same_file(gate, inputs, op, path, inputs.samples)),
        ("cli simulate estimate", "sim_chi.csv",
         lambda op, path: _same_file(gate, inputs, op, path, inputs.estimate)),
    ]
    for op, name, judge in outputs:
        path = inputs.workdir / name
        if path.exists():
            judge(op, path)
        else:
            gate.check(op, False, f"{name} was not written")
    return [elapsed]


# -- registry ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable  # (lib, seed) -> inputs; timed as set-up
    prepare: Callable  # (lib, generated, workdir) -> inputs with known answers; untimed
    run_pass: Callable
    min_passes: int  # passes run even when they overrun --seconds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("identify-small", identify_generate, identify_prepare, identify_pass, 3),
        Workload("structure-large", large_generate, large_prepare, large_pass, 1),
        Workload("simulate", simulate_generate, simulate_prepare, simulate_pass, 1),
        Workload("cli-roundtrip", cli_generate, cli_prepare, cli_pass, 1),
    )
}
