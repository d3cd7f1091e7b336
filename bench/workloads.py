"""The benchmark's three workloads.

Each workload turns the benchmark seed into inputs, runs one user-facing
operation with tracing off (`op`), checks that operation's outputs with
checks that do not share code with the path under test (`check`), and replays
the same operation through the public functions of each layer with spans
around every call (`replay`). The library only ever receives generated
inputs; it never sees the benchmark seed.

Why these three: each one makes a different layer do nearly all of its work,
so a later change to one layer shows a gain on one workload and no change on
the others.

- campaign: dense eigensolves (spectra) and root solves (characterization),
  in a worker pool sized to the machine.
- lift_io: per-edge Python loops in graphs, lifts and fileio through the CLI;
  no eigensolve at all.
- exact_small: exhaustive enumerations (expansion, experiments) and many tiny
  Hermitian solves with eigenvectors (characterization).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

import liftlab as ll
from liftlab import cli, fileio
from measure import NullTracer

LAMBDA_TOL = 1e-6       # dense split vs max root radius (the library's own tolerance)
REPLAY_TOL = 1e-9       # traced replay vs untraced outputs, and stored references


def op_seed(seed: int, index: int, what: str) -> int:
    """Deterministic 63-bit input seed for part `what` of operation `index`."""
    return random.Random(f"{seed}/{index}/{what}").getrandbits(63)


@dataclass
class OpResult:
    """One untraced operation: its latency, work units and checked outputs."""

    seconds: float
    units: int
    out: dict | None
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    reference: dict | None = None


def _eig_counts(tr, n: int) -> None:
    """Counters for one values-only dense solve of size n (flops computed
    as 4/3 n^3, the tridiagonal reduction that dominates eigvalsh)."""
    tr.count("spectra.eig.calls")
    tr.count("spectra.eig.flop_est", 4.0 / 3.0 * n**3)
    tr.peak("spectra.eig.dim_max", n)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _close(a: float, b: float, tol: float = REPLAY_TOL) -> bool:
    return abs(a - b) <= tol


# --------------------------------------------------------------------------
# campaign: criterion-5 shift-lift trials, one batch per worker count
# --------------------------------------------------------------------------


class Campaign:
    """`run_lift_trials` on random_regular(500, 6) with k = 4, constants 1,2,3,
    threads = nproc and nproc trials per batch, plus the report and CSV that
    `mc --out --csv` writes for it."""

    name = "campaign"
    unit = "trial"
    via_cli = False
    N, D, K = 500, 6, 4

    def __init__(self, seed: int, workdir: str, nproc: int):
        self.seed = seed
        self.dir = workdir
        self.workers = self.units_per_op = nproc
        self.graph_seed = op_seed(seed, 0, "graph")
        self.graph = ll.random_regular(self.N, self.D, self.graph_seed)
        self.lam = ll.lambda_nontrivial(
            ll.eig_symmetric(ll.adjacency_matrix(self.graph)), self.D
        )

    def working_set(self) -> dict:
        kn = self.K * self.N
        return {
            "dense_lift_matrix_bytes_per_worker": kn * kn * 8,
            "root_matrix_bytes_per_worker": self.N * self.N * 16,
            "workers": self.workers,
        }

    def config(self, index: int) -> ll.ExperimentConfig:
        return ll.ExperimentConfig(
            base=f"random_regular {self.N} {self.D} {self.graph_seed}",
            k=self.K,
            trials=self.workers,
            base_seed=op_seed(self.seed, index, "trials"),
            constants=(1.0, 2.0, 3.0),
            mode="shift_lift",
        )

    def op(self, index: int) -> OpResult:
        cfg = self.config(index)
        started = time.perf_counter()
        report = ll.run_lift_trials(cfg, graph=self.graph, threads=self.workers)
        text = fileio.experiment_report_text(report)
        fileio.write_text(text, os.path.join(self.dir, "report.txt"))
        fileio.write_text(fileio.experiment_report_csv(report),
                          os.path.join(self.dir, "trials.csv"))
        seconds = time.perf_counter() - started
        return OpResult(seconds, cfg.trials, {"report": report, "text": text})

    def check(self, res: OpResult) -> None:
        """Failures are read from the rendered report, and every successful
        trial's dense split is compared with its own max root radius."""
        report, text = res.out["report"], res.out["text"]
        bad: dict[int, str] = {}
        trial_lines = {}
        declared_failed = None
        for line in text.splitlines():
            if line.startswith("failed = "):
                declared_failed = int(line.split(" = ")[1])
            elif line.startswith("trial "):
                parts = line.split()
                trial_lines[int(parts[1])] = parts
        trials = report.config.trials
        if declared_failed is None or sorted(trial_lines) != list(range(trials)):
            res.failed, res.errors = trials, ["report is missing trial lines or 'failed'"]
            return
        if not _close(report.lam, self.lam):
            bad.update({t: f"lambda {report.lam!r} != base {self.lam!r}" for t in range(trials)})
        lambdas = {}
        for t, parts in trial_lines.items():
            if parts[4] == "failed":
                bad[t] = "trial failed: " + " ".join(parts[5:])
                continue
            lam_new = float(parts[5])
            radii = [float(x) for x in parts[7].split(",")]
            lambdas[t] = lam_new
            if len(radii) != self.K - 1:
                bad[t] = f"{len(radii)} root radii, expected {self.K - 1}"
            elif abs(lam_new - max(radii)) > LAMBDA_TOL:
                bad[t] = f"lambda_new {lam_new!r} vs max root radius {max(radii)!r}"
            elif not 0.0 < lam_new <= self.D:
                bad[t] = f"lambda_new {lam_new!r} outside (0, d]"
        if declared_failed != sum(1 for p in trial_lines.values() if p[4] == "failed"):
            bad.update({t: "'failed' disagrees with the trial lines" for t in range(trials)})
        res.out["lambda_new"] = [lambdas.get(t) for t in range(trials)]
        res.failed = len(bad)
        res.errors = [f"trial {t}: {msg}" for t, msg in sorted(bad.items())]

    def reference(self, res: OpResult) -> dict:
        return {"lambda_new": res.out["lambda_new"]}

    def _trial(self, tr, pool: int, cfg, index: int, base_spec) -> float:
        with tr.span("experiments.trial", parent=pool):
            seed = ll.trial_seed(cfg.base_seed, index)
            with tr.span("lifts.sample"):
                sa = ll.random_shift_lift(self.graph, cfg.k, seed)
            with tr.span("lifts.build"):
                lifted = ll.build_shift_lift(self.graph, sa)
            tr.count("lifts.edges", lifted.graph.num_edges)
            with tr.span("characterization.roots"):
                _, radii = ll.lambda_new_from_roots(self.graph, sa)
            tr.count("characterization.root_solves", len(radii))
            with tr.span("graphs.adjacency_matrix"):
                a_h = ll.adjacency_matrix(lifted.graph)
            with tr.span("spectra.eig"):
                lift_spec = ll.eig_symmetric(a_h)
            _eig_counts(tr, a_h.shape[0])
            with tr.span("spectra.split"):
                return ll.split_old_new(base_spec, lift_spec, cfg.k).lambda_new

    def replay(self, index: int, tr, res: OpResult) -> list[str]:
        """Each trial of the batch through lifts, characterization, graphs and
        spectra, in a pool of the same size as the untraced call."""
        cfg = self.config(index)
        with tr.span("campaign.batch", op=index):
            with tr.span("graphs.adjacency_matrix"):
                a = ll.adjacency_matrix(self.graph)
            with tr.span("spectra.eig"):
                base_spec = ll.eig_symmetric(a)
            _eig_counts(tr, a.shape[0])
            with tr.span("spectra.lambda"):
                ll.lambda_nontrivial(base_spec, self.D)
            with tr.span("experiments.pool") as pool:
                with ThreadPoolExecutor(max_workers=self.workers) as ex:
                    lams = list(ex.map(
                        lambda t: self._trial(tr, pool, cfg, t, base_spec),
                        range(cfg.trials),
                    ))
            with tr.span("fileio.report"):
                text = fileio.experiment_report_text(res.out["report"])
                csv = fileio.experiment_report_csv(res.out["report"])
            with tr.span("fileio.write"):
                fileio.write_text(text, os.path.join(self.dir, "report.traced.txt"))
                fileio.write_text(csv, os.path.join(self.dir, "trials.traced.csv"))
            tr.count("fileio.bytes", len(text) + len(csv))
        return [
            f"trial {t}: traced lambda_new {got!r} != untraced {want!r}"
            for t, (got, want) in enumerate(zip(lams, res.out["lambda_new"]))
            if want is None or not _close(got, want)
        ]


# --------------------------------------------------------------------------
# lift_io: gen -> lift --save-assignment -> lift --assignment, in-process
# --------------------------------------------------------------------------


def _read_tokens(path: str) -> list[bytes]:
    with open(path, "rb") as fh:
        return fh.read().split()


def _parse_edges(path: str) -> tuple[int, int, np.ndarray]:
    tokens = _read_tokens(path)
    n, d = int(tokens[0]), int(tokens[1])
    return n, d, np.array(tokens[2:], dtype=np.int64).reshape(-1, 2)


class LiftIO:
    """The CLI pipeline through `cli.dispatch` on random_regular(20000, 6)
    with k = 4: 60k base edges, 240k lift edges, no eigensolve."""

    name = "lift_io"
    unit = "pipeline"
    via_cli = True
    units_per_op = 1
    N, D, K = 20000, 6, 4

    def __init__(self, seed: int, workdir: str, nproc: int):
        self.seed = seed
        self.dir = workdir

    def working_set(self) -> dict:
        m = self.N * self.D // 2
        return {"base_edges": m, "lift_edges": m * self.K, "lift_vertices": self.N * self.K}

    def paths(self, tag: str) -> dict:
        return {key: os.path.join(self.dir, f"{tag}.{key}")
                for key in ("base", "assign", "lift", "replay")}

    def argvs(self, index: int, p: dict) -> list[list[str]]:
        gseed = str(op_seed(self.seed, index, "graph"))
        lseed = str(op_seed(self.seed, index, "lift"))
        return [
            ["gen", "--family", "random_regular", "--n", str(self.N), "--d", str(self.D),
             "--seed", gseed, "--out", p["base"]],
            ["lift", "--graph", p["base"], "--k", str(self.K), "--seed", lseed,
             "--mode", "shift_lift", "--out", p["lift"], "--save-assignment", p["assign"]],
            ["lift", "--graph", p["base"], "--assignment", p["assign"], "--k", str(self.K),
             "--out", p["replay"]],
        ]

    def op(self, index: int) -> OpResult:
        p = self.paths("untraced")
        argvs = self.argvs(index, p)
        sink = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            codes = [cli.dispatch(argv) for argv in argvs]
        seconds = time.perf_counter() - started
        return OpResult(seconds, 1, {"codes": codes, "paths": p})

    def check(self, res: OpResult) -> None:
        """Parse every file with numpy, independently of fileio, and rebuild
        the expected lift edge set from the base edges and saved perms."""
        p = res.out["paths"]
        res.errors = self._errors(res.out["codes"], p)
        res.failed = 1 if res.errors else 0
        if not res.errors:
            res.out["sha256"] = {key: _sha256(path) for key, path in p.items()}

    def _errors(self, codes: list[int], p: dict) -> list[str]:
        if codes != [0, 0, 0]:
            return [f"cli exit codes {codes}"]
        n, d, e = _parse_edges(p["base"])
        m = n * d // 2
        if (n, d) != (self.N, self.D) or e.shape != (m, 2):
            return [f"base header ({n}, {d}) or edge count {e.shape[0]} is wrong"]
        if not np.all(e[:, 0] < e[:, 1]) or not np.all(np.diff(e[:, 0] * n + e[:, 1]) > 0):
            return ["base edges are not sorted, simple pairs u < v"]
        if not np.all(np.bincount(e.ravel(), minlength=n) == d):
            return ["base graph is not d-regular"]
        tokens = _read_tokens(p["assign"])
        k, m_a = int(tokens[0]), int(tokens[1])
        rows = np.array(tokens[2:], dtype=object).reshape(m_a, k + 1)
        if (k, m_a) != (self.K, m) or not np.all(rows[:, 0] == b"perm"):
            return ["assignment header or perm lines are wrong"]
        perms = rows[:, 1:].astype(np.int64)
        if not np.all((perms - perms[:, :1]) % k == np.arange(k)):
            return ["saved perms are not cyclic shifts"]
        x = e[:, :1] * k + np.arange(k)
        y = e[:, 1:] * k + perms
        want = np.stack([np.minimum(x, y).ravel(), np.maximum(x, y).ravel()], axis=1)
        want = want[np.lexsort((want[:, 1], want[:, 0]))]
        n_l, d_l, got = _parse_edges(p["lift"])
        if (n_l, d_l) != (n * k, d) or not np.array_equal(got, want):
            return ["lift read back differs from the lift of the base by the saved perms"]
        with open(p["lift"], "rb") as fh, open(p["replay"], "rb") as fh2:
            if fh.read() != fh2.read():
                return ["lift and its replay from the saved assignment differ"]
        return []

    def reference(self, res: OpResult) -> dict:
        return {key: res.out["sha256"][key] for key in ("base", "assign", "lift")}

    def replay(self, index: int, tr, res: OpResult) -> list[str]:
        """The three handlers' public calls, writing beside the untraced files."""
        p = self.paths("traced")
        gseed = op_seed(self.seed, index, "graph")
        lseed = op_seed(self.seed, index, "lift")

        def write(fn, obj, path):
            with tr.span("fileio.write"):
                fn(obj, path)
            tr.count("fileio.bytes", os.path.getsize(path))

        def read(fn, path):
            tr.count("fileio.bytes", os.path.getsize(path))
            with tr.span("fileio.read"):
                return fn(path)

        with tr.span("lift_io.pipeline", op=index):
            with tr.span("graphs.random_regular"):
                g = ll.random_regular(self.N, self.D, gseed)
            write(fileio.write_graph, g, p["base"])

            g = read(fileio.read_graph, p["base"])
            with tr.span("lifts.sample"):
                a = ll.shift_to_assignment(ll.random_shift_lift(g, self.K, lseed))
            with tr.span("lifts.build"):
                lifted = ll.build_lift(g, a)
            tr.count("lifts.edges", lifted.graph.num_edges)
            write(fileio.write_graph, lifted.graph, p["lift"])
            write(fileio.write_assignment, a, p["assign"])

            g = read(fileio.read_graph, p["base"])
            a = read(fileio.read_assignment, p["assign"])
            with tr.span("lifts.build"):
                lifted = ll.build_lift(g, a)
            tr.count("lifts.edges", lifted.graph.num_edges)
            write(fileio.write_graph, lifted.graph, p["replay"])
        return [f"traced {key} file differs from the untraced one"
                for key, digest in res.out["sha256"].items() if _sha256(p[key]) != digest]


# --------------------------------------------------------------------------
# exact_small: one pass of the paper's exhaustive checks
# --------------------------------------------------------------------------


def _numpy_eigvals(n: int, edges, weights=None) -> np.ndarray:
    """Ascending eigenvalues of the (signed) adjacency matrix, built and
    solved with numpy alone."""
    m = np.zeros((n, n))
    for e, (u, v) in enumerate(edges):
        m[u, v] = m[v, u] = 1.0 if weights is None else weights[e]
    return np.linalg.eigvalsh(m)


class ExactSmall:
    """One check pass: 24 criterion-1 characterization instances (n 4-12,
    d 3-4, k 2-8), the exhaustive signing search on a random 3-regular graph
    with 12 vertices (18 edges, 2^18 signings), the Cheeger check on a random
    3-regular graph with n = 24 (2^24 subsets) and the mixing check on a
    random 4-regular graph with n = 12 (all ordered subset pairs).

    The search stops at 18 edges: at the library's 24-edge cap one call
    takes about 247 s, too long for repeated runs.
    """

    name = "exact_small"
    unit = "pass"
    via_cli = False
    units_per_op = 1
    VERIFY_INSTANCES = 24
    SEARCH = (12, 3)
    CHEEGER = (24, 3)
    EML = (12, 4)

    def __init__(self, seed: int, workdir: str, nproc: int):
        self.seed = seed
        self.dir = workdir

    def working_set(self) -> dict:
        n_s, n_e = self.SEARCH[0], self.EML[0]
        pairs_block = (1 << 22) // ((1 << n_e) - 1)
        return {
            "search_chunk_bytes": 4096 * n_s * n_s * 8,
            "cheeger_mask_chunk_bytes": (1 << 16) * 8,
            "eml_pair_block_bytes": ((1 << n_e) - 1) * pairs_block * 8,
        }

    def inputs(self, index: int) -> dict:
        rng = np.random.default_rng(op_seed(self.seed, index, "pass"))
        instances = []
        for _ in range(self.VERIFY_INSTANCES):
            n = int(rng.integers(4, 13))
            d = int(rng.choice([3, 4]))
            if n * d % 2 or d >= n:
                n += 1
            k = int(rng.integers(2, 9))
            instances.append((n, d, k, int(rng.integers(0, 2**63)), int(rng.integers(0, 2**63))))
        return {
            "verify": instances,
            "search": int(rng.integers(0, 2**63)),
            "cheeger": int(rng.integers(0, 2**63)),
            "eml": int(rng.integers(0, 2**63)),
        }

    def run_pass(self, index: int, tr) -> dict:
        """The pass itself; `tr` is a NullTracer when untraced."""
        inp = self.inputs(index)
        out: dict = {"verify": []}
        reports = []
        with tr.span("exact_small.pass", op=index):
            for n, d, k, gseed, sseed in inp["verify"]:
                with tr.span("graphs.random_regular"):
                    g = ll.random_regular(n, d, gseed)
                with tr.span("lifts.sample"):
                    sa = ll.random_shift_lift(g, k, sseed)
                with tr.span("characterization.verify"):
                    rep = ll.verify_characterization(g, sa, tol=1e-8, window=1e-6, ortho_tol=1e-8)
                tr.count("characterization.root_solves", len(rep.per_root_spectra))
                out["verify"].append((g, sa, rep))
                with tr.span("fileio.report"):
                    reports.append(fileio.characterization_report_text(rep))

            with tr.span("graphs.random_regular"):
                g = ll.random_regular(*self.SEARCH, inp["search"])
            with tr.span("experiments.search"):
                out["search"] = (g, ll.exhaustive_signing_search(g))
            tr.count("experiments.search.candidates", out["search"][1].num_signings)
            with tr.span("fileio.report"):
                reports.append(fileio.signing_search_report_text(out["search"][1]))

            with tr.span("graphs.random_regular"):
                g = ll.random_regular(*self.CHEEGER, inp["cheeger"])
            with tr.span("expansion.cheeger"):
                out["cheeger"] = (g, ll.cheeger_check(g))
            tr.count("expansion.cheeger.subsets", (1 << g.n) - 1)
            with tr.span("fileio.report"):
                reports.append(fileio.cheeger_report_text(out["cheeger"][1]))

            with tr.span("graphs.random_regular"):
                g = ll.random_regular(*self.EML, inp["eml"])
            with tr.span("graphs.adjacency_matrix"):
                a = ll.adjacency_matrix(g)
            with tr.span("spectra.eig"):
                spec = ll.eig_symmetric(a)
            _eig_counts(tr, g.n)
            with tr.span("spectra.lambda"):
                lam = ll.lambda_nontrivial(spec, g.d)
            with tr.span("expansion.eml"):
                out["eml"] = (g, ll.eml_check(g, lam))
            tr.count("expansion.eml.pairs", ((1 << g.n) - 1) ** 2)
            with tr.span("fileio.report"):
                reports.append(fileio.mixing_report_text(out["eml"][1]))

            text = "".join(reports)
            with tr.span("fileio.write"):
                fileio.write_text(text, os.path.join(self.dir, "reports.txt"))
            tr.count("fileio.bytes", len(text))
        return out

    def op(self, index: int) -> OpResult:
        started = time.perf_counter()
        out = self.run_pass(index, NullTracer())
        return OpResult(time.perf_counter() - started, 1, out)

    def check(self, res: OpResult) -> None:
        """The library's own bounds, re-read from the reports, plus spectra
        and the search minimum recomputed outside the checked code."""
        out = res.out
        errs = []
        for g, sa, rep in out["verify"]:
            if (rep.max_multiset_mismatch > 1e-6
                    or rep.max_eigenvector_residual > 1e-8 * rep.lift_frobenius_norm
                    or rep.max_cross_root_inner > 1e-8
                    or len(rep.pooled) != sa.k * g.n):
                errs.append(f"characterization outside its bounds for n={g.n} k={sa.k}")

        g, res_s = out["search"]
        if res_s.num_signings != 1 << g.num_edges:
            errs.append(f"search enumerated {res_s.num_signings} signings")
        again = ll.spectral_radius(ll.signed_adjacency(g, res_s.best))
        if not _close(again, res_s.min_radius):
            errs.append(f"best signing radius {again!r} != reported {res_s.min_radius!r}")
        rng = np.random.default_rng(op_seed(self.seed, 0, "probe"))
        for _ in range(4):
            signs = rng.integers(0, 2, size=g.num_edges) * 2 - 1
            vals = _numpy_eigvals(g.n, g.edges, signs)
            if max(-vals[0], vals[-1]) < res_s.min_radius - REPLAY_TOL:
                errs.append("a random signing beats the reported minimum")
                break

        g, rep_c = out["cheeger"]
        lam2 = float(_numpy_eigvals(g.n, g.edges)[-2])
        if not (rep_c.passed and rep_c.lower - rep_c.slack <= rep_c.h <= rep_c.upper + rep_c.slack):
            errs.append(f"cheeger bounds violated: {rep_c}")
        if not _close(lam2, rep_c.lambda2):
            errs.append(f"lambda2 {rep_c.lambda2!r} != recomputed {lam2!r}")

        g, rep_e = out["eml"]
        vals = _numpy_eigvals(g.n, g.edges)
        lam = float(max(abs(vals[0]), abs(vals[-2])))
        s, t = rep_e.worst_s, rep_e.worst_t
        e_st = sum((u in s and v in t) + (v in s and u in t) for u, v in g.edges)
        ratio = abs(e_st - g.d * len(s) * len(t) / g.n) / math.sqrt(len(s) * len(t))
        if not (rep_e.passed and _close(rep_e.lam, lam) and _close(ratio, rep_e.max_ratio)):
            errs.append(f"mixing check inconsistent: ratio {ratio!r}, report {rep_e}")
        res.errors = errs
        res.failed = 1 if errs else 0

    def reference(self, res: OpResult) -> dict:
        out = res.out
        return {
            "verify_lambda2": [float(rep.lift_spectrum.values[1]) for _, _, rep in out["verify"]],
            "search_min_radius": out["search"][1].min_radius,
            "cheeger_h": out["cheeger"][1].h,
            "cheeger_lambda2": out["cheeger"][1].lambda2,
            "eml_max_ratio": out["eml"][1].max_ratio,
        }

    def replay(self, index: int, tr, res: OpResult) -> list[str]:
        got = self.reference(OpResult(0.0, 1, self.run_pass(index, tr)))
        return compare_reference(got, self.reference(res), "traced")


def compare_reference(got: dict, want: dict, label: str) -> list[str]:
    """Differences between two reference dicts: strings exactly, numbers
    within REPLAY_TOL, lists over their common prefix."""
    errs = []
    for key, expected in want.items():
        actual = got.get(key)
        pairs = (list(zip(actual, expected)) if isinstance(expected, list)
                 and isinstance(actual, list) else [(actual, expected)])
        for a, b in pairs:
            if isinstance(b, str) or a is None or b is None:
                ok = a == b
            else:
                ok = _close(float(a), float(b))
            if not ok:
                errs.append(f"{label} {key}: {a!r} != {b!r}")
                break
    return errs


WORKLOADS = {w.name: w for w in (Campaign, LiftIO, ExactSmall)}
