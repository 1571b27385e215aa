"""The four command groups. Each one writes its inputs in ``setup`` and does
one pass of its work in ``run_pass``, checking every output with the
benchmark's own arithmetic. ``size`` sets the scale: ``full`` when the
group is the workload being measured, ``probe`` when it only probes the
commands that the workload does not run (see README.md). Only the groups in
WORKLOADS have a full size.

A pass returns the seconds of each timed operation, and ``metrics`` turns
them into the workload's end-to-end metrics. Long commands run on shards of
the input, so that each timed operation stays around a second at most.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import numpy as np

import inputs
from stub import stub_scores

ALPHA = 0.2
GRID_SIZE = 1001
WARM_REPEATS = 6


def derive(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def shard_sizes(n: int, shards: int) -> list[int]:
    return [n // shards + (i < n % shards) for i in range(shards)]


class Pass:
    """Seconds of each timed operation in one pass, plus per-layer extras."""

    def __init__(self, ops: dict[str, float], layer: dict[str, float] | None = None):
        self.ops = ops
        self.layer = layer or {}

    @property
    def seconds(self) -> float:
        return sum(self.ops.values())


def check_calibration(b, table: inputs.RiskTable, path: Path, grid: np.ndarray | None) -> float:
    """λ̂ meets the bound by the benchmark's own risk, and the candidate just
    below it does not. Returns λ̂."""
    res = json.loads(path.read_text(encoding="utf-8"))
    lam = float(res["lambda_hat"])
    bound = ALPHA - (1.0 - ALPHA) / table.n
    tol = 1e-12  # the package may sum in another order; ties within it pass
    b.check(res["n"] == table.n and res["feasible"] is True, f"{path.name}: n or feasibility wrong")
    b.check(table.risk(lam) <= bound + tol, f"{path.name}: risk at lambda_hat above the bound")
    candidates = table.critical if grid is None else grid
    below = candidates[candidates < lam]
    if below.size:
        b.check(table.risk(float(below[-1])) > bound - tol,
                f"{path.name}: a smaller threshold {below[-1]!r} also meets the bound")
    return lam


class CalibrateLarge:
    name = "calibrate_large"
    full, probe = 4000, 300

    def __init__(self, size: int):
        self.n = size
        self.units = 4 * size  # examples x commands

    def setup(self, b) -> None:
        self.dir = b.workdir(f"{self.name}-{self.n}")
        self.scorer_seed = derive(b.seed, 1)
        self.rows = inputs.scored_rows(b.seed, self.n, self.scorer_seed)
        self.data = b.write_input(self.dir / "data.jsonl", self.rows)
        self.table = inputs.RiskTable(self.rows)

    def run_pass(self, b) -> Pass:
        d, data = self.dir, self.data
        t_exact = b.cli("calibrate", "--dataset", data, "--alpha", ALPHA, "--mode", "exact",
                        "--out", d / "exact.json")
        t_grid = b.cli("calibrate", "--dataset", data, "--alpha", ALPHA, "--mode", "grid",
                       "--out", d / "grid.json", "--curve-out", d / "curve.csv")
        t_stats = b.cli("stats", "--dataset", data, "--calibration", d / "exact.json",
                        "--out", d / "stats.json")
        t_predict = b.cli("predict", "--dataset", data, "--calibration", d / "exact.json",
                          "--scorer", f"oracle_noise:sigma={inputs.SIGMA}",
                          "--seed", self.scorer_seed, "--out", d / "predict.jsonl")
        if b.ok:
            lam = check_calibration(b, self.table, d / "exact.json", None)
            lam_grid = check_calibration(b, self.table, d / "grid.json",
                                         np.linspace(0.0, 1.0, GRID_SIZE))
            b.check(lam_grid >= lam, "grid lambda_hat below exact lambda_hat")
            stats = json.loads((d / "stats.json").read_text(encoding="utf-8"))
            b.check(stats["bound_satisfied"] is True, "stats did not verify the calibration")
            curve = (d / "curve.csv").read_text(encoding="utf-8").splitlines()
            b.check(len(curve) == GRID_SIZE + 1, "risk curve has the wrong number of rows")
            preds = read_jsonl(d / "predict.jsonl")
            b.check(len(preds) == self.n and all(
                p["id"] == r["id"] and p["indices"] == inputs.selected(r["scores"], lam)
                for p, r in zip(preds, self.rows)), "predicted sets differ from recomputed sets")
        return Pass({"cli_calibrate_s": t_exact, "cli_calibrate_grid_s": t_grid,
                     "cli_stats_s": t_stats, "cli_predict_s": t_predict})

    def metrics(self, ops: dict[str, float]) -> dict[str, float]:
        return dict(ops)

    def scaling(self, tc) -> dict:
        """calibrate_exact time over nested subsets: log-log slope against n."""
        examples = list(tc.core.load_dataset(self.data).examples)
        sizes = [n for n in (250, 1000, 4000) if n <= len(examples)]
        times = []
        for n in sizes:
            reps = []
            for _ in range(3 if n < 4000 else 1):
                t = time.perf_counter()
                tc.calibrate.calibrate_exact(examples[:n], ALPHA)
                reps.append(time.perf_counter() - t)
            times.append(float(np.median(reps)))
        slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0]) if len(sizes) > 1 else 0.0
        return {"sizes": sizes, "seconds": times, "slope": slope}


class RobustBall:
    name = "robust_ball"
    probe = 50

    def __init__(self, size: int):
        self.n = size
        self.units = 2 * size  # questions, once per command
        self.shards = shard_sizes(size, max(1, size // 50))

    def setup(self, b) -> None:
        d = self.dir = b.workdir(f"{self.name}-{self.n}")
        self.scorer_seed = derive(b.seed, 2)
        self.rows = inputs.scored_rows(derive(b.seed, 3), self.n, self.scorer_seed)
        self.data = b.write_input(d / "data.jsonl", self.rows)
        start = 0
        for i, size in enumerate(self.shards):
            b.write_input(d / f"data-{i}.jsonl", self.rows[start:start + size])
            start += size
        self.lexicon = inputs.lexicon_entries(self.rows)
        b.write_input(d / "lexicon.jsonl",
                      [{"token": t, "synonyms": s} for t, s in self.lexicon.items()])
        b.cli("calibrate", "--dataset", self.data, "--alpha", ALPHA, "--out", d / "calibration.json")
        # Plain sets of the context-dependent scorer on the clean questions.
        b.cli("predict", "--dataset", self.data, "--calibration", d / "calibration.json",
              "--scorer", "uniform_random", "--seed", self.scorer_seed,
              "--out", d / "plain_uniform.jsonl")
        if b.ok:
            self.lam = json.loads((d / "calibration.json").read_text())["lambda_hat"]
            self.plain_uniform = [{tuple(t) for t in p["tokens"]}
                                  for p in read_jsonl(d / "plain_uniform.jsonl")]

    def _robust(self, b, ops: dict, name: str, d: int, mode: str, scorer: str) -> None:
        for i in range(len(self.shards)):
            ops[f"{name}/{i}"] = b.cli(
                "robust-predict", "--dataset", self.dir / f"data-{i}.jsonl",
                "--calibration", self.dir / "calibration.json",
                "--lexicon", self.dir / "lexicon.jsonl", "--d", d, "--ball-mode", mode,
                "--scorer", scorer, "--seed", self.scorer_seed,
                "--out", self.dir / f"{name}-{i}.jsonl")

    def _check(self, b, name: str, d: int, plain: list[set]) -> None:
        got = [rec for i in range(len(self.shards))
               for rec in read_jsonl(self.dir / f"{name}-{i}.jsonl")]
        b.check(len(got) == self.n, f"{name}: wrong number of questions")
        for rec, row, want in zip(got, self.rows, plain):
            pairs = {(it["position"], it["candidate"]) for it in rec["items"]}
            b.check(rec["id"] == row["id"] and
                    rec["ball_size"] == inputs.ball_size(len(row["tokens"]), d),
                    f"{name}: ball size of {rec['id']} is wrong")
            b.check(want <= pairs, f"{name}: robust set of {rec['id']} misses a plain-set pair")

    def run_pass(self, b) -> Pass:
        ops: dict[str, float] = {}
        self._robust(b, ops, "exact", 2, "exact", "uniform_random")
        self._robust(b, ops, "coord", 1, "coordinatewise", f"oracle_noise:sigma={inputs.SIGMA}")
        if b.ok:
            self._check(b, "exact", 2, self.plain_uniform)
            plain_oracle = [{(j, r["tokens"][j]) for j in inputs.selected(r["scores"], self.lam)}
                            for r in self.rows]
            self._check(b, "coord", 1, plain_oracle)
        return Pass(ops)

    def metrics(self, ops: dict[str, float]) -> dict[str, float]:
        return {"cli_robust_exact_s": sum(v for k, v in ops.items() if k.startswith("exact/")),
                "cli_robust_coord_s": sum(v for k, v in ops.items() if k.startswith("coord/"))}


class MCTrials:
    name = "mc_trials"
    full, probe = 4, 2
    plain_alphas = (0.1, 0.2, 0.45, 0.8)
    robust_alphas = (0.2, 0.45)
    check_trials = 24  # trials per mode of the coverage check, run once in ``finish``

    def __init__(self, size: int):
        self.trials = size
        self.units = 3 * size  # trials: plain exact, plain grid, robust

    def setup(self, b) -> None:
        # Every timed pass repeats the trials of pass_seed; the coverage check
        # draws its own. Both depend on --seed alone, never on how many
        # passes fit into the run.
        self.pass_seed = derive(b.seed, 4) % 2**31
        self.check_seed = derive(b.seed, 7) % 2**31
        b.note_input(f"{self.name}-{self.trials}.config", json.dumps(
            {"n_calibration": 100, "n_test": 100, "pass_seed": self.pass_seed,
             "check_seed": self.check_seed, "check_trials": self.check_trials}, sort_keys=True))

    @staticmethod
    def _experiment(b, seed: int, trials: int, alphas, mode: str, robust: bool):
        sim = b.tc.sim
        config = sim.SyntheticConfig(n_calibration=100, n_test=100, seed=seed)
        return b.call(f"run_coverage_experiment({mode}, robust={robust})",
                      sim.run_coverage_experiment, config, list(alphas), trials=trials,
                      mode=mode, robust=robust, workers=1)

    @staticmethod
    def _check_reports(b, name: str, trials: int, exact, grid, robust) -> None:
        """Each report agrees with its own trials; grid lambda_hat >= exact."""
        reports = [r.to_dict() for r in exact + grid + robust]
        b.note_output(name, json.dumps(reports, sort_keys=True))
        for r in reports:
            losses = np.asarray(r["per_trial_losses"])
            b.check(r["trials"] == trials == losses.size, "report has the wrong trial count")
            b.check(abs(r["mean_loss"] - losses.mean()) < 1e-12, "mean loss disagrees with trials")
            if trials > 1:
                se = losses.std(ddof=1) / np.sqrt(trials)
                b.check(abs(r["se"] - se) < 1e-12, "standard error disagrees with trials")
        for e, g in zip(exact, grid):
            b.check(g.mean_lambda >= e.mean_lambda,
                    f"{name}: grid mean lambda below exact mean lambda at {e.alpha}")

    def run_pass(self, b) -> Pass:
        args = (b, self.pass_seed, self.trials)
        t_exact, exact = self._experiment(*args, self.plain_alphas, "exact", False)
        t_grid, grid = self._experiment(*args, self.plain_alphas, "grid", False)
        t_robust, robust = self._experiment(*args, self.robust_alphas, "exact", True)
        if b.ok:
            self._check_reports(b, f"{self.name}-{self.trials}.reports", self.trials,
                                exact, grid, robust)
        return Pass({"exact": t_exact, "grid": t_grid, "robust": t_robust},
                    {"sim.trials": 3 * self.trials})

    def finish(self, b) -> None:
        """Untimed: check_trials more plain trials, each run as an experiment
        of its own, so that grid lambda_hat >= exact is checked per trial.
        Pooled over them, the mean loss is at most alpha + 3 SE."""
        losses: dict[tuple[str, float], list[float]] = {}
        for i in range(self.check_trials):
            args = (b, derive(self.check_seed, i) % 2**31, 1, self.plain_alphas)
            _, exact = self._experiment(*args, "exact", False)
            _, grid = self._experiment(*args, "grid", False)
            if not b.ok:
                return
            self._check_reports(b, f"{self.name}-check{i}.reports", 1, exact, grid, [])
            for r in exact + grid:
                losses.setdefault((r.mode, r.alpha), []).append(r.mean_loss)
        for (mode, alpha), x in losses.items():
            se = np.std(x, ddof=1) / np.sqrt(len(x))
            b.check(np.mean(x) <= alpha + 3 * se,
                    f"plain {mode} mean loss {np.mean(x):.4f} above alpha + 3 SE at {alpha}")

    def metrics(self, ops: dict[str, float]) -> dict[str, float]:
        return {"plain_trials_per_s": 2 * self.trials / (ops["exact"] + ops["grid"]),
                "robust_trials_per_s": self.trials / ops["robust"]}


class RemoteCached:
    name = "remote_cached"
    probe = 100

    def __init__(self, size: int):
        self.n = size
        self.units = 2 * size  # questions, cold and warm
        self.shards = shard_sizes(size, max(1, size // 100))

    def setup(self, b) -> None:
        d = self.dir = b.workdir(f"{self.name}-{self.n}")
        self.rows = inputs.scored_rows(derive(b.seed, 5), self.n, derive(b.seed, 6))
        self.data = b.write_input(d / "data.jsonl", self.rows)
        start = 0
        for i, size in enumerate(self.shards):
            b.write_input(d / f"data-{i}.jsonl", self.rows[start:start + size])
            start += size
        b.cli("calibrate", "--dataset", self.data, "--alpha", ALPHA, "--out", d / "calibration.json")
        if b.ok:
            self.lam = json.loads((d / "calibration.json").read_text())["lambda_hat"]

    def _predict(self, b, ops: dict, name: str) -> bytes:
        scorer = f"remote:endpoint=http://127.0.0.1:{b.stub.port}/score,backoff=0.002"
        out = b""
        for i in range(len(self.shards)):
            path = self.dir / f"{name}-{i}.jsonl"
            ops[f"{name}/{i}"] = b.cli(
                "predict", "--dataset", self.dir / f"data-{i}.jsonl",
                "--calibration", self.dir / "calibration.json", "--scorer", scorer,
                "--workers", 2, "--cache-dir", self.dir / "cache", "--out", path)
            out += path.read_bytes() if path.exists() else b""
        return out

    def run_pass(self, b) -> Pass:
        shutil.rmtree(self.dir / "cache", ignore_errors=True)
        b.stub.get("/reset")
        ops: dict[str, float] = {}
        cold = self._predict(b, ops, "cold")
        cold_log = b.stub.get("/log")
        # A warm read of a shard takes about 25 ms; several of them time steadier.
        warm = self._predict(b, ops, "warm")
        for r in range(1, WARM_REPEATS):
            b.check(self._predict(b, ops, f"warm{r}") == warm, "repeated warm predictions differ")
        log = b.stub.get("/log")
        retries = sum(1 for _, status in cold_log if status == 503)
        if b.ok:
            b.check(cold == warm, "cold and warm predictions differ")
            b.check(len(cold_log) - retries == self.n, "cold pass did not POST once per question")
            b.check(len(log) == len(cold_log), "warm pass reached the remote service")
            preds = [json.loads(line) for line in cold.decode("utf-8").splitlines()]
            b.check(len(preds) == self.n and all(
                p["id"] == r["id"] and
                p["indices"] == inputs.selected(stub_scores(r["tokens"]), self.lam)
                for p, r in zip(preds, self.rows)), "remote sets differ from recomputed sets")
        return Pass(ops, {"scorer.remote_attempts": len(cold_log), "scorer.retries": retries})

    def metrics(self, ops: dict[str, float]) -> dict[str, float]:
        cold = sum(v for k, v in ops.items() if k.startswith("cold/"))
        warm = sum(v for k, v in ops.items() if k.startswith("warm"))
        return {"cold_qps": self.n / cold, "warm_qps": WARM_REPEATS * self.n / warm}


GROUPS = (CalibrateLarge, RobustBall, MCTrials, RemoteCached)
# The workloads a run can measure. The other groups run only as probes: with
# four workloads the runs were too short to be steady here (README.md).
WORKLOADS = {w.name: w for w in (CalibrateLarge, MCTrials)}
