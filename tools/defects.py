"""Plant known defects one at a time and report which tier-1 test catches each.

    python3 tools/defects.py          # every defect
    python3 tools/defects.py A C      # some of them
    python3 tools/defects.py C --select tests/test_robust.py   # part of tier-1

Each defect is a (file, old text, new text) triple. For each one, the script
copies the repository into a temporary directory, replaces the old text, which
must occur exactly once, with the new one, and runs the tier-1 suite there
with ``-x``; at most nproc copies run at a time. It prints a Markdown table
with the first test that failed on each defect, or "survived", and exits 1 if
any defect survived. Standard library only.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
IGNORE = shutil.ignore_patterns(".git", ".bench_out", ".bench_build", "__pycache__",
                                ".pytest_cache", "*.egg-info")


@dataclass(frozen=True)
class Defect:
    name: str
    summary: str
    path: str
    old: str
    new: str


DEFECTS = [
    Defect("A", "the set rule `_kept` keeps scores > 1 - λ instead of >=",
           "src/tokencover/sets.py",
           "return scores >= 1.0 - lam",
           "return scores > 1.0 - lam"),
    Defect("B", "`RiskStep` counts truth scores equal to 1 - λ as missed",
           "src/tokencover/calibrate.py",
           'np.searchsorted(self._truth, 1.0 - lam, side="left")',
           'np.searchsorted(self._truth, 1.0 - lam, side="right")'),
    Defect("C", "the flat (position, clean token) pair rule matches by position only",
           "src/tokencover/sim.py",
           "covering = _fold(flat[clean], score[clean], size)",
           "covering = _fold(flat, score, size)"),
    Defect("E", "the set rule counts kept tokens, not kept truth tokens, as covered",
           "src/tokencover/sets.py",
           "covered = np.add.reduceat(kept & truth, starts, dtype=np.int64)",
           "covered = np.add.reduceat(kept, starts, dtype=np.int64)"),
    Defect("H", "`sim` never injects noise into robust trials",
           "src/tokencover/sim.py",
           "noisy = inject_noise(q, lexicon, config.d, int(noise_rng.integers(2**63)))",
           "noisy = q"),
    Defect("S", "the flat superset check always passes",
           "src/tokencover/robust.py",
           "return np.logical_and.reduceat(holds, offsets[:-1])",
           "return np.ones(offsets.size - 1, dtype=bool)"),
    Defect("R", "the row selection of `split_dataset` keeps the truth mask in the parent's order",
           "src/tokencover/core.py",
           "scores=self.scores[flat], offsets=offsets, truth=self.truth[flat])",
           "scores=self.scores[flat], offsets=offsets, truth=self.truth[:flat.size])"),
    Defect("M", "threaded remote scoring appends the fetched misses after the hits",
           "src/tokencover/scorer.py",
           "for i, sc in zip(misses.values(), fetched):\n            scored[i] = sc",
           "scored = [sc for sc in scored if sc is not None] + list(fetched)"),
    Defect("T", "the remote scorer retries every HTTP error status, 4xx included",
           "src/tokencover/scorer.py",
           "if e.code < 500 and e.code != 429:",
           "if e.code < 500 and e.code != 429 and False:"),
    Defect("L", "the oracle-noise kernel reads each digest as little-endian",
           "src/tokencover/scorer.py",
           'np.frombuffer(digests, dtype=">u8")',
           'np.frombuffer(digests, dtype="<u8")'),
    Defect("P", "a robust trial gives every candidate at a position the clean token's score",
           "src/tokencover/sim.py",
           "drawn = np.flatnonzero(~is_clean)",
           "drawn = np.flatnonzero(np.zeros_like(is_clean))"),
    Defect("D", "the one-pass loader skips the duplicate-id check",
           "src/tokencover/core.py",
           "if rid in first_line:",
           "if rid in ():"),
    Defect("U", "the loader's record check accepts a score above 1",
           "src/tokencover/core.py",
           "max(vals) <= 1.0",
           "max(vals) <= 2.0"),
    Defect("F", "the loader's record check misses a NaN that is not the first score",
           "src/tokencover/core.py",
           " and not math.isnan(sum(vals))",
           ""),
    Defect("N", "the loader's record check takes a JSON true or false as a score",
           "src/tokencover/core.py",
           "frozenset({int, float})",
           "frozenset({int, float, bool})"),
    Defect("J", "`CoverageReport.to_dict` leaves `per_trial_losses` a tuple",
           "src/tokencover/sim.py",
           'return {**asdict(self), "per_trial_losses": list(self.per_trial_losses)}',
           "return asdict(self)"),
    Defect("O", "`simulate --config` accepts a run `mode` that is not a string",
           "src/tokencover/cli.py",
           '"mode": ((str,), "a string"), ',
           ""),
    Defect("G", "`CalibrationResult.from_dict` reads `feasible` with `bool()`",
           "src/tokencover/calibrate.py",
           'feasible=_json_value(rec, "feasible", (bool,), "true or false"),',
           'feasible=bool(rec["feasible"]),'),
    Defect("K", "the experiment's means skip the last trial",
           "src/tokencover/sim.py",
           "[row[key] for row in rows]",
           "[row[key] for row in rows[:-1]]"),
    Defect("Q", "`stats` accepts a λ̂ above the one the file's α and mode give",
           "src/tokencover/cli.py",
           "for key, want in redone.to_dict().items() if given[key] != want]",
           "for key, want in redone.to_dict().items() if given[key] != want\n"
           "                and not (key == \"lambda_hat\" and given[key] > want)]"),
    Defect("V", "`CalibrationResult.from_dict` accepts any mode",
           "src/tokencover/calibrate.py",
           '("mode", res.mode in (MODE_EXACT, MODE_GRID), "\'exact\' or \'grid\'"),',
           '("mode", True, "\'exact\' or \'grid\'"),'),
    Defect("W", "the exact-mode chunk fold assigns scores instead of taking the maximum",
           "src/tokencover/robust.py",
           "np.maximum.at(best, slots, scorer.score_many(chunk))",
           "best[slots] = scorer.score_many(chunk)"),
    Defect("X", "the uniform scorer's `score_many` counts one call per batch, not per question",
           "src/tokencover/scorer.py",
           "self.calls += len(questions)\n        return _unit_uniforms",
           "self.calls += 1\n        return _unit_uniforms"),
    Defect("Y", "the oracle's `score_many` numbers positions across the chunk, not per question",
           "src/tokencover/scorer.py",
           "[j for q in questions for j in range(len(q.tokens))]",
           "list(range(sum(len(q.tokens) for q in questions)))"),
    Defect("Z", "`_score_batch` drops the last partial chunk of questions",
           "src/tokencover/sets.py",
           "range(0, len(questions), _SCORE_CHUNK)",
           "range(0, len(questions) - _SCORE_CHUNK + 1, _SCORE_CHUNK)"),
    Defect("AD", "the derived `score_question` returns a question's scores in reverse order",
           "src/tokencover/scorer.py",
           "ImportanceScores(tuple(self.score_many([question]).tolist()))",
           "ImportanceScores(tuple(self.score_many([question])[::-1].tolist()))"),
    Defect("AE", "`RemoteScorer.score_many` fetches every occurrence of a repeated miss",
           "src/tokencover/scorer.py",
           "misses.setdefault((q.prompt, q.tokens), i)",
           "misses.setdefault(i, i)"),
    Defect("I", "`CalibrationResult.from_dict` accepts a grid size of any magnitude",
           "src/tokencover/calibrate.py",
           '("grid_size", (size or 0) <= MAX_GRID_SIZE, f"at most {MAX_GRID_SIZE}"),',
           ""),
    Defect("AA", "`split_dataset` gives the calibration rows to both sides",
           "src/tokencover/core.py",
           "return dataset.take(order[:n_left]), dataset.take(order[n_left:])",
           "return dataset.take(order[:n_left]), dataset.take(order[:n_left])"),
    Defect("AB", "the atomic writer leaves its temp file behind when the write fails",
           "src/tokencover/core.py",
           "        if os.path.exists(tmp):\n            os.unlink(tmp)\n",
           ""),
    Defect("AC", "`calibrate --curve-out` drops the last point of each grid slice",
           "src/tokencover/cli.py",
           "risk_curve(step, grid[start:start + _CURVE_CHUNK])",
           "risk_curve(step, grid[start:start + _CURVE_CHUNK - 1])"),
    Defect("AF", "the loader checks the type of `answer` before that of `explanation_indices`",
           "src/tokencover/core.py",
           "    if type(idx) is not list or not _INT.issuperset(map(type, idx)):\n",
           "    if answer is not None and type(answer) is not str:\n"
           "        raise DatasetError(\n"
           "            f\"line {lineno} (id={rid!r}): field 'answer' must be a string or null\")\n"
           "    if type(idx) is not list or not _INT.issuperset(map(type, idx)):\n"),
    Defect("AG", "the atomic writer makes its temp file with `tempfile.mkstemp`, so it is 0600",
           "src/tokencover/core.py",
           "fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)",
           'fd, tmp = __import__("tempfile").mkstemp(dir=path.parent, suffix=".tmp")'),
    Defect("AH", "the flat fold `_fold` assigns item scores instead of taking the maximum",
           "src/tokencover/robust.py",
           "np.maximum.at(best, flat, score)",
           "best[flat] = score"),
]


def plant(defect: Defect, root: Path) -> None:
    path = root / defect.path
    text = path.read_text(encoding="utf-8")
    count = text.count(defect.old)
    if count != 1:
        raise SystemExit(f"defect {defect.name}: old text occurs {count} times in {defect.path}")
    path.write_text(text.replace(defect.old, defect.new), encoding="utf-8")


def run(defect: Defect, select: list[str]) -> tuple[str, float]:
    """Tier-1 (or the selected tests) on a planted copy: the first failing test."""
    with tempfile.TemporaryDirectory(prefix=f"defect-{defect.name}-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        plant(defect, copy)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.run(TIER1 + select, cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    # a parametrized id may hold spaces; pytest ends the id with " - " and a reason
    failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", proc.stdout, flags=re.MULTILINE)
    if failed:
        return f"caught by `{failed[0]}`", seconds
    if proc.returncode == 0:
        return "**survived**", seconds
    tail = proc.stdout.strip().splitlines()[-1:] or ["no output"]
    return f"tier-1 exited {proc.returncode} without a failed test: {tail[0]}", seconds


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="defects to plant (default: all)")
    ap.add_argument("--select", action="append", default=[], metavar="TEST",
                    help="run only this test path or node id (repeatable)")
    args = ap.parse_args(argv)
    by_name = {d.name: d for d in DEFECTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        ap.error(f"unknown defects {unknown}; known: {sorted(by_name)}")
    chosen = [by_name[n] for n in args.names] if args.names else DEFECTS
    with ThreadPoolExecutor(max_workers=min(os.cpu_count() or 1, len(chosen))) as pool:
        results = list(pool.map(lambda d: run(d, args.select), chosen))
    print("| Defect | Change | Result | Seconds |")
    print("|---|---|---|---|")
    for d, (result, seconds) in zip(chosen, results):
        print(f"| {d.name} | {d.summary} | {result} | {seconds:.0f} |")
    return 1 if any(r == "**survived**" for r, _ in results) else 0


if __name__ == "__main__":
    sys.exit(main())
