"""Core types, validation, JSONL round trips, and dataset splitting."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from tokencover.core import (
    DatasetError,
    ScoredArrays,
    TokenizedQuestion,
    load_dataset,
    split_dataset,
    validate_example,
    write_dataset,
)

from conftest import make_example, random_dataset, random_example


class TestTypes:
    def test_tokens_coerced_to_tuple(self):
        q = TokenizedQuestion(id="a", tokens=["x", "y"])
        assert q.tokens == ("x", "y")
        assert len(q) == 2

    def test_scores_coerced_to_float(self):
        ex = make_example(["x", "y"], [1, 0], [0])
        assert ex.scores.values == (1.0, 0.0)
        assert isinstance(ex.scores[1], float)


class TestValidateExample:
    def test_valid_example_has_no_violations(self):
        assert validate_example(make_example(["a", "b"], [0.5, 1.0], [1])) == []

    def test_all_violations_reported_not_just_first(self):
        ex = make_example(["a", "b"], [1.5, -0.2], [5])
        problems = validate_example(ex)
        assert len(problems) == 3
        joined = " | ".join(problems)
        assert "scores[0]" in joined
        assert "scores[1]" in joined
        assert "index 5" in joined

    def test_score_range_is_inclusive(self):
        assert validate_example(make_example(["a", "b"], [0.0, 1.0], [0])) == []

    def test_rejects_nan_score(self):
        problems = validate_example(make_example(["a"], [float("nan")], [0]))
        assert any("finite" in p for p in problems)

    def test_rejects_length_mismatch(self):
        problems = validate_example(make_example(["a", "b", "c"], [0.5], [0]))
        assert any("length" in p for p in problems)

    def test_rejects_empty_truth(self):
        problems = validate_example(make_example(["a"], [0.5], []))
        assert any("non-empty" in p for p in problems)

    def test_rejects_empty_token_string(self):
        problems = validate_example(make_example(["a", ""], [0.5, 0.5], [0]))
        assert any("tokens[1]" in p for p in problems)


class TestLoadWriteRoundTrip:
    def test_round_trip_is_exact(self, tmp_path):
        # exercise full float precision, unicode tokens, optional answer
        ds = ScoredArrays.from_examples(
            (
                make_example(["für", "b"], [0.1 + 0.2, 1.0], [0], qid="q0", answer="yes"),
                make_example(["c"], [1 / 3], [0], qid="q1"),
            )
        )
        path = tmp_path / "ds.jsonl"
        write_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.examples == ds.examples
        assert loaded.examples[0].scores.values[0] == 0.1 + 0.2

    def test_loads_arrays(self, tmp_path):
        ds = random_dataset(np.random.default_rng(4), 3)
        write_dataset(ds, tmp_path / "ds.jsonl")
        assert type(load_dataset(tmp_path / "ds.jsonl")) is ScoredArrays

    def test_written_bytes(self, tmp_path):
        ds = ScoredArrays.from_examples(
            (
                make_example(["für", "日本"], [0.1 + 0.2, 1.0], [1, 0], qid="q0", answer="ja"),
                make_example(["c"], [1 / 3], [0], qid="q1"),
            )
        )
        path = tmp_path / "ds.jsonl"
        write_dataset(ds, path)
        assert path.read_text(encoding="utf-8") == (
            '{"id": "q0", "tokens": ["für", "日本"], "scores": [0.30000000000000004, 1.0], '
            '"explanation_indices": [0, 1], "answer": "ja"}\n'
            '{"id": "q1", "tokens": ["c"], "scores": [0.3333333333333333], '
            '"explanation_indices": [0]}\n'
        )

    @pytest.mark.parametrize("fail", ["rename", "second-record"])
    def test_failed_write_keeps_old_file_and_leaves_no_temp_file(self, tmp_path, monkeypatch,
                                                                  fail):
        path = tmp_path / "ds.jsonl"
        path.write_text("old\n", encoding="utf-8")
        if fail == "rename":
            def refuse(src, dst):
                raise OSError("no rename")

            monkeypatch.setattr(os, "replace", refuse)
        else:
            dumps, records = json.dumps, []

            def dumps_one(*args, **kwargs):
                records.append(args[0])
                if len(records) == 2:
                    raise OSError("disk full")
                return dumps(*args, **kwargs)

            monkeypatch.setattr(json, "dumps", dumps_one)
        with pytest.raises(OSError):
            write_dataset(random_dataset(np.random.default_rng(7), 3), path)
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ds.jsonl"]

    def test_double_round_trip_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 20)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(ds, p1)
        write_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_order_preserved(self, tmp_path):
        ds = random_dataset(np.random.default_rng(6), 10)
        path = tmp_path / "ds.jsonl"
        write_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.ids == ds.ids


# Writes a dataset, a score-cache entry and a calibration, and overwrites a
# 0640 file with a second calibration; its last line of output is every file's mode.
WRITE_ALL = """
import json, os, stat, sys
from pathlib import Path
from tokencover.cli import main
from tokencover.core import write_dataset
from tokencover.scorer import ScoreCache
from tokencover.sim import SyntheticConfig, generate_synthetic_dataset

root = Path(sys.argv[1])
write_dataset(generate_synthetic_dataset(SyntheticConfig(n_calibration=10, n_test=10)),
              root / "data.jsonl")
ScoreCache(root / "cache").put("k", (0.5,))
(root / "old.json").write_text("old")
os.chmod(root / "old.json", 0o640)
for out in ("calib.json", "old.json"):
    assert main(["calibrate", "--dataset", str(root / "data.jsonl"), "--alpha", "0.3",
                 "--out", str(root / out)]) == 0
print(json.dumps({p.name: stat.S_IMODE(p.stat().st_mode) for p in root.rglob("*") if p.is_file()}))
"""


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX file modes")
class TestFileModes:
    """Written files get the mode ``open`` would give them: 0666 less the
    umask, or an overwritten file's own mode. The umask is process-wide, so
    each case runs in a child process with its own."""

    @pytest.mark.parametrize("umask, new", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_new_files_follow_umask_and_overwritten_keep_mode(self, tmp_path, umask, new):
        child = subprocess.run([sys.executable, "-c", WRITE_ALL, str(tmp_path)], umask=umask,
                               capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        last = json.loads(child.stdout.splitlines()[-1])
        modes = {name: oct(mode) for name, mode in last.items()}
        assert modes == {"data.jsonl": oct(new), "k.json": oct(new), "calib.json": oct(new),
                         "old.json": oct(0o640)}


class TestLoadDatasetErrors:
    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_malformed_json_names_line_number(self, tmp_path):
        good = json.dumps(
            {"id": "a", "tokens": ["x"], "scores": [0.5], "explanation_indices": [0]}
        )
        path = self._write(tmp_path, [good, "{not json"])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_out_of_range_score_names_record_and_field(self, tmp_path):
        rec = {"id": "bad-one", "tokens": ["x"], "scores": [1.3], "explanation_indices": [0]}
        path = self._write(tmp_path, [json.dumps(rec)])
        with pytest.raises(DatasetError, match=r"bad-one.*scores\[0\]"):
            load_dataset(path)

    def test_clamp_scores_rescues_out_of_range(self, tmp_path):
        rec = {
            "id": "a",
            "tokens": ["x", "y"],
            "scores": [1.3, -0.5],
            "explanation_indices": [0],
        }
        path = self._write(tmp_path, [json.dumps(rec)])
        ds = load_dataset(path, clamp_scores=True)
        assert ds.examples[0].scores.values == (1.0, 0.0)

    def test_missing_field_is_named(self, tmp_path):
        rec = {"id": "a", "tokens": ["x"], "scores": [0.5]}
        path = self._write(tmp_path, [json.dumps(rec)])
        with pytest.raises(DatasetError, match="explanation_indices"):
            load_dataset(path)

    def test_wrong_field_type_is_named(self, tmp_path):
        rec = {"id": "a", "tokens": "x", "scores": [0.5], "explanation_indices": [0]}
        path = self._write(tmp_path, [json.dumps(rec)])
        with pytest.raises(DatasetError, match="tokens"):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError, match="no records"):
            load_dataset(path)

    def test_explanation_index_out_of_range(self, tmp_path):
        rec = {"id": "a", "tokens": ["x"], "scores": [0.5], "explanation_indices": [3]}
        path = self._write(tmp_path, [json.dumps(rec)])
        with pytest.raises(DatasetError, match="index 3"):
            load_dataset(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = self._write(tmp_path, ["[1, 2]"])
        with pytest.raises(DatasetError, match="line 1.*object"):
            load_dataset(path)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        first = {"id": "a", "tokens": ["x"], "scores": [0.5], "explanation_indices": [0]}
        other = {"id": "b", "tokens": ["y"], "scores": [0.1], "explanation_indices": [0]}
        again = {"id": "a", "tokens": ["z"], "scores": [0.9], "explanation_indices": [0]}
        path = self._write(tmp_path, [json.dumps(r) for r in (first, other, again)])
        with pytest.raises(DatasetError, match=r"line 3: duplicate id 'a'.*line 1"):
            load_dataset(path)


class TestSplitDataset:
    def test_sizes_ten_at_point_seven(self):
        ds = random_dataset(np.random.default_rng(7), 10)
        cal, test = split_dataset(ds, 0.7, seed=0)
        assert (len(cal), len(test)) == (7, 3)

    def test_deterministic_per_seed(self):
        ds = random_dataset(np.random.default_rng(8), 30)
        a = [side.examples for side in split_dataset(ds, 0.5, seed=3)]
        b = [side.examples for side in split_dataset(ds, 0.5, seed=3)]
        assert a == b
        c = [side.examples for side in split_dataset(ds, 0.5, seed=4)]
        assert a != c

    def test_partition_preserves_examples(self):
        ds = random_dataset(np.random.default_rng(9), 25)
        cal, test = split_dataset(ds, 0.3, seed=1)
        combined = sorted(
            ex.question.id for side in (cal, test) for ex in side.examples
        )
        assert combined == sorted(ex.question.id for ex in ds.examples)

    def test_same_as_permuting_the_examples(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            examples = tuple(
                replace(random_example(rng, qid=f"q{i}"),
                        answer=f"a{i}" if rng.random() < 0.5 else None)
                for i in range(n)
            )
            ds = ScoredArrays.from_examples(examples)
            fraction, seed = float(rng.uniform(0.05, 0.95)), int(rng.integers(1000))
            n_left = round(fraction * n)
            if not 0 < n_left < n:
                continue
            order = list(range(n))
            random.Random(seed).shuffle(order)
            cal, test = split_dataset(ds, fraction, seed=seed)
            assert cal.examples == tuple(ds.examples[i] for i in order[:n_left])
            assert test.examples == tuple(ds.examples[i] for i in order[n_left:])

    def test_sides_are_arrays_with_their_own_examples(self):
        ds = random_dataset(np.random.default_rng(13), 12)
        cal, test = split_dataset(ds, 0.5, seed=2)
        assert type(cal) is ScoredArrays and type(test) is ScoredArrays
        by_id = {ex.question.id: ex for ex in ds.examples}
        for side in (cal, test):
            assert side.examples == tuple(by_id[rid] for rid in side.ids)
        assert set(cal.ids).isdisjoint(test.ids)

    def test_empty_side_rejected(self):
        ds = random_dataset(np.random.default_rng(10), 2)
        with pytest.raises(DatasetError, match="empty"):
            split_dataset(ds, 0.999, seed=0)

    def test_fraction_bounds_rejected(self):
        ds = random_dataset(np.random.default_rng(11), 5)
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(DatasetError):
                split_dataset(ds, bad, seed=0)
