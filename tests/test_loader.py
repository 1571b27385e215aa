"""Columnar ingest: the one-pass loader, its error messages against a
per-line reference build, and the arrays that calibration reads."""

from __future__ import annotations

import itertools
import json
import math
import os
import threading

import numpy as np
import pytest

from tokencover.calibrate import RiskStep, critical_thresholds
from tokencover.cli import EXIT_INPUT, EXIT_OK, main
from tokencover.core import (
    CalibrationExample,
    DatasetError,
    GroundTruthExplanation,
    ImportanceScores,
    ScoredArrays,
    TokenizedQuestion,
    load_dataset,
    write_dataset,
)

from conftest import make_example, random_dataset

GOOD = '{"id": "a", "tokens": ["x", "y"], "scores": [0.5, 1.0], "explanation_indices": [1]}'


DROP = object()


def rec(**fields) -> str:
    """Line 2's record: a valid one with ``fields`` replaced, or dropped if DROP."""
    base = {"id": "b", "tokens": ["x", "y"], "scores": [0.25, 0.75], "explanation_indices": [0]}
    base.update(fields)
    return json.dumps({k: v for k, v in base.items() if v is not DROP})

# One case per message of the reference below, on line 2 after a valid line
# 1. The invariant "answer must be a string or null" cannot come from a file:
# the schema check on 'answer' comes first.
PARITY = [
    (rec(scores=DROP), "line 2: missing field 'scores'"),
    (rec(id=3), "line 2: field 'id' must be a string"),
    (rec(tokens=["x", 1]), "line 2 (id='b'): field 'tokens' must be a list of strings"),
    (rec(tokens="xy"), "line 2 (id='b'): field 'tokens' must be a list of strings"),
    (rec(scores=[True, 0.5]), "line 2 (id='b'): field 'scores' must be a list of numbers"),
    (rec(scores=["0.5", 0.5]), "line 2 (id='b'): field 'scores' must be a list of numbers"),
    (rec(explanation_indices=[0.0]),
     "line 2 (id='b'): field 'explanation_indices' must be a list of integers"),
    (rec(explanation_indices=[False]),
     "line 2 (id='b'): field 'explanation_indices' must be a list of integers"),
    (rec(answer=5), "line 2 (id='b'): field 'answer' must be a string or null"),
    (rec(id=""), "line 2 (id=''): id must be a non-empty string"),
    (rec(tokens=[], scores=[]),
     "line 2 (id='b'): tokens must be non-empty; explanation index 0 outside [0, 0)"),
    (rec(tokens=["x", ""]), "line 2 (id='b'): tokens[1] must be a non-empty string"),
    (rec(scores=[0.5]), "line 2 (id='b'): scores has length 1, expected 2"),
    (rec(scores=[0.5, float("nan")]), "line 2 (id='b'): scores[1] is not finite"),
    (rec(scores=[float("-inf"), 0.5]), "line 2 (id='b'): scores[0] is not finite"),
    (rec(scores=[0.5, 1.5]), "line 2 (id='b'): scores[1]=1.5 outside [0, 1]"),
    (rec(scores=[-1, 0.5]), "line 2 (id='b'): scores[0]=-1.0 outside [0, 1]"),
    (rec(explanation_indices=[]), "line 2 (id='b'): explanation_indices must be non-empty"),
    (rec(explanation_indices=[2]), "line 2 (id='b'): explanation index 2 outside [0, 2)"),
    (rec(explanation_indices=[-1, 1]), "line 2 (id='b'): explanation index -1 outside [0, 2)"),
    (rec(scores=[float("nan"), 2], explanation_indices=[5, 0]),
     "line 2 (id='b'): scores[0] is not finite; scores[1]=2.0 outside [0, 1]; "
     "explanation index 5 outside [0, 2)"),
    (rec(explanation_indices=[10**30]),
     "line 2 (id='b'): explanation index 1000000000000000000000000000000 outside [0, 2)"),
    ("{bad", "line 2: invalid JSON: Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)"),
    ("[1, 2]", "line 2: record must be a JSON object"),
    ("5", "line 2: record must be a JSON object"),
    ('"x"', "line 2: record must be a JSON object"),
    ("null", "line 2: record must be a JSON object"),
    (rec(id="a"), "line 2: duplicate id 'a', first used on line 1"),
]


def write_lines(tmp_path, *lines: str):
    path = tmp_path / "data.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def reference_example(rec, lineno: int, clamp_scores: bool) -> CalibrationExample:
    """One parsed line as an example, or the first schema error it breaks,
    written apart from the loader. Types are exact: a JSON true is no number."""
    if type(rec) is not dict:
        raise DatasetError(f"line {lineno}: record must be a JSON object")
    for name in ("id", "tokens", "scores", "explanation_indices"):
        if name not in rec:
            raise DatasetError(f"line {lineno}: missing field {name!r}")
    rid = rec["id"]
    if type(rid) is not str:
        raise DatasetError(f"line {lineno}: field 'id' must be a string")
    where = f"line {lineno} (id={rid!r})"
    tokens = rec["tokens"]
    if type(tokens) is not list or any(type(t) is not str for t in tokens):
        raise DatasetError(f"{where}: field 'tokens' must be a list of strings")
    scores = rec["scores"]
    if type(scores) is not list or any(type(s) not in (int, float) for s in scores):
        raise DatasetError(f"{where}: field 'scores' must be a list of numbers")
    if clamp_scores:
        scores = [s if s != s else min(1.0, max(0.0, s)) for s in scores]  # NaN stays
    for j, s in enumerate(scores):
        try:
            float(s)
        except OverflowError:
            raise DatasetError(f"{where}: scores[{j}] is outside the range of a float") from None
    indices = rec["explanation_indices"]
    if type(indices) is not list or any(type(i) is not int for i in indices):
        raise DatasetError(f"{where}: field 'explanation_indices' must be a list of integers")
    answer = rec.get("answer")
    if answer is not None and type(answer) is not str:
        raise DatasetError(f"{where}: field 'answer' must be a string or null")
    return CalibrationExample(question=TokenizedQuestion(id=rid, tokens=tuple(tokens)),
                              scores=ImportanceScores(tuple(scores)),
                              explanation=GroundTruthExplanation(frozenset(indices)),
                              answer=answer)


def reference_problems(example: CalibrationExample) -> list[str]:
    """Every invariant violation of an example, in the order the loader names them."""
    q, values, indices = example.question, example.scores.values, example.explanation.indices
    k = len(q.tokens)
    problems = [] if q.id else ["id must be a non-empty string"]
    if k == 0:
        problems.append("tokens must be non-empty")
    problems += [f"tokens[{j}] must be a non-empty string"
                 for j, t in enumerate(q.tokens) if not t]
    if len(values) != k:
        problems.append(f"scores has length {len(values)}, expected {k}")
    for j, v in enumerate(values):
        if not math.isfinite(v):
            problems.append(f"scores[{j}] is not finite")
        elif not 0.0 <= v <= 1.0:
            problems.append(f"scores[{j}]={v!r} outside [0, 1]")
    if not indices:
        problems.append("explanation_indices must be non-empty")
    problems += [f"explanation index {j} outside [0, {k})" for j in sorted(indices)
                 if not 0 <= j < k]
    return problems


def per_line(path, clamp_scores: bool = False) -> tuple[CalibrationExample, ...]:
    """The reference build of a file of records with distinct ids: each line
    made with ``reference_example`` and checked with ``reference_problems``,
    raising the first bad line's error."""
    examples = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        example = reference_example(json.loads(line), lineno, clamp_scores)
        problems = reference_problems(example)
        if problems:
            raise DatasetError(f"line {lineno} (id={example.question.id!r}): "
                               + "; ".join(problems))
        examples.append(example)
    return tuple(examples)


def outcome(load, path, clamp_scores: bool):
    """The examples ``load`` builds from ``path``, or its error message."""
    try:
        return tuple(load(path, clamp_scores))
    except DatasetError as e:
        return str(e)


class TestMessagesMatchPerRecordLoader:
    @pytest.mark.parametrize("line, message", PARITY)
    def test_exact_message(self, tmp_path, line, message):
        with pytest.raises(DatasetError) as info:
            load_dataset(write_lines(tmp_path, GOOD, line))
        assert str(info.value) == message

    def test_no_records(self, tmp_path):
        path = write_lines(tmp_path, "", "  ")
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: dataset contains no records"

    def test_first_error_by_line_order(self, tmp_path):
        path = write_lines(tmp_path, GOOD, rec(scores=[0.5, 3.0]), GOOD, "{bad")
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(info.value) == "line 2 (id='b'): scores[1]=3.0 outside [0, 1]"

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = write_lines(tmp_path, GOOD, "", "   ", rec(id=""))
        with pytest.raises(DatasetError, match=r"^line 4 \(id=''\)"):
            load_dataset(path)
        ds = load_dataset(write_lines(tmp_path, "", GOOD, "\t", rec()))
        assert [ex.question.id for ex in ds.examples] == ["a", "b"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
class TestReadOnce:
    def test_bad_record_from_a_pipe_names_its_line(self, tmp_path):
        fifo = tmp_path / "data.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.write(GOOD + "\n" + rec(scores=[0.5, 1.5]) + "\n")

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            with pytest.raises(DatasetError) as info:
                load_dataset(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert str(info.value) == "line 2 (id='b'): scores[1]=1.5 outside [0, 1]"


# Field values for the loader's checks: valid ones, and ones that each break
# one check of the reference.
VARIANTS = {
    "id": ["b", "", 3, None, True, DROP],
    "tokens": [["x", "y"], [], "xy", ["x"], ["x", ""], ["x", 1], ["x", "y", "z"]],
    "scores": [[0.25, 0.75], [], [0.5], [True, 0.5], ["0.5", 0.5], None, [1, 0], [-0.0, 1],
               [float("nan"), 0.5], [float("inf"), 0.5], [float("-inf"), 0], [2, 0.5],
               [-1, 0.5], [10**400, 0.5], [0.5, 1.0000001], DROP],
    "explanation_indices": [[0], [], [0.0], [False], [2], [-1], [1, 1], [10**30], [0, 1], "0"],
    "answer": [DROP, None, "x", 5, []],
}


class TestAgainstPerLineReference:
    def test_every_pair_of_field_variants(self, tmp_path):
        """Each record differing from a valid one in up to two fields loads to
        the reference's examples, or fails with the reference's message."""
        variants = [(field, v) for field, values in VARIANTS.items() for v in values]
        for (f1, v1), (f2, v2) in itertools.combinations(variants, 2):
            if f1 == f2:
                continue
            path = write_lines(tmp_path, GOOD, rec(**{f1: v1, f2: v2}))
            for clamp in (False, True):
                expected = outcome(per_line, path, clamp)
                got = outcome(lambda p, c: load_dataset(p, c).examples, path, clamp)
                assert got == expected, (f1, v1, f2, v2, clamp)


class TestBulkPath:
    def test_repeated_index_counts_once(self, tmp_path):
        ds = load_dataset(write_lines(tmp_path, rec(scores=[0.3, 0.9], explanation_indices=[0, 0])))
        assert ds.examples[0].explanation.indices == frozenset({0})
        assert ds.truth.tolist() == [True, False]
        # truth size 1: missing position 0 costs the whole example
        assert RiskStep(ds).risks([0.5])[0] == 1.0

    def test_matches_per_record_loader(self, tmp_path):
        rng = np.random.default_rng(5)
        for _ in range(20):
            records = []
            for i, ex in enumerate(random_dataset(rng, int(rng.integers(1, 30))).examples):
                r = {"id": ex.question.id, "tokens": list(ex.question.tokens),
                     "scores": list(ex.scores.values),
                     "explanation_indices": sorted(ex.explanation.indices)}
                if i % 3 == 0:
                    r["answer"] = f"ans{i}"
                if i % 4 == 1:
                    r["scores"] = [int(s >= 0.5) for s in r["scores"]]
                if i % 5 == 2:
                    r["explanation_indices"] *= 2
                records.append(json.dumps(r))
            path = write_lines(tmp_path, *records)
            bulk = load_dataset(path)
            reference = per_line(path)
            assert bulk.examples == reference
            assert_arrays_equal(bulk, ScoredArrays.from_examples(reference))

    def test_round_trip_through_arrays(self, tmp_path):
        ds = random_dataset(np.random.default_rng(6), 25)
        write_dataset(ds, tmp_path / "d.jsonl")
        loaded = load_dataset(tmp_path / "d.jsonl")
        assert loaded.examples == ds.examples and len(loaded) == 25
        assert ScoredArrays.from_examples(ds.examples).examples == ds.examples

    def test_examples_built_once(self):
        arrays = random_dataset(np.random.default_rng(7), 5)
        assert arrays.examples is arrays.examples

    def test_take_builds_its_own_examples(self):
        arrays = random_dataset(np.random.default_rng(8), 9)
        rows = [4, 0, 7]
        taken = arrays.take(rows)
        assert taken.examples == tuple(arrays.examples[i] for i in rows)
        assert arrays.take([1]).examples == (arrays.examples[1],)

    def test_arrays_are_read_only(self, tmp_path):
        ds = load_dataset(write_lines(tmp_path, GOOD))
        assert len(ds.examples) == 1  # built from the arrays, which must not change
        for name in ("scores", "offsets", "truth"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(ds, name)[0] = 0


class TestClampScores:
    def test_nan_rejected_not_clamped(self, tmp_path):
        path = write_lines(tmp_path, GOOD, rec(scores=[float("nan"), 0.5]))
        with pytest.raises(DatasetError) as info:
            load_dataset(path, clamp_scores=True)
        assert str(info.value) == "line 2 (id='b'): scores[0] is not finite"

    def test_nan_rejected_before_a_later_bad_line(self, tmp_path):
        path = write_lines(tmp_path, rec(scores=[0.5, float("nan")]), "{bad")
        with pytest.raises(DatasetError) as info:
            load_dataset(path, clamp_scores=True)
        assert str(info.value) == "line 1 (id='b'): scores[1] is not finite"

    def test_infinities_and_negative_zero(self, tmp_path):
        path = write_lines(tmp_path, rec(tokens=["a", "b", "c", "d"],
                                         scores=[float("inf"), float("-inf"), -0.0, 7]))
        bulk = load_dataset(path, clamp_scores=True)
        per_record = per_line(path, clamp_scores=True)
        for values in (bulk.examples[0].scores.values, per_record[0].scores.values):
            assert values == (1.0, 0.0, 0.0, 1.0)
            assert math.copysign(1.0, values[2]) == 1.0


class TestOverRangeIntegers:
    """Integer scores no float can hold, and integer literals Python will not
    read, through the CLI: a typed input error naming the line, never a crash."""

    HUGE = "1" + "0" * 400

    def calibrate(self, tmp_path, path, *extra):
        out = tmp_path / "calib.json"
        code = main(["calibrate", "--dataset", str(path), "--alpha", "0.3",
                     "--out", str(out), *extra])
        return code, out

    def test_rejected_with_line_id_and_position(self, tmp_path, capsys):
        line = rec(scores=[0.5, 0.5]).replace("0.5]", self.HUGE + "]")
        code, _ = self.calibrate(tmp_path, write_lines(tmp_path, GOOD, line))
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: line 2 (id='b'): scores[1] is outside the range of a float\n")

    def test_clamped_like_infinities(self, tmp_path):
        line = rec(scores=[0.5, 0.5]).replace("[0.5, 0.5]", f"[{self.HUGE}, -{self.HUGE}]")
        code, out = self.calibrate(tmp_path, write_lines(tmp_path, GOOD, line), "--clamp-scores")
        assert code == EXIT_OK
        reference = tmp_path / "ref"
        reference.mkdir()
        ref_code, ref_out = self.calibrate(
            reference, write_lines(reference, GOOD, rec(scores=[float("inf"), float("-inf")])),
            "--clamp-scores")
        assert ref_code == EXIT_OK
        assert out.read_bytes() == ref_out.read_bytes()

    def test_over_digit_limit_names_the_line(self, tmp_path, capsys):
        line = rec(scores=[0.5, 0.5]).replace("0.5]", "1" + "0" * 4300 + "]")
        code, _ = self.calibrate(tmp_path, write_lines(tmp_path, GOOD, line))
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: line 2: invalid JSON: Exceeds the limit")


def assert_arrays_equal(a: ScoredArrays, b: ScoredArrays) -> None:
    assert (a.ids, a.tokens, a.answers) == (b.ids, b.tokens, b.answers)
    for name in ("scores", "offsets", "truth"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def reference_step(examples):
    """The per-example loop the risk step was built with before the arrays."""
    scores, sizes = [], []
    for ex in examples:
        idx = ex.explanation.indices
        scores.extend(ex.scores.values[j] for j in idx)
        sizes.append(len(idx))
    truth = np.asarray(scores, dtype=np.float64)
    order = np.argsort(truth, kind="stable")
    weights = np.repeat(np.asarray(sizes, dtype=np.int64), sizes)[order]
    missed = np.concatenate(([0.0], np.cumsum(1.0 / weights)))
    lambdas = np.unique(np.asarray(
        [1.0 - s for ex in examples for s in ex.scores.values] + [0.0, 1.0]))
    return truth[order], weights, missed, lambdas


class TestArraysAgainstPerExampleLoop:
    def test_step_and_thresholds_bit_equal(self):
        rng = np.random.default_rng(9)
        for n in (1, 7, 60, 400):
            # a 0.05 lattice puts equal scores in examples of different truth sizes
            examples = [
                make_example([f"t{j}" for j in range(k)], np.round(rng.random(k) * 20) / 20,
                             rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False),
                             qid=f"q{i}")
                for i, k in enumerate(rng.integers(1, 9, size=n))
            ]
            truth, sizes, missed, lambdas = reference_step(examples)
            step = RiskStep(ScoredArrays.from_examples(examples))
            assert np.array_equal(step._truth, truth)
            assert np.array_equal(step._sizes, sizes)
            assert np.array_equal(step._missed, missed)
            assert np.array_equal(critical_thresholds(examples), lambdas)

    def test_empty_explanation_named(self):
        examples = [make_example(["a"], [0.5], [0]), make_example(["a"], [0.5], [], qid="q9")]
        with pytest.raises(ValueError, match="'q9' has an empty explanation"):
            RiskStep(examples)

    def test_index_outside_scores_rejected(self):
        with pytest.raises(ValueError, match=r"'q1': explanation index 3 outside \[0, 2\)"):
            ScoredArrays.from_examples([make_example(["a"], [0.5], [0]),
                                        make_example(["a", "b"], [0.5, 0.1], [3], qid="q1")])
