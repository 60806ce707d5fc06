import pytest

from asrspell import (CorruptionKind, CorruptionRecord, CorruptionSpec,
                      EvaluationReport, correct_transcript, evaluate,
                      inject_errors)


def record(pos, orig, corr, kind=CorruptionKind.NONWORD):
    return CorruptionRecord(pos, orig, corr, kind)


class TestReportArithmetic:
    def test_from_counts(self):
        report = EvaluationReport(
            total_words=500, nonword_errors=15, realword_errors=91,
            corrected_nonword=12, corrected_realword=82)
        assert report.total_errors == 106
        assert report.corrected == 94
        assert abs(report.residual_error_rate - 0.024) < 1e-12

    def test_empty(self):
        report = EvaluationReport(0, 0, 0, 0, 0)
        assert report.residual_error_rate == 0.0

    def test_inconsistent_report_rejected(self):
        # The totals are computed from the counts, so a report whose
        # totals disagree with its counts cannot be built.
        counts = dict(total_words=100, nonword_errors=2, realword_errors=2,
                      corrected_nonword=2, corrected_realword=2)
        for name, value in [("total_errors", 5), ("corrected", 4),
                            ("residual_error_rate", 0.01)]:
            with pytest.raises(TypeError,
                               match=f"unexpected keyword argument '{name}'"):
                EvaluationReport(**counts, **{name: value})

    def test_tsv_deterministic(self):
        a = EvaluationReport(100, 10, 0, 9, 0)
        b = EvaluationReport(100, 10, 0, 9, 0)
        assert a.to_tsv() == b.to_tsv()
        assert "residual_error_rate\t0.01\n" in a.to_tsv()


class TestEvaluate:
    def test_no_errors(self):
        text = "the cat sat"
        report = evaluate(text, text, text, [])
        assert report.total_errors == 0
        assert report.residual_error_rate == 0.0
        assert report.total_words == 3

    def test_counts_direct(self):
        reference = "aa bb cc dd"
        corrupted = "ax bb cy dd"
        corrected = "aa bb cz dd"
        records = [record(0, "aa", "ax"),
                   record(2, "cc", "cy", CorruptionKind.REALWORD)]
        report = evaluate(reference, corrupted, corrected, records)
        assert report.total_words == 4
        assert report.total_errors == 2
        assert report.nonword_errors == 1
        assert report.realword_errors == 1
        assert report.corrected == 1
        assert report.corrected_nonword == 1
        assert report.corrected_realword == 0
        assert report.residual_error_rate == 0.25

    def test_case_and_punctuation_ignored(self):
        report = evaluate("The cat.", "The cxt.", "The Cat!",
                          [record(1, "cat", "cxt")])
        assert report.total_errors == 1
        assert report.corrected == 1

    def test_token_count_mismatch(self):
        with pytest.raises(ValueError, match="token counts differ"):
            evaluate("a b c", "a b", "a b c", [])

    def test_error_missing_from_ground_truth(self):
        with pytest.raises(ValueError, match="position 1"):
            evaluate("a bb c", "a bx c", "a bb c", [])

    @pytest.mark.parametrize("position", [3, 7, -1])
    def test_ground_truth_outside_the_text(self, position):
        text = "the cat sat"
        with pytest.raises(ValueError) as err:
            evaluate(text, text, text, [record(position, "cat", "caat")])
        assert str(err.value) == (f"ground truth position {position} is "
                                  f"outside the 3 tokens of the text")

    def test_ten_injected_nine_fixed(self):
        # 100 tokens, 10 errors, 9 fixed -> residual 1%.
        reference = " ".join(f"w{i:02d}" for i in range(100))
        tokens = reference.split()
        records = []
        corrupted = list(tokens)
        corrected = list(tokens)
        for i in range(10):
            pos = i * 10
            corrupted[pos] = tokens[pos] + "x"
            records.append(record(pos, tokens[pos], corrupted[pos]))
        corrected[0] = "wrong"  # one failure
        report = evaluate(reference, " ".join(corrupted),
                          " ".join(corrected), records)
        assert report.total_errors == 10
        assert report.corrected == 9
        assert report.residual_error_rate == pytest.approx(0.01)


def test_round_trip_with_pipeline(worked_index):
    reference = "watch episodes of your favorite shows and more"
    result = inject_errors(reference, worked_index,
                           CorruptionSpec(nonword_rate=0.4, seed=3))
    corrected = correct_transcript(result.corrupted_text, worked_index)
    report = evaluate(reference, result.corrupted_text,
                      corrected.corrected_text, result.records)
    assert report.total_errors == len(result.records)
    assert report.total_words == 8
