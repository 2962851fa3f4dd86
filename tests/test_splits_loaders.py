import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aisoc.corpus import (
    Channel,
    Label,
    LogRecord,
    MalwareSample,
    Origin,
    SplitKind,
    SplitSpec,
    k_fold,
    load_log_ndjson,
    load_malware_csv,
    split,
    write_log_ndjson,
    write_malware_csv,
)
from aisoc.errors import LoadError, SplitError


def _rec(ts, label=Label.BENIGN):
    return LogRecord(timestamp=ts, host="h", channel=Channel.SYSTEM,
                     message=f"event at {ts}", label=label)


class TestTimeOrderedSplit:
    def test_ten_records_six_two_two(self):
        records = [_rec(i * 10) for i in range(10)]
        out = split(records, SplitSpec(kind=SplitKind.TIME_ORDERED, fractions=(0.6, 0.2, 0.2)))
        assert (len(out.train), len(out.validation), len(out.test)) == (6, 2, 2)
        assert max(r.timestamp for r in out.train) < min(r.timestamp for r in out.validation)
        assert max(r.timestamp for r in out.validation) < min(r.timestamp for r in out.test)

    def test_deterministic(self):
        records = [_rec(i) for i in range(50)]
        spec = SplitSpec(kind=SplitKind.TIME_ORDERED, fractions=(0.5, 0.25, 0.25))
        a, b = split(records, spec), split(records, spec)
        assert a.train == b.train and a.validation == b.validation and a.test == b.test

    def test_empty_partition_is_error(self):
        with pytest.raises(SplitError):
            split([_rec(0), _rec(1)], SplitSpec(kind=SplitKind.TIME_ORDERED,
                                                fractions=(0.4, 0.3, 0.3)))

    def test_empty_dataset_is_error(self):
        with pytest.raises(SplitError):
            split([], SplitSpec(kind=SplitKind.TIME_ORDERED))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=12, max_size=60))
    def test_strict_boundary_ordering(self, stamps):
        records = [_rec(ts) for ts in stamps]
        try:
            out = split(records, SplitSpec(kind=SplitKind.TIME_ORDERED,
                                           fractions=(0.6, 0.2, 0.2)))
        except SplitError:
            return  # saturating ties can make a strict boundary impossible
        assert max(r.timestamp for r in out.train) < min(r.timestamp for r in out.validation)
        assert max(r.timestamp for r in out.validation) < min(r.timestamp for r in out.test)
        assert len(out.train) + len(out.validation) + len(out.test) == len(records)


class TestStratifiedSplit:
    def test_each_class_in_every_partition(self):
        records = [_rec(i, Label.MALICIOUS if i % 4 == 0 else Label.BENIGN)
                   for i in range(40)]
        out = split(records, SplitSpec(kind=SplitKind.STRATIFIED_RANDOM,
                                       fractions=(0.6, 0.2, 0.2), seed=3))
        for part in (out.train, out.validation, out.test):
            assert {r.label for r in part} == {Label.BENIGN, Label.MALICIOUS}

    def test_partitions_disjoint_and_exhaustive(self):
        records = [_rec(i, Label.MALICIOUS if i % 3 == 0 else Label.BENIGN)
                   for i in range(30)]
        out = split(records, SplitSpec(kind=SplitKind.STRATIFIED_RANDOM, seed=1))
        merged = sorted(out.train + out.validation + out.test, key=lambda r: r.timestamp)
        assert merged == records

    def test_unlabeled_items_rejected(self):
        records = [LogRecord(timestamp=0, host="h", channel=Channel.AUTH, message="x")]
        with pytest.raises(SplitError):
            split(records * 4, SplitSpec(kind=SplitKind.STRATIFIED_RANDOM))

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.tuples(st.integers(0, 60), st.integers(0, 60)).filter(any),
           weights=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).filter(any))
    @example(sizes=(3, 0), weights=(8, 1, 1))  # floor of one: a 0.3 share takes a row
    @example(sizes=(10, 7), weights=(1, 1, 1))  # the largest remainders get +1
    def test_each_class_is_allocated_in_full_with_a_floor_of_one(self, sizes, weights):
        fractions = tuple(w / sum(weights) for w in weights)
        labels = (Label.BENIGN, Label.MALICIOUS)
        records = [_rec(100 * c + i, label)
                   for c, (label, n) in enumerate(zip(labels, sizes)) for i in range(n)]
        positive = sum(w > 0 for w in weights)
        try:
            out = split(records, SplitSpec(kind=SplitKind.STRATIFIED_RANDOM,
                                           fractions=fractions, seed=5))
        except SplitError:  # only when no class can fill every positive part
            assert all(n < positive for n in sizes)
            return
        for label, n in zip(labels, sizes):
            counts = [sum(r.label == label for r in part)
                      for part in (out.train, out.validation, out.test)]
            assert sum(counts) == n
            for w, count in zip(weights, counts):
                if w == 0:
                    assert count == 0
                elif n >= positive:
                    assert count >= 1


class TestKFold:
    def test_balanced_folds(self):
        records = ([_rec(i, Label.MALICIOUS) for i in range(50)]
                   + [_rec(100 + i, Label.BENIGN) for i in range(50)])
        folds = k_fold(records, 5, seed=11)
        assert len(folds) == 5
        for fold in folds:
            assert sum(1 for r in fold if r.label is Label.MALICIOUS) == 10
            assert sum(1 for r in fold if r.label is Label.BENIGN) == 10

    def test_same_seed_reproduces_folds(self):
        records = [_rec(i, Label.MALICIOUS if i % 2 else Label.BENIGN) for i in range(40)]
        assert k_fold(records, 4, seed=9) == k_fold(records, 4, seed=9)

    def test_fold_split_partitions(self):
        records = [_rec(i, Label.MALICIOUS if i % 2 else Label.BENIGN) for i in range(20)]
        folds = k_fold(records, 4, seed=9)
        heldout = folds[1]
        train = [r for j, fold in enumerate(folds) if j != 1 for r in fold]
        assert sorted(train + heldout, key=lambda r: r.timestamp) == records

    def test_bad_fold_count(self):
        records = [_rec(i, Label.MALICIOUS if i % 2 else Label.BENIGN) for i in range(4)]
        with pytest.raises(SplitError, match="^K_FOLD requires folds >= 2, got 1$"):
            k_fold(records, 1)

    def test_more_folds_than_items_is_refused_before_the_items_are_read(self):
        # unlabelled items would fail stratification, so the count is checked first
        records = [_rec(i, None) for i in range(4)]
        with pytest.raises(SplitError, match="^5 folds requested but only 4 items available$"):
            k_fold(records, 5)

    def test_a_fold_no_class_reaches_is_refused(self):
        records = [_rec(i, Label.MALICIOUS if i < 3 else Label.BENIGN) for i in range(5)]
        with pytest.raises(SplitError, match="^5 folds requested but only 5 items available$"):
            k_fold(records, 5)


@pytest.mark.parametrize("kind", [SplitKind.TIME_ORDERED, SplitKind.STRATIFIED_RANDOM])
@pytest.mark.parametrize("fractions", [(0.6, 0.2, float("nan")), (float("nan"), 0.2, 0.2),
                                       (0.6, float("inf"), 0.2), (float("-inf"), 0.2, 0.2)])
def test_non_finite_fractions_are_split_errors(kind, fractions):
    with pytest.raises(SplitError, match="finite"):
        SplitSpec(kind=kind, fractions=fractions)


@pytest.mark.parametrize("kind", [SplitKind.TIME_ORDERED, SplitKind.STRATIFIED_RANDOM])
@pytest.mark.parametrize("fractions", [(0.5, 0.5), (0.4, 0.2, 0.2, 0.2), (1.0,), ()])
def test_fractions_other_than_three_are_split_errors(kind, fractions):
    with pytest.raises(SplitError, match="^fractions must be three numbers"):
        SplitSpec(kind=kind, fractions=fractions)


class TestLogNdjson:
    def test_schema_echo(self, tmp_path):
        path = tmp_path / "one.ndjson"
        path.write_text('{"timestamp":0,"host":"h1","channel":"AUTH",'
                        '"message":"Failed password","label":"MALICIOUS"}\n')
        result = load_log_ndjson(path)
        assert result.rejected == 0
        [record] = result.records
        assert record == LogRecord(timestamp=0, host="h1", channel=Channel.AUTH,
                                   message="Failed password", label=Label.MALICIOUS,
                                   origin=Origin.LOADED)

    def test_malformed_lines_counted_and_skipped(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text("\n".join([
            '{"timestamp":1,"host":"h","channel":"SYSTEM","message":"ok"}',
            "{not json",
            '{"timestamp":-5,"host":"h","channel":"SYSTEM","message":"neg ts"}',
            '{"timestamp":2,"host":"h","channel":"SYSTEM","message":"ok","extra":1}',
        ]) + "\n")
        result = load_log_ndjson(path)
        assert len(result.records) == 1
        assert result.rejected == 3
        assert [line for line, _ in result.reject_reasons] == [2, 3, 4]

    def test_lines_that_cannot_be_decoded_or_written_are_counted(self, tmp_path):
        good = b'{"timestamp":1,"host":"h","channel":"SYSTEM","message":"ok"}'
        path = tmp_path / "bad.ndjson"
        path.write_bytes(b"\n".join([
            good,
            b"[" * 100_000 + b"]" * 100_000,
            b'{"timestamp":2,"host":"h\xff","channel":"SYSTEM","message":"ok"}',
            b'{"timestamp":3,"host":"h","channel":"SYSTEM","message":"x \\ud800"}',
            b'{"timestamp":' + b"1" * 5000 + b',"host":"h","channel":"SYSTEM","message":"ok"}',
            good + b"\r",
        ]))
        result = load_log_ndjson(path)
        assert len(result.records) == 2
        assert [line for line, _ in result.reject_reasons] == [2, 3, 4, 5]
        assert "recursion" in result.reject_reasons[0][1]
        assert "can't decode byte 0xff" in result.reject_reasons[1][1]
        assert "surrogates not allowed" in result.reject_reasons[2][1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            load_log_ndjson(tmp_path / "nope.ndjson")

    @pytest.mark.parametrize("line, reason", [
        ('{"timestamp":1,"channel":"AUTH"}', "missing fields ['host', 'message']"),
        ('{"timestamp":1,"host":7,"channel":"AUTH","message":"m"}',
         "host and message must be strings"),
        ('{"timestamp":1.5,"host":"h","channel":"AUTH","message":"m"}',
         "timestamp must be an integer, got 1.5"),
    ], ids=["missing-fields", "host-not-a-string", "timestamp-not-an-integer"])
    def test_a_bad_line_is_skipped_with_its_reason(self, tmp_path, line, reason):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"timestamp":0,"host":"h","channel":"AUTH","message":"ok"}\n'
                        + line + "\n")
        result = load_log_ndjson(path)
        assert [r.message for r in result.records] == ["ok"]
        assert result.reject_reasons == [(2, reason)]

    def test_write_read_roundtrip(self, tmp_path):
        records = [
            LogRecord(timestamp=5, host="a", channel=Channel.PROCESS,
                      message="exec​ve thing", label=Label.MALICIOUS),
            LogRecord(timestamp=9, host="b", channel=Channel.SYSTEM, message="no label"),
        ]
        path = tmp_path / "round.ndjson"
        write_log_ndjson(records, path)
        loaded = load_log_ndjson(path)
        assert loaded.rejected == 0
        assert [(r.timestamp, r.host, r.channel, r.message, r.label) for r in loaded.records] \
            == [(r.timestamp, r.host, r.channel, r.message, r.label) for r in records]


class TestMalwareCsv:
    def test_three_feature_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1,f2,label\n1.0,2.0,3.0,BENIGN\n4,5,6,1\n")
        result = load_malware_csv(path, id_column=None)
        assert result.rejected == 0
        assert [s.dimension for s in result.samples] == [3, 3]
        assert result.samples[0].label is Label.BENIGN
        assert result.samples[1].label is Label.MALICIOUS

    def test_nan_row_rejected_with_count(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1,label\n1.0,NaN,0\n1.0,2.0,1\n")
        result = load_malware_csv(path, id_column=None)
        assert result.rejected == 1
        assert len(result.samples) == 1

    def test_inf_row_rejected_by_the_sample_rule(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("sample_id,f0,f1,label\na,1.0,2.0,0\nb,-inf,2.0,1\n")
        result = load_malware_csv(path, id_column="sample_id")
        assert [s.sample_id for s in result.samples] == ["a"]
        assert result.rejected == 1
        assert result.reject_reasons == [(3, "sample 'b' has non-finite feature -inf")]

    def test_blank_label_cell_is_unlabeled_and_unknown_text_is_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("sample_id,f0,label\na,1,  \nb,2,maybe\nc,3,0\n")
        result = load_malware_csv(path, id_column="sample_id")
        assert [(s.sample_id, s.label) for s in result.samples] == [("a", None),
                                                                    ("c", Label.BENIGN)]
        assert result.reject_reasons == [(3, "unrecognized label value 'maybe'")]

    def test_empty_file_is_a_load_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(LoadError, match=f"^{re.escape(str(path))}: empty file, expected "
                                            "a header row$"):
            load_malware_csv(path)

    def test_write_refuses_rows_of_unequal_width(self, tmp_path):
        samples = [MalwareSample(sample_id="a", features=(1.0, 2.0)),
                   MalwareSample(sample_id="b", features=(1.0,))]
        path = tmp_path / "m.csv"
        with pytest.raises(LoadError, match="^samples have inconsistent feature "
                                            "dimensionality$"):
            write_malware_csv(samples, path)
        assert not path.exists()

    def test_write_of_no_rows_is_a_header_alone(self, tmp_path):
        path = tmp_path / "m.csv"
        write_malware_csv([], path)
        assert path.read_text() == "sample_id,label\n"
        assert load_malware_csv(path).samples == []

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1\n1,2\n")
        with pytest.raises(LoadError):
            load_malware_csv(path, label_column="label")

    def test_field_over_the_csv_limit_is_a_load_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,label\n1,0\n" + "1" * 200_000 + ",1\n")
        with pytest.raises(LoadError, match=r"m\.csv: line 3: field larger than field limit"):
            load_malware_csv(path)

    def test_text_that_is_not_utf8_is_a_load_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"f0,label\n1,0\n2,1\n\xff3,1\n")
        with pytest.raises(LoadError, match=r"m\.csv: line 4: 'utf-8' codec can't decode"):
            load_malware_csv(path)

    def test_ragged_row_is_fatal_with_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1,label\n1,2,0\n1,2\n")
        with pytest.raises(LoadError, match="line 3"):
            load_malware_csv(path, id_column=None)

    def test_id_column_excluded_from_features(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("sample_id,f0,f1,label\ns1,1,2,0\n")
        result = load_malware_csv(path, id_column="sample_id")
        assert result.samples[0].sample_id == "s1"
        assert result.samples[0].features == (1.0, 2.0)

    def test_default_write_then_load_keeps_every_row_and_id(self, tmp_path):
        samples = [MalwareSample(sample_id=f"mw-{i:05d}", features=(float(i), -0.5),
                                 label=[Label.BENIGN, Label.MALICIOUS, None][i % 3])
                   for i in range(6)]
        path = tmp_path / "m.csv"
        write_malware_csv(samples, path)
        assert path.read_text().splitlines()[0] == "sample_id,f0,f1,label"
        loaded = load_malware_csv(path)
        assert loaded.rejected == 0
        assert loaded.samples == samples

    def test_write_read_roundtrip(self, tmp_path):
        samples = [MalwareSample(sample_id="a", features=(0.125, -7.5), label=Label.MALICIOUS),
                   MalwareSample(sample_id="b", features=(1e-9, 3.0), label=Label.BENIGN)]
        path = tmp_path / "round.csv"
        write_malware_csv(samples, path)
        loaded = load_malware_csv(path, id_column="sample_id")
        assert loaded.samples == samples
