"""Tests for dataset statistics, CSV persistence, the WDC generator and the
Figure 2 example dataset."""

import pytest

from repro.datagen import (
    dataset_statistics,
    figure2_dataset,
    generate_benchmark,
    generate_wdc_products,
)
from repro.datagen.config import GenerationConfig
from repro.datagen.io import DatasetFormatError, read_dataset_csv, write_dataset_csv
from repro.datagen.records import Dataset
from repro.datagen.wdc import WdcConfig, WdcProductsGenerator


@pytest.fixture(scope="module")
def small_benchmark():
    return generate_benchmark(GenerationConfig(num_entities=40, seed=3))


class TestStatistics:
    def test_companies_statistics(self, small_benchmark):
        stats = dataset_statistics(small_benchmark.companies)
        assert stats.num_records == len(small_benchmark.companies)
        assert stats.num_entities == len(small_benchmark.companies.entity_groups())
        assert stats.num_matches == len(small_benchmark.companies.true_matches())
        assert stats.pct_records_with_description is not None
        assert 0 <= stats.pct_records_with_description <= 100

    def test_avg_matches_consistent(self, small_benchmark):
        stats = dataset_statistics(small_benchmark.companies)
        assert stats.avg_matches_per_entity == pytest.approx(
            stats.num_matches / stats.num_entities
        )

    def test_securities_have_no_description_share(self, small_benchmark):
        stats = dataset_statistics(small_benchmark.securities)
        assert stats.pct_records_with_description is None

    def test_as_row_keys(self, small_benchmark):
        row = dataset_statistics(small_benchmark.companies).as_row()
        assert "# of Records" in row
        assert "# of Matches" in row


class TestCsvRoundTrip:
    def test_companies_round_trip(self, small_benchmark, tmp_path):
        path = write_dataset_csv(small_benchmark.companies, tmp_path / "companies.csv")
        loaded = read_dataset_csv(path)
        assert len(loaded) == len(small_benchmark.companies)
        original = small_benchmark.companies.records[0]
        restored = loaded.record(original.record_id)
        assert restored.name == original.name
        assert restored.entity_id == original.entity_id
        assert restored.security_isins == original.security_isins

    def test_securities_round_trip(self, small_benchmark, tmp_path):
        path = write_dataset_csv(small_benchmark.securities, tmp_path / "securities.csv")
        loaded = read_dataset_csv(path, name="sec")
        assert loaded.name == "sec"
        assert loaded.true_matches() == small_benchmark.securities.true_matches()

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_dataset_csv(Dataset("empty", []), tmp_path / "empty.csv")


class TestMalformedCsv:
    """Bad input gives a located ``DatasetFormatError``, never a traceback
    from deep inside record construction."""

    @staticmethod
    def written_lines(small_benchmark, tmp_path):
        path = write_dataset_csv(small_benchmark.companies, tmp_path / "companies.csv")
        return path, path.read_text(encoding="utf-8").splitlines()

    def test_truncated_row_names_file_line_and_column(self, small_benchmark, tmp_path):
        path, lines = self.written_lines(small_benchmark, tmp_path)
        header = lines[0].split(",")
        # Cut the third data row (file line 4) after its first three fields.
        lines[3] = ",".join(lines[3].split(",")[:3])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError) as excinfo:
            read_dataset_csv(path)
        error = excinfo.value
        assert isinstance(error, ValueError)
        assert (error.path, error.line, error.column) == (path, 4, header[3])
        assert str(error).startswith(f"{path}:4: column {header[3]!r}: missing")

    def test_missing_column_names_the_header(self, tmp_path):
        path = tmp_path / "no_source.csv"
        path.write_text(
            "record_type,record_id,entity_id,name\ncompany,r1,e1,Acme\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetFormatError) as excinfo:
            read_dataset_csv(path)
        assert (excinfo.value.line, excinfo.value.column) == (1, "source")
        assert "missing from the header" in str(excinfo.value)

    def test_unknown_record_type_is_located(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text(
            "record_type,record_id,source,entity_id\n"
            "company,r1,S1,e1\n"
            "planet,r2,S1,e2\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetFormatError, match=r"odd\.csv:3: column 'record_type'"):
            read_dataset_csv(path)

    def test_duplicate_record_id_names_both_lines(self, small_benchmark, tmp_path):
        # Records are keyed by id downstream (dataset index, profile store):
        # a repeated id is a format error of the file, located at the repeat.
        path, lines = self.written_lines(small_benchmark, tmp_path)
        lines.append(lines[2])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        record_id = lines[2].split(",")[1]
        with pytest.raises(DatasetFormatError) as excinfo:
            read_dataset_csv(path)
        error = excinfo.value
        assert (error.path, error.line, error.column) == (path, len(lines), "record_id")
        assert str(error) == (
            f"{path}:{len(lines)}: column 'record_id': duplicate id "
            f"{record_id!r} (first on line 3)"
        )

    @pytest.mark.parametrize("content", ["", "header"], ids=["empty", "header-only"])
    def test_file_without_records_is_a_format_error(
        self, small_benchmark, tmp_path, content
    ):
        path, lines = self.written_lines(small_benchmark, tmp_path)
        path.write_text(lines[0] + "\n" if content else "", encoding="utf-8")
        with pytest.raises(DatasetFormatError) as excinfo:
            read_dataset_csv(path)
        assert (excinfo.value.line, excinfo.value.column) == (1, None)
        assert str(excinfo.value) == f"{path}:1: no records (the file has no data rows)"

    @pytest.mark.parametrize("command", ["stats", "match", "run", "ingest"])
    @pytest.mark.parametrize("defect", ["header-only", "duplicate-id"])
    def test_every_dataset_command_reports_one_line_and_exits_2(
        self, small_benchmark, tmp_path, capsys, command, defect
    ):
        from repro.cli import main

        path, lines = self.written_lines(small_benchmark, tmp_path)
        lines = lines[:1] if defect == "header-only" else lines + [lines[1]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if command == "stats":
            argv = ["stats", str(path)]
        elif command == "match":
            argv = ["match", str(path), "--model", "logistic", "--epochs", "1"]
        else:
            spec = tmp_path / "experiment.toml"
            spec.write_text(
                f'[experiment]\ndataset = "{path}"\nkind = "companies"\n'
                'model = "logistic"\nepochs = 1\n'
            )
            argv = ["run", str(spec)] if command == "run" else [
                "ingest", str(path), "--state", str(tmp_path / "state"),
                "--config", str(spec),
            ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:")
        assert err.count("\n") == 1

    def test_cli_reports_one_line_and_exits_2(self, small_benchmark, tmp_path, capsys):
        from repro.cli import main

        path, lines = self.written_lines(small_benchmark, tmp_path)
        lines[2] = lines[2].split(",")[0]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:3: column 'record_id': missing")
        assert err.count("\n") == 1


class TestWdcGenerator:
    def test_generation_counts(self):
        dataset = generate_wdc_products(WdcConfig(num_entities=50, seed=1))
        # corner cases add 80% more entities
        assert len(dataset.entity_groups()) <= 90
        assert len(dataset) >= 50

    def test_heterogeneous_group_sizes(self):
        dataset = generate_wdc_products(WdcConfig(num_entities=100, seed=2))
        sizes = {len(ids) for ids in dataset.entity_groups().values()}
        assert len(sizes) > 1

    def test_corner_cases_share_tokens(self):
        dataset = generate_wdc_products(WdcConfig(num_entities=80, corner_case_rate=1.0, seed=3))
        titles = [record.title for record in dataset]
        # With 100% corner cases many titles repeat most of their tokens.
        token_sets = [frozenset(title.lower().split()) for title in titles]
        overlapping = 0
        for i, tokens in enumerate(token_sets[:100]):
            for other in token_sets[i + 1:100]:
                union = tokens | other
                if union and len(tokens & other) / len(union) > 0.6:
                    overlapping += 1
                    break
        assert overlapping > 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            WdcConfig(num_entities=0)
        with pytest.raises(ValueError):
            WdcConfig(corner_case_rate=2.0)

    def test_deterministic(self):
        first = WdcProductsGenerator(WdcConfig(num_entities=30, seed=9)).generate()
        second = WdcProductsGenerator(WdcConfig(num_entities=30, seed=9)).generate()
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


class TestFigure2Example:
    def test_structure(self):
        companies, securities = figure2_dataset()
        assert len(companies) == 15
        assert len(securities) == 13
        assert "crowdstrike" in companies.entity_groups()
        assert "crowdstreet" in companies.entity_groups()

    def test_crowdstrike_group(self):
        companies, _ = figure2_dataset()
        assert set(companies.entity_groups()["crowdstrike"]) == {"#12", "#22", "#31", "#40"}

    def test_acquisition_is_match_merger_is_not(self):
        companies, _ = figure2_dataset()
        # Herotel + Hearst records form one group (acquisition).
        assert companies.is_true_match("#11", "#33")
        # lastminute.com and Travix are not matches (merger).
        assert not companies.is_true_match("#30", "#42")

    def test_security_identifier_contamination_present(self):
        _, securities = figure2_dataset()
        herotel_security = securities.record("#S21")
        hearst_security = securities.record("#S33")
        assert herotel_security.isin == hearst_security.isin
        assert herotel_security.entity_id == hearst_security.entity_id
        lastminute_security = securities.record("#S30")
        travix_security = securities.record("#S42")
        assert lastminute_security.isin == travix_security.isin
        assert lastminute_security.entity_id != travix_security.entity_id
