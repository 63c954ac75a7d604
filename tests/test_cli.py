"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.datasets import generate_whole_metagenome_sample
from repro.seq.fasta import write_fasta


@pytest.fixture
def fasta_path(tmp_path):
    reads = generate_whole_metagenome_sample("S1", num_reads=25, genome_length=3000)
    path = tmp_path / "sample.fa"
    write_fasta(reads, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster", "x.fa"])
        assert args.kmer == 5
        assert args.method == "hierarchical"

    def test_bench_target_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "table99"])


class TestClusterCommand:
    def test_writes_tsv(self, fasta_path, tmp_path, capsys):
        out = tmp_path / "labels.tsv"
        code = main(
            [
                "cluster", fasta_path,
                "--kmer", "5", "--hashes", "32", "--threshold", "0.78",
                "--output", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 25
        for line in lines:
            rid, label = line.split("\t")
            assert label.isdigit()

    def test_stdout_mode(self, fasta_path, capsys):
        code = main(["cluster", fasta_path, "--hashes", "32"])
        assert code == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 25

    def test_greedy_method(self, fasta_path, capsys):
        code = main(["cluster", fasta_path, "--method", "greedy", "--hashes", "32"])
        assert code == 0

    @pytest.mark.parametrize("traced", [True, False])
    def test_sparse_line_prints_only_measured_shuffle_bytes(
        self, fasta_path, capsys, monkeypatch, traced
    ):
        from repro.mapreduce.runner import SerialRunner

        monkeypatch.setattr(
            "repro.cluster.pipeline.SerialRunner",
            lambda: SerialRunner(trace=traced),
        )
        code = main(
            [
                "cluster", fasta_path, "--hashes", "32", "--threshold", "0.78",
                "--linkage", "single", "--engine-sparse",
            ]
        )
        assert code == 0
        [line] = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("# sparse:")
        ]
        assert line.endswith("shuffle bytes") == traced
        assert "None" not in line


class TestConfigErrors:
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--engine-sparse"], "exact only for single linkage"),
            (["--threshold", "1.5"], "threshold must be in [0,1], got 1.5"),
        ],
    )
    def test_rejected_configuration_is_a_usage_error(
        self, fasta_path, capsys, extra, message
    ):
        code = main(["cluster", fasta_path, "--hashes", "32", *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert message in err
        assert "Traceback" not in err


class TestDiversityCommand:
    def test_report(self, fasta_path, capsys):
        code = main(["diversity", fasta_path, "--hashes", "32", "--threshold", "0.78"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Chao1 richness" in out
        assert "Shannon index" in out
        assert "rarefaction" in out


class TestPigCommand:
    def test_runs_script(self, fasta_path, capsys):
        code = main(["pig", fasta_path, "--hashes", "32", "--threshold", "0.78"])
        assert code == 0
        out = capsys.readouterr().out
        assert "/out/hier" in out
        assert "/out/greedy" in out


class TestSimulateCommand:
    def test_table_printed(self, capsys):
        code = main(
            [
                "simulate",
                "--nodes-list", "2", "8",
                "--reads-list", "1000", "100000",
                "--calibration-reads", "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "8 nodes" in out


class TestBenchCommand:
    def test_table3(self, capsys):
        code = main(["bench", "table3", "--reads", "40", "--samples", "S1"])
        assert code == 0
        assert "Table III" in capsys.readouterr().out

    def test_figure2(self, capsys):
        code = main(["bench", "figure2", "--reads", "40"])
        assert code == 0
        assert "Figure 2" in capsys.readouterr().out
