"""Tests for the command-line interface."""

import json
import os
import shutil

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.subsets == "AR+MEM+CB"
        assert args.contract == "CT-SEQ"
        assert args.cpu == "skylake"

    def test_fuzz_custom(self):
        args = build_parser().parse_args(
            ["fuzz", "-s", "AR+MEM", "-c", "CT-BPAS", "--cpu", "coffee-lake",
             "-n", "10", "-i", "5", "-m", "P+P+A"]
        )
        assert args.subsets == "AR+MEM"
        assert args.num_test_cases == 10
        assert args.mode == "P+P+A"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.workers == 4
        assert args.shards is None
        assert args.cache is False
        assert args.cache_entries == 65536
        assert args.first_violation is False

    def test_arch_flag(self):
        args = build_parser().parse_args(["fuzz", "--arch", "aarch64"])
        assert args.arch == "aarch64"
        assert build_parser().parse_args(["fuzz"]).arch == "x86_64"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--arch", "riscv64"])

    def test_campaign_first_violation_flag(self):
        args = build_parser().parse_args(["campaign", "--first-violation"])
        assert args.first_violation is True

    def test_campaign_custom(self):
        args = build_parser().parse_args(
            ["campaign", "-s", "AR", "-n", "40", "-w", "8", "--shards", "16",
             "--cache", "--cache-entries", "1024"]
        )
        assert args.workers == 8
        assert args.shards == 16
        assert args.cache is True
        assert args.cache_entries == 1024

    def test_cache_dir_flag(self):
        args = build_parser().parse_args(
            ["fuzz", "--cache-dir", "/tmp/traces"]
        )
        assert args.cache_dir == "/tmp/traces"
        assert build_parser().parse_args(["campaign"]).cache_dir is None

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.arch == ["x86_64"]
        assert args.contract == ["CT-SEQ"]
        assert args.cpu == ["skylake"]
        assert args.workers == 1
        assert args.total_budget is None
        assert args.json is None

    def test_sweep_axis_lists(self):
        args = build_parser().parse_args(
            ["sweep", "--arch", "x86_64,aarch64",
             "--contract", "CT-SEQ,CT-COND",
             "--cpu", "skylake,coffee-lake", "-n", "10"]
        )
        assert args.arch == ["x86_64", "aarch64"]
        assert args.contract == ["CT-SEQ", "CT-COND"]
        assert args.cpu == ["skylake", "coffee-lake"]
        assert args.num_test_cases == 10

    def test_sweep_rejects_empty_axis(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--arch", ","])

    def test_parallel_cells_flag(self):
        # one scheduler: the pool size is -w, nothing else selects one
        for flag in ("--parallel-cells", "--schedule"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sweep", flag, "4"])
        args = build_parser().parse_args(["sweep", "-w", "4", "--shards", "1"])
        assert (args.workers, args.shards) == (4, 1)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "-w", "0"])

    def test_cache_max_bytes_flag(self):
        # on every fuzzing subcommand, like the other cache knobs
        for command in ("fuzz", "campaign", "minimize", "sweep"):
            assert (
                build_parser().parse_args([command]).cache_max_bytes is None
            )
        args = build_parser().parse_args(
            ["sweep", "--cache-max-bytes", "65536"]
        )
        assert args.cache_max_bytes == 65536
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--cache-max-bytes", "0"])

    def test_cache_max_bytes_requires_cache_dir(self):
        # the bound applies to the disk tier; silently ignoring it on an
        # in-memory cache would fake enforcement
        with pytest.raises(SystemExit, match="requires --cache-dir"):
            main(["fuzz", "-n", "1", "--cache-max-bytes", "4096"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "CT-SEQ" in output
        assert "skylake" in output
        assert "spectre-v1" in output

    def test_fuzz_clean_target_exits_zero(self, capsys):
        code = main(["fuzz", "-s", "AR", "-c", "CT-SEQ", "-n", "5", "-i", "10"])
        assert code == 0
        assert "no violation" in capsys.readouterr().out

    def test_fuzz_finding_violation_exits_one(self, capsys):
        code = main(
            ["fuzz", "-s", "AR+MEM+CB", "-c", "CT-SEQ",
             "--cpu", "skylake-v4-patched", "-n", "150", "-i", "25",
             "--seed", "7"]
        )
        assert code == 1
        assert "contract violation" in capsys.readouterr().out

    def test_campaign_clean_target_exits_zero(self, capsys):
        code = main(
            ["campaign", "-s", "AR", "-n", "8", "-i", "10", "-w", "2",
             "--cache"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "no violation" in output
        assert "shard 1" in output

    def test_sweep_prints_matrix_and_exits_zero_when_clean(
        self, tmp_path, capsys
    ):
        code = main(
            ["sweep", "--arch", "x86_64,aarch64", "--contract", "CT-SEQ",
             "--cpu", "skylake,coffee-lake", "-s", "AR", "-n", "3",
             "-i", "6", "--cache-dir", str(tmp_path / "traces"),
             "--json", str(tmp_path / "sweep.json")]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "## x86_64" in output
        assert "## aarch64" in output
        assert "contract \\ cpu" in output
        assert (tmp_path / "sweep.json").exists()
        # the cpu-axis sibling was served from the shared cache
        assert "traces reused" in output

    def test_sweep_parallel_cells_bounded_cache(self, tmp_path, capsys):
        """The pool end to end: two cells in flight, a bounded shared
        cache, and the same matrix output as a sequential run."""
        arguments = [
            "sweep", "--arch", "x86_64", "--contract", "CT-SEQ",
            "--cpu", "skylake,coffee-lake", "-s", "AR", "-n", "4",
            "-i", "6",
        ]
        assert main(arguments) == 0
        sequential = capsys.readouterr().out
        code = main(
            arguments
            + ["-w", "2", "--shards", "1",
               "--cache-dir", str(tmp_path / "traces"),
               "--cache-max-bytes", "4096"]
        )
        assert code == 0
        parallel = capsys.readouterr().out
        assert "on a pool of 2 worker(s)" in parallel
        # the violation matrix itself is scheduling-independent
        matrix = [
            line for line in sequential.splitlines()
            if line.startswith("| CT-SEQ")
        ]
        assert matrix and matrix[0] in parallel

    def test_sweep_finding_violation_exits_one(self, capsys):
        code = main(
            ["sweep", "--contract", "CT-SEQ", "--cpu", "skylake-v4-patched",
             "-s", "AR+MEM+CB", "-n", "150", "-i", "25", "--seed", "21"]
        )
        assert code == 1
        assert "V1" in capsys.readouterr().out

    def test_reproduce_gadget(self, capsys):
        code = main(["reproduce", "spectre-v5-ret", "--max-inputs", "32"])
        assert code == 1
        assert "violation" in capsys.readouterr().out

    def test_reproduce_unknown_gadget(self, capsys):
        assert main(["reproduce", "spectre-v99"]) == 2

    def test_trace_command(self, tmp_path, capsys):
        asm = tmp_path / "gadget.asm"
        asm.write_text("MOV RAX, qword ptr [R14 + 64]\n")
        code = main(["trace", str(asm), "-c", "MEM-SEQ", "-i", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "ld:" in output

    def test_trace_command_aarch64(self, tmp_path, capsys):
        asm = tmp_path / "gadget.s"
        asm.write_text("LDR X1, [X27, #64]\n")
        code = main(
            ["trace", str(asm), "--arch", "aarch64", "-c", "MEM-SEQ",
             "-i", "2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "ld:" in output
        assert "X27" in output

    def test_fuzz_aarch64_finds_violation(self, capsys):
        code = main(
            ["fuzz", "--arch", "aarch64", "-s", "AR+MEM+CB", "-n", "120",
             "-i", "50", "--seed", "3"]
        )
        assert code == 1
        output = capsys.readouterr().out
        assert "contract violation" in output
        assert "aarch64" in output

    def test_list_shows_architectures(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "aarch64" in output and "x86_64" in output


class TestCorpusFlags:
    def test_corpus_dir_on_every_fuzzing_subcommand(self):
        for command in ("fuzz", "campaign", "minimize", "sweep"):
            assert build_parser().parse_args([command]).corpus_dir is None
        args = build_parser().parse_args(
            ["fuzz", "--corpus-dir", "corpus/found"]
        )
        assert args.corpus_dir == "corpus/found"

    def test_replay_parser(self):
        args = build_parser().parse_args(["replay", "--corpus", "c"])
        assert args.corpus == "c"
        assert args.strict is False
        assert args.arch is None
        assert args.json is None
        args = build_parser().parse_args(
            ["replay", "--corpus", "c", "--strict", "--arch", "aarch64",
             "--json", "out.json"]
        )
        assert args.strict and args.arch == "aarch64"
        assert args.json == "out.json"

    def test_replay_requires_corpus(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay"])

    def test_engine_knob_flags_are_gone(self):
        # one production engine: the byte-identical knobs are retired
        parser = build_parser()
        for command in ("fuzz", "campaign", "sweep", "minimize", "replay"):
            base = [command] + (["--corpus", "c"] if command == "replay" else [])
            for flag in ("--no-battery-eval", "--no-masked-fusion",
                         "--no-dead-flags", "--interpretive"):
                with pytest.raises(SystemExit):
                    parser.parse_args(base + [flag])


class TestReplayCommand:
    SEED = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "corpus", "seed",
    )

    def test_replays_seed_corpus_strict(self, capsys):
        assert main(["replay", "--corpus", self.SEED, "--strict"]) == 0
        output = capsys.readouterr().out
        assert output.count("PASS") >= 3
        assert "0 FAIL" in output

    def test_corrupted_entry_skips_and_fails_strict_only(
        self, tmp_path, capsys
    ):
        """Acceptance criterion: a corrupted record degrades to SKIP —
        never a crash — and only --strict turns that into exit 1."""
        for name in os.listdir(self.SEED):
            shutil.copy(os.path.join(self.SEED, name), tmp_path / name)
        (tmp_path / "corrupt.json").write_text("{torn", encoding="utf-8")
        corpus = str(tmp_path)
        assert main(["replay", "--corpus", corpus]) == 0
        assert "SKIP" in capsys.readouterr().out
        assert main(["replay", "--corpus", corpus, "--strict"]) == 1

    def test_empty_corpus_fails_strict_only(self, tmp_path, capsys):
        corpus = str(tmp_path / "empty")
        assert main(["replay", "--corpus", corpus]) == 0
        assert main(["replay", "--corpus", corpus, "--strict"]) == 1
        assert "0/0" in capsys.readouterr().out

    def test_json_artifact_round_trips_the_schema(self, tmp_path, capsys):
        artifact = str(tmp_path / "replay.json")
        assert main(
            ["replay", "--corpus", self.SEED, "--strict", "--json", artifact]
        ) == 0
        with open(artifact, encoding="utf-8") as handle:
            payload = json.load(handle)
        section = payload["corpus_replay"]
        assert section["entries"] >= 3
        assert section["failed"] == section["skipped"] == 0
        assert len(section["detection"]) == section["entries"]

    def test_arch_filter(self, capsys):
        assert main(
            ["replay", "--corpus", self.SEED, "--strict",
             "--arch", "aarch64"]
        ) == 0
        output = capsys.readouterr().out
        assert "aarch64" in output
        assert "x86_64" not in output


class TestCorpusPersistingCommands:
    def test_fuzz_corpus_dir_persists_then_replays(self, tmp_path, capsys):
        corpus = str(tmp_path / "found")
        code = main(
            ["fuzz", "-s", "AR+MEM+CB", "-c", "CT-SEQ",
             "--cpu", "skylake-v4-patched", "-n", "150", "-i", "25",
             "--seed", "7", "--corpus-dir", corpus]
        )
        assert code == 1  # found a violation...
        assert len(os.listdir(corpus)) == 1  # ...and recorded it
        capsys.readouterr()
        assert main(["replay", "--corpus", corpus, "--strict"]) == 0

    def test_run_minimize_returns_the_result(self, tmp_path):
        """The factored return path: minimized counterexamples are
        consumable as data, not stdout (and land in the corpus)."""
        from repro.cli import build_parser, run_minimize

        corpus = str(tmp_path / "found")
        args = build_parser().parse_args(
            ["minimize", "-s", "AR+MEM+CB", "-c", "CT-SEQ",
             "--cpu", "skylake-v4-patched", "-n", "150", "-i", "25",
             "--seed", "7", "--corpus-dir", corpus]
        )
        report, result = run_minimize(args)
        assert report.found
        assert result is not None
        assert result.instruction_count <= result.original_instruction_count
        assert result.text
        # both the fuzzer's find and the minimized record were persisted
        assert len(os.listdir(corpus)) >= 1
        assert main(["replay", "--corpus", corpus, "--strict"]) == 0


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.jobs == 1

    def test_serve_custom(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "7317", "--jobs", "3"]
        )
        assert (args.host, args.port, args.jobs) == ("0.0.0.0", 7317, 3)

    def test_serve_rejects_nonpositive_jobs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--jobs", "0"])


class TestJournalCommands:
    """--journal/--resume through the real CLI."""

    def campaign_argv(self, journal_flag, journal_dir):
        return [
            "campaign", "-s", "AR", "-c", "CT-SEQ",
            "--cpu", "skylake-v4-patched", "-n", "9", "-i", "8",
            "--seed", "3", "-w", "1", "--shards", "3",
            journal_flag, journal_dir,
        ]

    def printed_digest(self, capsys):
        output = capsys.readouterr().out
        lines = [
            line for line in output.splitlines()
            if line.startswith("report digest: ")
        ]
        assert len(lines) == 1
        return lines[0].removeprefix("report digest: ")

    def test_journal_then_resume_same_digest(self, tmp_path, capsys):
        journal = str(tmp_path / "ckpt")
        assert main(self.campaign_argv("--journal", journal)) == 0
        first = self.printed_digest(capsys)
        records = sorted((tmp_path / "ckpt").glob("shard-*.pkl"))
        assert len(records) == 3
        records[1].unlink()  # simulate a shard lost to a kill
        assert main(self.campaign_argv("--resume", journal)) == 0
        assert self.printed_digest(capsys) == first

    def test_journal_and_resume_conflict(self, tmp_path):
        journal = str(tmp_path / "ckpt")
        with pytest.raises(SystemExit, match="not both"):
            main(self.campaign_argv("--journal", journal) + ["--resume", journal])

    def test_resume_with_conflicting_budget_is_an_error(self, tmp_path):
        journal = str(tmp_path / "ckpt")
        assert main(self.campaign_argv("--journal", journal)) == 0
        argv = self.campaign_argv("--resume", journal)
        argv[argv.index("-n") + 1] = "12"
        with pytest.raises(SystemExit, match="refusing to mix"):
            main(argv)

    def test_journal_requires_full_mode(self, tmp_path):
        journal = str(tmp_path / "ckpt")
        argv = self.campaign_argv("--journal", journal)
        with pytest.raises(SystemExit, match="mode='full'"):
            main(argv + ["--first-violation"])

    def test_sweep_work_stealing_journal_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep-ckpt")

        def argv(flag):
            return [
                "sweep", "--arch", "x86_64", "--contract", "CT-SEQ,CT-COND",
                "--cpu", "skylake-v4-patched", "-s", "AR", "-n", "6",
                "-i", "6", "--seed", "3", "--shards", "2", "-w", "2",
                flag, journal,
            ]

        assert main(argv("--journal")) == 0
        first = self.printed_digest(capsys)
        records = sorted((tmp_path / "sweep-ckpt").glob("shard-*.pkl"))
        assert len(records) == 4  # 2 cells x 2 shards
        records[0].unlink()
        assert main(argv("--resume")) == 0
        assert self.printed_digest(capsys) == first

    def test_sweep_journal_requires_work_stealing(self, tmp_path, capsys):
        # journaling checkpoints per-unit completions, which only the
        # work-stealing pool has; it is the only scheduler now, so the
        # journal needs no schedule flag, even inline
        journal = tmp_path / "ckpt"
        assert main(
            ["sweep", "--arch", "x86_64", "--contract", "CT-SEQ",
             "--cpu", "skylake", "-s", "AR", "-n", "4", "-i", "6",
             "--shards", "2", "--journal", str(journal)]
        ) == 0
        assert len(list(journal.glob("shard-*.pkl"))) == 2
        assert self.printed_digest(capsys)
