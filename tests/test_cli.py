"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graphs import generators, noisy_copy_pair
from repro.graphs.io import load_groundtruth, save_alignment_pair


@pytest.fixture
def pair_dir(tmp_path, rng):
    graph = generators.barabasi_albert(40, 2, rng, feature_dim=6,
                                       feature_kind="degree")
    pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)
    directory = str(tmp_path / "pair")
    save_alignment_pair(pair, directory)
    return directory


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_align_defaults(self):
        args = build_parser().parse_args(["align", "--pair", "/x"])
        assert args.method == "galign"
        assert args.epochs == 50

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])


class TestGenerate:
    def test_ba_pair_written(self, tmp_path, capsys):
        out = str(tmp_path / "generated")
        code = main(["generate", "--dataset", "ba", "--nodes", "30",
                     "--out", out, "--seed", "1"])
        assert code == 0
        groundtruth = load_groundtruth(f"{out}/groundtruth.txt")
        assert len(groundtruth) > 0

    def test_named_dataset(self, tmp_path):
        out = str(tmp_path / "douban")
        code = main(["generate", "--dataset", "douban", "--scale", "0.02",
                     "--out", out])
        assert code == 0

    def test_unknown_dataset(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--dataset", "nope",
                  "--out", str(tmp_path / "x")])


class TestStats:
    def test_prints_summary(self, pair_dir, capsys):
        assert main(["stats", "--pair", pair_dir]) == 0
        output = capsys.readouterr().out
        assert "anchors : 40" in output
        assert "size ratio" in output


class TestAlign:
    def test_galign_run(self, pair_dir, tmp_path, capsys):
        anchors_path = str(tmp_path / "anchors.txt")
        code = main(["align", "--pair", pair_dir, "--method", "galign",
                     "--epochs", "10", "--dim", "16",
                     "--refinement-iterations", "2",
                     "--out", anchors_path])
        assert code == 0
        output = capsys.readouterr().out
        assert "metrics" in output
        anchors = load_groundtruth(anchors_path)
        assert len(anchors) == 40

    @pytest.mark.parametrize("method", ["regal", "final", "bigalign"])
    def test_fast_baselines(self, pair_dir, method, capsys):
        assert main(["align", "--pair", pair_dir, "--method", method]) == 0
        assert "metrics" in capsys.readouterr().out

    def test_unknown_method(self, pair_dir):
        with pytest.raises(SystemExit):
            main(["align", "--pair", pair_dir, "--method", "quantum"])


class TestCompare:
    def test_prints_table(self, pair_dir, capsys, monkeypatch):
        # Shrink the roster for test speed: only GAlign + FINAL.
        from repro.cli import main as cli_main
        from repro.eval import MethodSpec
        from repro.baselines import FINAL
        from repro import GAlign, GAlignConfig
        import repro.eval.experiments as experiments

        monkeypatch.setattr(
            experiments, "all_method_specs",
            lambda: [
                MethodSpec("GAlign", lambda: GAlign(GAlignConfig(
                    epochs=5, embedding_dim=8, refinement_iterations=1,
                    seed=0,
                ))),
                MethodSpec("FINAL", lambda: FINAL(iterations=5)),
            ],
        )
        assert cli_main(["compare", "--pair", pair_dir]) == 0
        output = capsys.readouterr().out
        assert "GAlign" in output
        assert "FINAL" in output
        assert "MAP" in output

    def test_requires_groundtruth(self, tmp_path, rng):
        from repro.graphs import AlignmentPair, generators
        from repro.graphs.io import save_alignment_pair
        import os

        graph = generators.erdos_renyi(10, 0.3, rng, feature_dim=2)
        pair = AlignmentPair(graph, graph.copy(), {0: 0})
        directory = str(tmp_path / "nogt")
        save_alignment_pair(pair, directory)
        os.remove(os.path.join(directory, "groundtruth.txt"))
        # Write an empty ground truth file.
        open(os.path.join(directory, "groundtruth.txt"), "w").close()
        with pytest.raises(SystemExit):
            main(["compare", "--pair", directory])


class TestServing:
    @pytest.fixture
    def artifact_dir(self, pair_dir, tmp_path, capsys):
        out = str(tmp_path / "artifact")
        code = main(["export-artifact", "--pair", pair_dir, "--out", out,
                     "--epochs", "5", "--dim", "8", "--seed", "3"])
        assert code == 0
        capsys.readouterr()
        return out

    def test_export_prints_summary(self, pair_dir, tmp_path, capsys):
        out = str(tmp_path / "artifact")
        bench = str(tmp_path / "BENCH_export.json")
        code = main(["export-artifact", "--pair", pair_dir, "--out", out,
                     "--epochs", "5", "--dim", "8", "--metrics-out", bench])
        assert code == 0
        output = capsys.readouterr().out
        assert "repro.artifact/v1" in output
        assert "40 source" in output
        from repro.observability import load_bench_json
        assert load_bench_json(bench)["run"]["command"] == "export-artifact"

    def test_export_from_checkpoint(self, pair_dir, tmp_path, capsys):
        model_path = str(tmp_path / "model.npz")
        assert main(["align", "--pair", pair_dir, "--epochs", "5",
                     "--dim", "8", "--save-model", model_path]) == 0
        out = str(tmp_path / "artifact")
        assert main(["export-artifact", "--pair", pair_dir, "--out", out,
                     "--load-model", model_path]) == 0
        assert "loaded from" in capsys.readouterr().out

    def test_query_in_process(self, artifact_dir, capsys):
        import json as json_module

        code = main(["query", "--artifact", artifact_dir,
                     "--source", "0", "--source", "7", "--k", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        payloads = [json_module.loads(line) for line in lines]
        assert [p["source"] for p in payloads] == [0, 7]
        assert all(len(p["targets"]) == 3 for p in payloads)
        assert all(p["aligned"] for p in payloads)

    def test_query_needs_exactly_one_transport(self, artifact_dir):
        with pytest.raises(SystemExit):
            main(["query", "--artifact", artifact_dir,
                  "--url", "http://127.0.0.1:1", "--source", "0"])
        with pytest.raises(SystemExit):
            main(["query", "--source", "0"])

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--artifact", "/x"])
        assert args.port == 8571
        assert args.block_size == 512
        assert not args.no_prune
        assert args.metrics_out is None and args.trace_out is None

    def test_query_metrics_out(self, artifact_dir, tmp_path, capsys):
        from repro.observability import load_bench_json

        bench = str(tmp_path / "BENCH_query.json")
        code = main(["query", "--artifact", artifact_dir,
                     "--source", "0", "--source", "1", "--k", "2",
                     "--metrics-out", bench])
        assert code == 0
        # stdout stays pure JSON lines (the bench note goes to stderr)
        import json as json_module
        for line in capsys.readouterr().out.strip().splitlines():
            json_module.loads(line)
        payload = load_bench_json(bench)
        assert payload["run"]["command"] == "query"
        assert payload["metrics"]["serving.queries"]["value"] == 2
        hist = payload["metrics"]["serving.query_latency"]
        assert hist["kind"] == "histogram" and hist["count"] == 2

    def test_query_metrics_out_needs_in_process(self, artifact_dir, tmp_path):
        with pytest.raises(SystemExit, match="--metrics-out"):
            main(["query", "--url", "http://127.0.0.1:1", "--source", "0",
                  "--metrics-out", str(tmp_path / "b.json")])


class TestTraceOut:
    def test_align_trace_out(self, pair_dir, tmp_path, capsys):
        import json as json_module

        from repro.observability import validate_chrome_trace

        trace = str(tmp_path / "trace.json")
        code = main(["align", "--pair", pair_dir, "--epochs", "4",
                     "--dim", "8", "--refinement-iterations", "2",
                     "--trace-out", trace])
        assert code == 0
        assert "trace" in capsys.readouterr().out
        with open(trace) as handle:
            payload = json_module.load(handle)
        validate_chrome_trace(payload)
        names = [event["name"] for event in payload["traceEvents"]]
        assert names.count("trainer.epoch") == 4
        assert names.count("refine.iteration") >= 1

    def test_align_without_trace_out_writes_nothing(self, pair_dir,
                                                    tmp_path, capsys):
        code = main(["align", "--pair", pair_dir, "--epochs", "3",
                     "--dim", "8", "--refinement-iterations", "1"])
        assert code == 0
        assert "trace" not in capsys.readouterr().out


class TestProfile:
    def test_profile_emits_trace_table_and_bench(self, tmp_path, capsys):
        import json as json_module

        from repro.observability import (
            load_bench_json,
            validate_chrome_trace,
        )

        trace = str(tmp_path / "trace.json")
        bench = str(tmp_path / "BENCH_profile.json")
        code = main(["profile", "--nodes", "40", "--features", "8",
                     "--epochs", "3", "--dim", "8",
                     "--refinement-iterations", "2", "--queries", "4",
                     "--trace-out", trace, "--metrics-out", bench])
        assert code == 0
        output = capsys.readouterr().out
        assert "span tree" in output
        assert "per-op profile" in output
        assert "coverage" in output
        with open(trace) as handle:
            payload = json_module.load(handle)
        validate_chrome_trace(payload)
        names = [event["name"] for event in payload["traceEvents"]]
        # every epoch, every refinement iteration, and the hot ops
        assert names.count("trainer.epoch") == 3
        assert names.count("refine.iteration") == 2
        assert "op.matmul" in names and "op.spmm" in names
        assert "op.spmm.backward" in names
        assert "serving.score_batch" in names
        metrics = load_bench_json(bench)["metrics"]
        assert metrics["trainer.epoch_time"]["count"] == 3
        assert metrics["serving.query_latency"]["count"] == 4

    def test_profile_parser_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.trace_out == "trace.json"
        assert args.nodes == 300 and args.dim == 64


class TestVerifyArtifactCommand:
    @pytest.fixture
    def artifact_dir(self, pair_dir, tmp_path, capsys):
        out = str(tmp_path / "artifact")
        assert main(["export-artifact", "--pair", pair_dir, "--out", out,
                     "--epochs", "5", "--dim", "8", "--seed", "3"]) == 0
        capsys.readouterr()
        return out

    def test_healthy_artifact_reports_ok(self, artifact_dir, capsys):
        assert main(["verify-artifact", "--artifact", artifact_dir]) == 0
        output = capsys.readouterr().out
        assert "status   : ok" in output
        assert "finger" in output
        assert "committed: True" in output

    def test_corrupt_artifact_exits_nonzero(self, artifact_dir, capsys):
        import os as os_module

        victim = os_module.path.join(artifact_dir, "target_layer_0.npy")
        with open(victim, "rb+") as handle:
            handle.seek(-8, os_module.SEEK_END)
            position = handle.tell()
            byte = handle.read(1)
            handle.seek(position)
            handle.write(bytes([byte[0] ^ 0xFF]))
        assert main(["verify-artifact", "--artifact", artifact_dir]) == 1
        output = capsys.readouterr().out
        assert "CORRUPT" in output
        assert "target_layer_0" in output

    def test_query_timeout_parser_default(self):
        args = build_parser().parse_args(
            ["query", "--source", "0", "--artifact", "/x"]
        )
        assert args.timeout_ms == 0
        args = build_parser().parse_args(
            ["query", "--source", "0", "--artifact", "/x",
             "--timeout-ms", "250"]
        )
        assert args.timeout_ms == 250

    def test_serve_breaker_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--artifact", "/x"])
        assert args.breaker_threshold == 3
        assert args.breaker_reset == 0.5
        assert args.verify is None
