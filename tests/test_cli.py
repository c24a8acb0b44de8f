"""End-to-end tests of the command-line interface."""

import json

import pytest

from neurovrp import cli
from neurovrp.cli import main
from neurovrp.instances import Instance, Variant, generate
from neurovrp.model import ModelConfig, init_params
from neurovrp.oracle import OracleLimits
from neurovrp.training import TrainConfig


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def _gen(workdir, variant="VRP", n=6, seed=0, count=1):
    out = workdir / "data"
    rc = main(["gen", "--variant", variant, "--n", str(n),
               "--seed", str(seed), "--count", str(count),
               "--out", str(out)])
    assert rc == 0
    return sorted(out.glob("*.json"))


def _train(workdir, variant="VRP", n=6, name="model.ckpt"):
    ckpt = workdir / name
    rc = main(["train", "--variant", variant, "--n", str(n),
               "--epochs", "1", "--batches", "1", "--batch-size", "2",
               "--pomo", "2", "--out", str(ckpt)])
    assert rc == 0
    return ckpt


class TestGen:
    def test_writes_named_instance_files(self, workdir):
        files = _gen(workdir, n=8, seed=3, count=2)
        assert [f.name for f in files] == ["vrp_n8_s3.json", "vrp_n8_s4.json"]
        inst = Instance.from_json(files[0].read_text())
        assert inst.variant is Variant.VRP and inst.n_customers == 8

    def test_rerun_is_byte_identical(self, workdir):
        first = _gen(workdir, seed=7)[0].read_bytes()
        second = _gen(workdir, seed=7)[0].read_bytes()
        assert first == second

    def test_config_file_supplies_defaults(self, workdir):
        cfg = workdir / "gen.json"
        cfg.write_text(json.dumps({"variant": "EVRPCS", "n": 5,
                                   "stations": 2}))
        out = workdir / "d2"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        inst = Instance.from_json(next(out.glob("*.json")).read_text())
        assert inst.variant is Variant.EVRPCS
        assert len(inst.optional_nodes) == 2

    def test_cli_flag_beats_config_file(self, workdir):
        cfg = workdir / "gen.json"
        cfg.write_text(json.dumps({"n": 5}))
        out = workdir / "d3"
        main(["gen", "--config", str(cfg), "--n", "9", "--out", str(out)])
        assert (out / "vrp_n9_s0.json").exists()

    def test_unknown_config_key_rejected(self, workdir):
        cfg = workdir / "gen.json"
        cfg.write_text(json.dumps({"banana": 1}))
        with pytest.raises(SystemExit, match="unknown keys"):
            main(["gen", "--config", str(cfg), "--out", str(workdir / "x")])


    @pytest.mark.parametrize("doc, flag", [
        ({"n": "five"}, "--n"), ({"variant": "TSP"}, "--variant"),
        ({"stations": 2.5}, "--stations")], ids=["n", "variant", "stations"])
    def test_mistyped_config_value_rejected(self, workdir, capsys, doc, flag):
        cfg = workdir / "gen.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(SystemExit):
            main(["gen", "--config", str(cfg), "--out", str(workdir / "x")])
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("doc, match", [
        ([{"n": 5}], "must be a JSON object"),
        ({"n": 5, "banana": 1}, r"unknown keys: \['banana'\]")],
        ids=["not-an-object", "unknown-key"])
    def test_malformed_config_file_rejected(self, workdir, doc, match):
        cfg = workdir / "gen.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(SystemExit, match=match):
            main(["gen", "--config", str(cfg), "--out", str(workdir / "x")])

    @pytest.mark.parametrize("text, match", [
        (None, "cannot read config file"),
        ('{"n": 5,', "is not valid JSON"),
        ("\udcff", "is not valid JSON")],
        ids=["missing", "truncated", "not-utf8"])
    def test_unreadable_config_file_named(self, workdir, text, match):
        cfg = workdir / "gen.json"
        if text is not None:
            cfg.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(SystemExit, match=match) as err:
            main(["gen", "--config", str(cfg), "--out", str(workdir / "x")])
        assert str(cfg) in str(err.value)
        assert not (workdir / "x").exists()


class TestTrainAndCheckpoint:
    def test_train_without_size_flags_uses_library_defaults(
            self, workdir, monkeypatch):
        seen = {}

        def fake_train(tc, mc, **kw):
            seen.update(tc=tc, mc=mc, kw=kw)
            return init_params(mc), []

        monkeypatch.setattr(cli, "train", fake_train)
        assert main(["train", "--out", str(workdir / "m.ckpt")]) == 0
        assert seen == {"tc": TrainConfig(), "mc": ModelConfig(), "kw": {}}


    def test_checkpoint_with_metadata_sidecar(self, workdir):
        ckpt = _train(workdir)
        assert ckpt.exists()
        meta = json.loads((workdir / "model.ckpt.meta.json").read_text())
        assert meta["variant"] == "VRP" and meta["d"] == 16

    def test_metrics_file_written(self, workdir):
        metrics = workdir / "m.csv"
        rc = main(["train", "--n", "5", "--epochs", "1", "--batches", "1",
                   "--batch-size", "2", "--pomo", "2",
                   "--out", str(workdir / "c.ckpt"),
                   "--metrics", str(metrics)])
        assert rc == 0
        assert metrics.read_text().startswith(
            "epoch,sampled_cost,greedy_val_cost,tau")


class TestSolveVerifyOracle:
    def test_solve_writes_valid_solution(self, workdir):
        inst_path = _gen(workdir)[0]
        ckpt = _train(workdir)
        sol_path = workdir / "sol.json"
        rc = main(["solve", "--instance", str(inst_path),
                   "--checkpoint", str(ckpt), "--out", str(sol_path)])
        assert rc == 0
        assert main(["verify", "--instance", str(inst_path),
                     "--solution", str(sol_path)]) == 0

    def test_solve_rerun_byte_identical(self, workdir):
        inst_path = _gen(workdir)[0]
        ckpt = _train(workdir)
        outs = []
        for name in ("a.json", "b.json"):
            p = workdir / name
            main(["solve", "--instance", str(inst_path), "--checkpoint",
                  str(ckpt), "--pomo", "4", "--out", str(p)])
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]

    def test_variant_mismatch_rejected(self, workdir):
        inst_path = _gen(workdir, variant="VRPTW")[0]
        ckpt = _train(workdir, variant="VRP")
        with pytest.raises(SystemExit, match="VRP"):
            main(["solve", "--instance", str(inst_path),
                  "--checkpoint", str(ckpt)])

    def test_verify_flags_bad_solution(self, workdir, capsys):
        inst_path = _gen(workdir)[0]
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"actions": [0, 1, 0], "cost": 0.0}))
        assert main(["verify", "--instance", str(inst_path),
                     "--solution", str(bad)]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    @pytest.mark.parametrize("text, match", [
        ('{"actions": [0, 1', "solution .*bad.json is not valid JSON"),
        ('{"cost": 1.0}', "solution .*bad.json must be a JSON object with"),
        ('{"actions": [0, 1, 0]}', "solution .*bad.json must be a JSON object"),
        ('{"actions": 3, "cost": 1.0}', "solution .*bad.json is malformed")],
        ids=["truncated", "no-actions", "no-cost", "actions-not-list"])
    def test_verify_names_unreadable_solution(self, workdir, text, match):
        inst_path = _gen(workdir)[0]
        bad = workdir / "bad.json"
        bad.write_text(text)
        with pytest.raises(SystemExit, match=match):
            main(["verify", "--instance", str(inst_path),
                  "--solution", str(bad)])

    @pytest.mark.parametrize("command", ["solve", "verify", "oracle"])
    def test_missing_instance_named(self, workdir, command):
        extra = {"solve": ["--checkpoint", "model.ckpt"],
                 "verify": ["--solution", "sol.json"], "oracle": []}[command]
        missing = workdir / "missing.json"
        with pytest.raises(SystemExit,
                           match="cannot read instance .*missing.json"):
            main([command, "--instance", str(missing), *extra])

    def test_oracle_reports_proven_optimum(self, workdir, capsys):
        inst_path = _gen(workdir, n=5)[0]
        capsys.readouterr()          # drop the gen command's output
        assert main(["oracle", "--instance", str(inst_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["proven"] and doc["optimal_cost"] > 0
        assert doc["actions"][0] == 0 and doc["actions"][-1] == 0


    def test_oracle_without_limit_flags_uses_default_limits(
            self, workdir, monkeypatch):
        seen = []
        real = cli.brute_force
        monkeypatch.setattr(cli, "brute_force",
                            lambda inst, limits: seen.append(limits)
                            or real(inst, limits))
        inst_path = _gen(workdir, n=5)[0]
        assert main(["oracle", "--instance", str(inst_path)]) == 0
        assert seen == [OracleLimits()]

    def test_oracle_required_flag_from_config_file(self, workdir, capsys):
        inst_path = _gen(workdir, n=5)[0]
        cfg = workdir / "oracle.json"
        cfg.write_text(json.dumps({"instance": str(inst_path)}))
        capsys.readouterr()
        assert main(["oracle", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["proven"]

    def test_solve_required_flags_from_config_file_flag_wins(self, workdir):
        inst_path = _gen(workdir)[0]
        ckpt = _train(workdir)
        cfg = workdir / "solve.json"
        cfg.write_text(json.dumps({"instance": str(inst_path),
                                   "checkpoint": str(ckpt),
                                   "out": str(workdir / "from_config.json")}))
        sol_path = workdir / "from_flag.json"
        assert main(["solve", "--config", str(cfg),
                     "--out", str(sol_path)]) == 0
        assert not (workdir / "from_config.json").exists()
        assert main(["verify", "--instance", str(inst_path),
                     "--solution", str(sol_path)]) == 0

    @pytest.mark.parametrize("flags, name", [
        (["--pomo", "-3"], "pomo_size"),
        (["--mode", "sample", "--samples", "0"], "samples")],
        ids=["pomo", "samples"])
    def test_solve_rejects_sizes_below_one(self, workdir, flags, name):
        inst_path = _gen(workdir)[0]
        ckpt = _train(workdir)
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            main(["solve", "--instance", str(inst_path),
                  "--checkpoint", str(ckpt), *flags])


class TestModelConfigFiles:
    @pytest.mark.parametrize("edit, match", [
        ({"banana": 1}, r"unknown model config field\(s\) \['banana'\]"),
        ({"d": "16"}, "field 'd' must be int")], ids=["unknown", "mistyped"])
    def test_model_json_with_bad_field_rejected(self, workdir, edit, match):
        cfg = workdir / "model.json"
        cfg.write_text(json.dumps(edit))
        with pytest.raises(ValueError, match=match):
            main(["model-info", "--model", str(cfg)])

    @pytest.mark.parametrize("text, match", [
        (None, "cannot read model config"), ('{"d": 16', "is not valid JSON")],
        ids=["missing", "truncated"])
    def test_unreadable_model_json_named(self, workdir, text, match):
        cfg = workdir / "model.json"
        if text is not None:
            cfg.write_text(text)
        with pytest.raises(SystemExit, match=match) as err:
            main(["model-info", "--model", str(cfg)])
        assert str(cfg) in str(err.value)

    @pytest.mark.parametrize("text, match", [
        ("VRP n=6\n", "is not a checkpoint: Expecting value"),
        ("[1, 2]", "is not a checkpoint: a JSON list"),
        ('{"version": 1, "sha256": "0"}', r"missing \['params'\]"),
        ('{"version": 1, "params": []}', r"missing \['sha256'\]")],
        ids=["text", "list", "no-params", "no-sha256"])
    def test_non_checkpoint_named(self, workdir, text, match):
        inst_path = _gen(workdir)[0]
        ckpt = workdir / "notes.ckpt"
        ckpt.write_text(text)
        with pytest.raises(ValueError, match=match) as err:
            main(["solve", "--instance", str(inst_path),
                  "--checkpoint", str(ckpt)])
        assert str(err.value).startswith(str(ckpt))

    @pytest.mark.parametrize("edit, match", [
        ({"banana": 1}, r"unknown model config field\(s\) \['banana'\]"),
        ({"d": "16"}, "field 'd' must be int"),
        ({"d": 32}, "does not match its metadata at 'dec.ctx.w'")],
        ids=["unknown", "mistyped", "shape-mismatch"])
    def test_checkpoint_meta_disagreeing_rejected(self, workdir, edit, match):
        inst_path = _gen(workdir)[0]
        ckpt = _train(workdir)
        meta = workdir / "model.ckpt.meta.json"
        meta.write_text(json.dumps({**json.loads(meta.read_text()), **edit}))
        with pytest.raises(ValueError, match=match):
            main(["solve", "--instance", str(inst_path),
                  "--checkpoint", str(ckpt)])


class TestBench:
    def test_bench_against_oracle(self, workdir, capsys):
        _gen(workdir, n=5, count=2)
        ckpt = _train(workdir, n=5)
        rc = main(["bench", "--dataset", str(workdir / "data"),
                   "--checkpoint", str(ckpt), "--reference", "oracle",
                   "--omit-times", "--out", str(workdir / "report")])
        assert rc == 0
        csv_text = (workdir / "report.csv").read_text()
        assert "AGGREGATE" in csv_text
        doc = json.loads((workdir / "report.json").read_text())
        assert len(doc["rows"]) == 2
        assert all(r["gap_pct"] >= -1e-9 for r in doc["rows"])

    def test_bench_rerun_byte_identical_with_omit_times(self, workdir):
        _gen(workdir, n=5)
        ckpt = _train(workdir, n=5)
        blobs = []
        for name in ("r1", "r2"):
            main(["bench", "--dataset", str(workdir / "data"),
                  "--checkpoint", str(ckpt), "--omit-times",
                  "--out", str(workdir / name)])
            blobs.append((workdir / (name + ".csv")).read_bytes())
        assert blobs[0] == blobs[1]


class TestInfoCommands:
    def test_cpa_stats_csv(self, capsys):
        assert main(["cpa-stats", "--n", "100", "--m", "20"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ("n,dense_pairs,cpa_pairs,cpa_pairs_with_depot,"
                            "reduction_pct")
        n, dense, cpa, _, _ = lines[1].split(",")
        assert int(n) == 100 and int(cpa) < int(dense)

    def test_cpa_stats_from_config_file(self, workdir, capsys):
        cfg = workdir / "cpa.json"
        cfg.write_text(json.dumps({"n": [100, 200], "smoothing": True}))
        assert main(["cpa-stats", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["100", "200"]

    def test_model_json_with_bad_rounds_rejected(self, workdir):
        cfg = workdir / "model.json"
        cfg.write_text(json.dumps({"cluster_size": 20, "rounds": 0}))
        with pytest.raises(ValueError, match="rounds"):
            main(["model-info", "--model", str(cfg)])

    def test_model_info_totals(self, capsys):
        assert main(["model-info", "--model", "full"]) == 0
        out = capsys.readouterr().out
        assert "total" in out and "enc" in out and "edge" in out
