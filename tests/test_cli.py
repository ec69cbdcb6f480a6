import csv
import json
import runpy
from dataclasses import fields, replace
from pathlib import Path

import pytest

from secshap.cli import ExperimentConfig, bench_shape, main
from secshap.hebackend import CostWeights
from secshap.sharing import secretsv_headroom_error


def tiny_config(**overrides) -> dict:
    base = {
        "version": 1,
        "seed": 3,
        "clients": 4,
        "rounds": 1,
        "alpha": 0.7,
        "architecture": "logistic",
        "hidden": [],
        "features": 10,
        "classes": 3,
        "test_samples": 80,
        "train_samples": 160,
        "separation": 2.5,
        "local_epochs": 1,
        "learning_rate": 0.5,
        "grid_bits": 12,
        "slot_count": 2048,
        "noise_stddev": 1e-9,
        "prime": (1 << 61) - 1,
        "frac_bits": 16,
        "protocols": ["nssv", "hesv", "secsv", "secretsv"],
        "sample_skip": True,
        "batch_cap": 0,
        "ps_budget": 0,
        "workers": 1,
        "output_dir": "out",
    }
    base.update(overrides)
    return base


class TestConfig:
    def test_round_trip(self):
        config = ExperimentConfig.from_json(json.dumps(tiny_config()))
        again = ExperimentConfig.from_json(config.to_json())
        assert config == again

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(json.dumps(tiny_config(banana=1)))

    def test_validation_messages_are_field_specific(self):
        config = ExperimentConfig.from_json(json.dumps(tiny_config(
            clients=3, alpha=-1.0, protocols=["nssv", "wat"], slot_count=100,
        )))
        errors = config.validate()
        assert any(e.startswith("clients:") for e in errors)
        assert any(e.startswith("alpha:") for e in errors)
        assert any("wat" in e for e in errors)
        assert any(e.startswith("slot_count:") for e in errors)

    def test_secsv_headroom_checked_up_front(self):
        # secsv decodes layer outputs at scale 3 * frac_bits
        def errors(frac_bits, protocols):
            return ExperimentConfig.from_json(json.dumps(tiny_config(
                frac_bits=frac_bits, protocols=protocols,
            ))).validate()

        assert any(e.startswith("frac_bits:") for e in errors(18, ["nssv", "secsv"]))
        assert errors(17, ["nssv", "secsv"]) == []
        assert errors(18, ["nssv", "hesv", "secretsv"]) == []

    def test_secretsv_headroom_checked_only_for_secretsv(self):
        # secretsv's products need 2 * frac_bits + 9 prime bits; nssv and hesv use no field
        def errors(protocols):
            return ExperimentConfig.from_json(json.dumps(tiny_config(
                frac_bits=27, protocols=protocols,
            ))).validate()

        assert errors(["nssv", "hesv"]) == []
        assert errors(["secretsv"]) == [secretsv_headroom_error(27)]

    def test_non_prime_rejected_under_prime(self):
        config = replace(ExperimentConfig(), prime=2**61 + 1)
        assert config.validate() == ["prime: only 2**61 - 1 is supported"]

    def test_other_prime_rejected_under_prime(self):
        # 2^89 - 1 is prime, but 2^61 - 1 is the one field
        config = replace(ExperimentConfig(), prime=(1 << 89) - 1)
        assert config.validate() == ["prime: only 2**61 - 1 is supported"]

    def test_negative_frac_bits_rejected_under_frac_bits(self):
        errors = replace(ExperimentConfig(), frac_bits=-1).validate()
        assert "frac_bits: must be non-negative, got -1" in errors

    def test_negative_local_epochs_rejected(self):
        assert replace(ExperimentConfig(), local_epochs=-1).validate() == [
            "local_epochs: must be non-negative, got -1"
        ]
        assert replace(ExperimentConfig(), local_epochs=0).validate() == []

    def test_slot_count_too_small_for_secsv(self):
        # one column of the 32-row hidden layer needs 32 slots
        config = ExperimentConfig(test_samples=60, train_samples=120, features=8, rounds=1,
                                  clients=4, architecture="mlp", hidden=[32], slot_count=16)
        assert [e for e in config.validate() if e.startswith("slot_count:")]
        assert replace(config, slot_count=32).validate() == []
        assert replace(config, protocols=["nssv", "hesv", "secretsv"]).validate() == []

    @pytest.mark.parametrize("hidden", [[0], [-3], [16, 0]])
    def test_hidden_sizes_must_be_positive(self, hidden):
        config = ExperimentConfig.from_json(json.dumps(tiny_config(
            architecture="mlp", hidden=hidden,
        )))
        assert [e for e in config.validate() if e.startswith("hidden:")]
        assert ExperimentConfig.from_json(json.dumps(tiny_config(hidden=hidden))).validate() == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
    def test_noise_must_be_finite_and_non_negative(self, bad):
        config = ExperimentConfig.from_json(json.dumps(tiny_config(noise_stddev=bad)))
        assert [e for e in config.validate() if e.startswith("noise_stddev:")]

    @pytest.mark.parametrize("name", ["alpha", "learning_rate", "separation"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_real_knobs_must_be_finite(self, name, bad):
        config = ExperimentConfig.from_json(json.dumps(tiny_config(**{name: bad})))
        assert [e for e in config.validate() if e.startswith(f"{name}:")]

    @pytest.mark.parametrize("name", ["seed", "clients", "rounds", "features", "classes",
                                      "test_samples", "train_samples", "local_epochs",
                                      "grid_bits", "slot_count", "frac_bits", "batch_cap",
                                      "ps_budget", "version", "prime", "workers"])
    @pytest.mark.parametrize("bad", [6.5, 2.0, True, "4", None])
    def test_integer_fields_must_be_ints(self, name, bad):
        config = ExperimentConfig.from_json(json.dumps(tiny_config(**{name: bad})))
        assert config.validate() == [f"{name}: must be an integer, got {bad!r}"]

    @pytest.mark.parametrize("name, kind", [(f.name, f.type) for f in fields(ExperimentConfig)])
    def test_every_mistyped_field_is_named(self, name, kind):
        bad = {"int": "4", "float": "0.5", "bool": "yes", "str": 3, "list": "nssv"}[kind]
        config = ExperimentConfig.from_json(json.dumps(tiny_config(**{name: bad})))
        errors = config.validate()
        assert errors and all(e.startswith(f"{name}:") for e in errors), errors

    @pytest.mark.parametrize("name, bad", [("protocols", ["nssv", 1]), ("hidden", [16, True]),
                                           ("hidden", [2.0])])
    def test_list_entries_must_have_their_type(self, name, bad):
        config = ExperimentConfig.from_json(json.dumps(tiny_config(
            **{"architecture": "mlp", "hidden": [4], name: bad})))
        assert [e.split(",")[0] for e in config.validate()] == [
            f"{name}: must be a list of {'strings' if name == 'protocols' else 'integers'}"]

    def test_perfbench_workloads_validate(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
        for workload in runpy.run_path(str(path))["WORKLOADS"].values():
            assert ExperimentConfig(**workload).validate() == []

    def test_negative_seed_and_separation_rejected(self):
        assert replace(ExperimentConfig(), seed=-1).validate() == [
            "seed: must be non-negative, got -1"
        ]
        assert replace(ExperimentConfig(), separation=-1.0).validate() == [
            "separation: must be finite and non-negative"
        ]
        assert replace(ExperimentConfig(), separation=0.0).validate() == []

    def test_cnn_like_shape_constraint(self):
        config = ExperimentConfig.from_json(json.dumps(tiny_config(architecture="cnn_like")))
        assert any("cnn_like" in e for e in config.validate())


class TestCmdRun:
    def test_full_run_emits_reports_and_summary(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config()))
        rc = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        out = tmp_path / "out"
        for name in ("nssv", "hesv", "secsv", "secretsv"):
            assert (out / f"report_{name}.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fsv_error_vs_nssv"]["secsv+skip" if False else "secsv"] <= 1e-3
        assert "permutation_sampling" in summary
        # every summary number is recomputable from the reports
        reports = {
            name: json.loads((out / f"report_{name}.json").read_text())
            for name in ("nssv", "hesv", "secsv", "secretsv")
        }
        for name, cost in summary["weighted_costs"].items():
            assert cost == reports[name]["costs"]["weighted_total"]

    def test_nssv_only_has_no_ratios(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config(protocols=["nssv"])))
        rc = main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert rc == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert "cost_ratio_vs_hesv" not in summary
        assert summary["fsv_error_vs_nssv"] == {}

    def test_same_seed_byte_identical(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config(protocols=["nssv", "secsv"])))
        rc1 = main(["run", "--config", str(config_path), "--out", str(tmp_path / "a")])
        rc2 = main(["run", "--config", str(config_path), "--out", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        for name in ("report_nssv.json", "report_secsv.json", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_invalid_config_exits_2(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config(clients=2)))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "x")]) == 2

    def test_mistyped_real_exits_2_before_any_work(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"alpha": "0.5"}))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "x")]) == 2
        assert "config error: alpha:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_seed_exits_2_before_any_work(self, tmp_path, capsys):
        assert main(["run", "--seed", "-1", "--out", str(tmp_path / "x")]) == 2
        assert "config error: seed:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_separation_exits_2_before_any_work(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"separation": -1.0}))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "x")]) == 2
        assert "config error: separation:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_float_features_exit_2_before_any_work(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config(features=6.5)))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "x")]) == 2
        assert "config error: features: must be an integer, got 6.5" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_workers_flag_gone_and_key_must_be_1(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--workers", "2", "--out", str(tmp_path / "x")])
        assert exit_info.value.code == 2
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config(workers=2)))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "x")]) == 2
        assert "config error: workers:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_non_prime_exits_2_before_any_work(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config(prime=2**61 + 1)))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "x")]) == 2
        assert "config error: prime:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_other_prime_exits_2_before_any_work(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config(prime=(1 << 89) - 1)))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "x")]) == 2
        assert "config error: prime: only 2**61 - 1 is supported" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_default_config_smoke(self, tmp_path):
        # the stock configuration (n=5, T=3, M=500 logistic) end to end
        rc = main(["run", "--out", str(tmp_path / "full"), "--seed", "0"])
        assert rc == 0
        summary = json.loads((tmp_path / "full" / "summary.json").read_text())
        assert set(summary["fsv_error_vs_nssv"]) == {"hesv", "secsv", "secretsv"}
        assert all(v <= 1e-3 for v in summary["fsv_error_vs_nssv"].values())
        assert summary["cost_ratio_vs_hesv"]["secsv"] > 1.0


class TestBenchMatmul:
    def test_bench_rows_and_ratio(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench-matmul", "2x32", "10x64", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 2  # shapes x modes x methods
        for row in rows:
            assert float(row["ratio_squaring_over_reducing"]) >= 1.0
            if row["method"] == "reducing":
                assert row["hrot"] == "0"

    def test_degenerate_1x1(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench-matmul", "1x1", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert int(row["hmult_c2c"]) + int(row["hmult_c2p"]) == 1
            assert row["hrot"] == "0"

    def test_bad_shape_skipped_with_warning(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["bench-matmul", "banana", "2x32", "--out", str(out)])
        assert rc == 0
        assert "cannot parse shape" in capsys.readouterr().err

    def test_no_valid_shapes_is_an_error(self, tmp_path):
        assert main(["bench-matmul", "nope", "--out", str(tmp_path / "b.csv")]) == 1

    def test_meter_matches_plan_expectations(self):
        rows = bench_shape(2, 48, 2048, CostWeights())
        for row in rows:
            if row["method"] == "squaring":
                assert row["hmult_c2c"] + row["hmult_c2p"] == row["expected_hmult"]
                assert row["hrot"] == row["expected_hrot"]


class TestGenData:
    def test_files_and_manifest(self, tmp_path):
        rc = main([
            "gen-data", "--clients", "4", "--samples", "60", "--features", "6",
            "--classes", "3", "--seed", "9", "--out", str(tmp_path / "data"),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
        assert manifest["clients"] == 4
        total = 0
        for entry in manifest["files"]:
            with open(tmp_path / "data" / entry["path"], newline="") as fh:
                header, *rows = csv.reader(fh)
            assert header == ["id", "label"] + [f"x{i}" for i in range(6)]
            assert all(len(row) == 8 and 0 <= int(row[1]) < 3 for row in rows)
            assert len(rows) == entry["samples"]
            total += len(rows)
        assert total == 60
