import json

import pytest

from ocb.cli import main
from ocb.config import build_config, read_config_file
from ocb.distributions import Constant, Special
from ocb.errors import ParameterError
from ocb.generator import load_database


# -- config layering -----------------------------------------------------


def test_defaults_match_standard_tables():
    config = build_config()
    g, w = config.generator, config.workload
    assert (g.nc, g.maxnref, g.basesize, g.no, g.nreft) == (20, 10, 50, 20000, 4)
    assert (g.infclass, g.supclass, g.infref, g.supref) == (1, 20, 1, 20000)
    assert (w.setdepth, w.simdepth, w.hiedepth, w.stodepth) == (3, 3, 5, 50)
    assert (w.coldn, w.hotn, w.think, w.clientn) == (1000, 10000, 0.0, 1)
    assert (w.pset, w.psimple, w.phier, w.pstoch) == (0.25,) * 4
    assert config.storage.page_size == 4096
    assert config.policy == "none"


def test_club_preset_resolves_to_emulation_values():
    config = build_config(preset="dstc-club")
    g = config.generator
    assert (g.nc, g.maxnref, g.basesize, g.no, g.nreft) == (2, 3, 50, 20000, 3)
    assert (g.infclass, g.supclass) == (0, 2)
    assert g.dist1 == Constant(3)
    assert g.dist2 == Constant(1)
    assert g.dist3 == Constant(1)
    assert isinstance(g.dist4, Special)


def test_flags_override_config_file_and_preset(tmp_path):
    config_file = tmp_path / "exp.conf"
    config_file.write_text("nc = 5  # five classes\nhotn = 42\n")
    overrides = read_config_file(str(config_file))
    config = build_config(preset="dstc-club", file_overrides=overrides,
                          flag_overrides={"hotn": "7"})
    assert config.generator.nc == 5  # file beats preset
    assert config.workload.hotn == 7  # flag beats file
    assert config.generator.maxnref == 3  # preset survives where not overridden


def test_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("this is not a key value line\n")
    with pytest.raises(ParameterError):
        read_config_file(str(bad))


def test_unknown_keys_and_values_rejected():
    with pytest.raises(ParameterError):
        build_config(flag_overrides={"frobnicate": "1"})
    with pytest.raises(ParameterError):
        build_config(flag_overrides={"nc": "many"})
    with pytest.raises(ParameterError):
        build_config(preset="nope")


def test_probability_vector_must_sum_to_one():
    with pytest.raises(ParameterError):
        build_config(flag_overrides={"pset": "0.5"})
    config = build_config(flag_overrides={"pset": "0.5", "psimple": "0.5",
                                          "phier": "0", "pstoch": "0"})
    assert config.workload.pset == 0.5


def test_seed_feeds_generator_and_workload():
    config = build_config(flag_overrides={"seed": "99"})
    assert config.seed == 99
    assert config.generator.seed == 99
    assert config.workload.seed == 99


def test_fingerprint_ignores_policy_but_not_seed():
    base = build_config(flag_overrides={"seed": "1"})
    with_dstc = build_config(flag_overrides={"seed": "1", "policy": "dstc"})
    other_seed = build_config(flag_overrides={"seed": "2"})
    assert base.fingerprint() == with_dstc.fingerprint()
    assert base.fingerprint() != other_seed.fingerprint()


def test_per_class_lists_parse():
    config = build_config(flag_overrides={"nc": "3", "maxnref": "1,2,3",
                                          "basesize": "10,20,30", "no": "9"})
    assert config.generator.maxnref == (1, 2, 3)
    assert config.generator.basesize == (10, 20, 30)


# -- CLI -----------------------------------------------------------------


SMALL = ["--nc", "3", "--maxnref", "2", "--no", "40", "--seed", "5"]
QUICK_RUN = SMALL + ["--coldn", "8", "--hotn", "12"]


def test_cli_presets_lists_known_names(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "default" in out and "dstc-club" in out


def test_cli_generate_writes_database(tmp_path, capsys):
    out = tmp_path / "db.ocb"
    assert main(["generate", *SMALL, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "OCBDB1"
    db = load_database(str(out))
    assert len(db.objects) == 40
    assert "generated 40 objects" in capsys.readouterr().out


def test_cli_generate_empty_database(tmp_path):
    out = tmp_path / "empty.ocb"
    assert main(["generate", "--nc", "1", "--no", "0", "--out", str(out)]) == 0
    assert len(load_database(str(out)).objects) == 0


def test_cli_run_reports_zero_overhead_without_clustering(tmp_path):
    out_dir = tmp_path / "reports"
    assert main(["run", *QUICK_RUN, "--policy", "none",
                 "--out-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["counters"]["overhead_reads"] == 0
    assert payload["counters"]["overhead_writes"] == 0
    assert payload["metrics"]["gain_factor"] is None
    assert payload["config"]["generator"]["nc"] == 3
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "report.txt").exists()


def test_cli_run_from_database_file(tmp_path):
    db_path = tmp_path / "db.ocb"
    main(["generate", *SMALL, "--out", str(db_path)])
    out_dir = tmp_path / "reports"
    assert main(["run", "--db", str(db_path), "--coldn", "4", "--hotn", "6",
                 "--seed", "5", "--out-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["transactions"] == 10


def test_cli_run_missing_database_is_runtime_error(tmp_path):
    assert main(["run", "--db", str(tmp_path / "nope.ocb"),
                 "--out-dir", str(tmp_path)]) == 3


def test_cli_config_error_exit_code(tmp_path):
    assert main(["run", "--pset", "0.9", "--out-dir", str(tmp_path)]) == 2
    assert main(["generate", "--preset", "bogus",
                 "--out", str(tmp_path / "x")]) == 2


def test_cli_deep_cyclic_traversal_exits_with_message(tmp_path, capsys):
    # reference type 3 is cyclic here, so a hierarchy walk can reach any
    # depth and recurses past the interpreter stack
    code = main(["run", "--nc", "2", "--no", "200", "--nreft", "3",
                 "--dist1", "constant:3", "--maxnref", "1", "--pset", "0",
                 "--psimple", "0", "--phier", "1", "--pstoch", "0",
                 "--hierarchy-ref-type", "3", "--hiedepth", "5000",
                 "--out-dir", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "--hiedepth" in err and "--simdepth" in err


def test_cli_rerun_is_byte_identical(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for directory, seed in zip(dirs, ("5", "5", "6")):
        assert main(["run", "--nc", "3", "--maxnref", "2", "--no", "40",
                     "--coldn", "8", "--hotn", "12", "--seed", seed,
                     "--out-dir", str(directory)]) == 0
    csv_a = (dirs[0] / "report.csv").read_bytes()
    csv_b = (dirs[1] / "report.csv").read_bytes()
    csv_c = (dirs[2] / "report.csv").read_bytes()
    assert csv_a == csv_b
    assert csv_a != csv_c
    assert (dirs[0] / "report.json").read_bytes() == (dirs[1] / "report.json").read_bytes()


def test_cli_compare_same_report(tmp_path, capsys):
    out_dir = tmp_path / "r"
    main(["run", *QUICK_RUN, "--out-dir", str(out_dir)])
    report = str(out_dir / "report.json")
    assert main(["compare", report, report, "--out",
                 str(tmp_path / "cmp.json")]) == 0
    assert "1.000" in capsys.readouterr().out
    assert (tmp_path / "cmp.json").exists()


def test_cli_compare_mismatched_seeds_requires_force(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    main(["run", *QUICK_RUN, "--out-dir", str(dir_a)])
    main(["run", "--nc", "3", "--maxnref", "2", "--no", "40", "--seed", "6",
          "--coldn", "8", "--hotn", "12", "--out-dir", str(dir_b)])
    report_a = str(dir_a / "report.json")
    report_b = str(dir_b / "report.json")
    assert main(["compare", report_a, report_b]) == 3
    assert main(["compare", report_a, report_b, "--force"]) == 0


def test_cli_env_seed_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OCB_SEED", "5")
    out_env = tmp_path / "env.ocb"
    assert main(["generate", "--nc", "3", "--maxnref", "2", "--no", "40",
                 "--out", str(out_env)]) == 0
    monkeypatch.delenv("OCB_SEED")
    out_flag = tmp_path / "flag.ocb"
    main(["generate", *SMALL, "--out", str(out_flag)])
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_report_recomputable_from_csv_export(tmp_path):
    from ocb.metrics import aggregate
    from ocb.workload import read_log_csv

    out_dir = tmp_path / "r"
    assert main(["run", "--nc", "3", "--maxnref", "2", "--no", "60",
                 "--seed", "3", "--coldn", "30", "--hotn", "30",
                 "--policy", "dstc", "--observation-period", "20",
                 "--buffer-pages", "4", "--out-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / "report.json").read_text())
    log = read_log_csv(
        str(out_dir / "report.csv"),
        reorg_indices=[e["after_index"] for e in payload["reorganizations"]],
        reorg_costs=[(e["reads"], e["writes"]) for e in payload["reorganizations"]])
    log.overhead_reads = payload["counters"]["overhead_reads"]
    log.overhead_writes = payload["counters"]["overhead_writes"]
    recomputed = aggregate(log, gain_window=payload["config"]["gain_window"],
                           fingerprint=payload["fingerprint"])
    assert recomputed.to_dict() == payload["metrics"]


def test_cli_dstc_run_emits_reorganizations(tmp_path):
    out_dir = tmp_path / "dstc"
    assert main(["run", "--nc", "3", "--maxnref", "2", "--no", "60",
                 "--seed", "3", "--coldn", "30", "--hotn", "30",
                 "--policy", "dstc", "--observation-period", "20",
                 "--buffer-pages", "4", "--out-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["reorganizations"]
    assert payload["counters"]["overhead_writes"] > 0
    assert payload["config"]["policy"] == "dstc"
