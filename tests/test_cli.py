import json
import math
import sys
from pathlib import Path

import pytest

import dyspec.cli as cli
from dyspec.cli import build_parser, csv_list, main
from dyspec.config import _SCHEMA, RunConfig
from dyspec.engine import ConfigError

LOG_FLOAT_MAX = math.log(sys.float_info.max)


def largest_factor(e):
    """The largest float c with c * e finite."""
    c = sys.float_info.max / e
    while c * e == math.inf:
        c = math.nextafter(c, 0.0)
    while math.nextafter(c, math.inf) * e < math.inf:
        c = math.nextafter(c, math.inf)
    return c


LARGEST_CONCENTRATION_AT_100 = largest_factor(math.exp(100.0))
MODELS = {"vocab_size": 32, "markov_order": 1, "target_seed": 5, "noise_sigma": 0.8}
COSTS = {"draft_cost": 1.0, "target_cost": 200.0}


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def config_path(tmp_path):
    return write_config(tmp_path, "config.json", {
        "models": MODELS,
        "generation": {"prefix_len": 12, "gen_len": 16, "budget": 8, "seed": 3},
        "costs": COSTS,
    })


# Configs holding only keys the command reads, so that a test expecting
# exit 2 cannot pass on a rejected key.
@pytest.fixture
def bench_config_path(tmp_path):
    return write_config(tmp_path, "bench.json", {
        "models": MODELS, "generation": {"prefix_len": 12, "gen_len": 16}, "costs": COSTS,
    })


@pytest.fixture
def hypothesis_config_path(tmp_path):
    return write_config(tmp_path, "hypothesis.json", {
        "models": MODELS, "generation": {"prefix_len": 12, "gen_len": 16, "budget": 8},
    })


class TestConfig:
    def test_missing_models_section_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"generation": {"budget": 4}}))
        with pytest.raises(ConfigError):
            RunConfig.load(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"models": {"vocab": 8}}))
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.load(path)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="sections"):
            RunConfig.from_dict({"models": {}, "extra": {}})

    def test_flag_overrides_beat_file(self, config_path):
        cfg = RunConfig.load(config_path, {"budget": 32, "target_temp": 0.0})
        assert cfg.generation.budget == 32
        assert cfg.generation.target_temp == 0.0
        assert cfg.models.target_temp == 0.0

    def test_output_format_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'format'"):
            RunConfig.from_dict({"models": {}, "output": {"format": "json"}})

    def test_format_flag_only_on_bench(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--format", "json", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_temperatures_only_under_generation(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'target_temp' in section 'models'"):
            RunConfig.from_dict({"models": {"target_temp": 0.0}})
        cfg = RunConfig.from_dict(
            {"models": {}, "generation": {"draft_temp": 0.3, "target_temp": 0.9}}
        )
        assert (cfg.models.draft_temp, cfg.models.target_temp) == (0.3, 0.9)
        path = tmp_path / "temps.json"
        path.write_text(json.dumps(
            {"models": {"target_temp": 0.0}, "generation": {"target_temp": 0.9}}
        ))
        assert main(["generate", "--config", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"models": {"vocab_size": 8.5}}, "vocab_size must be an integer, not 8.5"),
            ({"models": {}, "generation": {"threshold": "x"}},
             "threshold must be a real number, not 'x'"),
            ({"models": {}, "generation": {"budget": True}}, "budget must be an integer, not True"),
            ({"models": {}, "generation": {"branching": (2,)}},
             "key generation.branching has wrong type tuple"),
            ({"models": {}, "generation": {"branching": ["x"]}},
             "branching[0] must be an integer, not 'x'"),
            ({"models": {}, "generation": {"branching": [2.7, 2]}},
             "branching[0] must be an integer, not 2.7"),
            ({"models": {}, "generation": {"branching": [True, 2]}},
             "branching[0] must be an integer, not True"),
            ({"models": {}, "costs": {"target_cost": None}}, "key costs.target_cost has wrong type NoneType"),
            ({"models": {}, "output": {"dir": 3}}, "key output.dir has wrong type int"),
            ({"models": []}, "section 'models' must be an object"),
            ({"models": {}, "generation": None}, "section 'generation' must be an object"),
            ({"models": {"vocab": 8}},
             "(allowed: concentration, entropy_spread, markov_order, noise_sigma, target_seed, vocab_size)"),
        ],
    )
    def test_key_type_messages(self, raw, message):
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(raw)
        assert message in str(exc.value)

    def test_json_types_accepted(self):
        cfg = RunConfig.from_dict({
            "models": {"noise_sigma": 1, "vocab_size": 8},
            "generation": {"structure": "static_tree", "branching": [2, 2], "budget": 8,
                           "draft_temp": 1},
            "costs": {"target_cost": 100},
            "output": {"dir": "x"},
        })
        assert cfg.generation.branching == (2, 2)
        assert cfg.models.noise_sigma == 1

    def test_defaults_fill_missing_sections(self):
        cfg = RunConfig.from_dict({"models": {}})
        assert cfg.generation.budget == 64
        assert cfg.costs.target_cost == 2000.0

    @pytest.mark.parametrize("reads", [
        None, cli.BENCH_READS, cli.HYPOTHESIS_READS, *cli.MASK_READS.values(),
    ])
    def test_no_path_loads_the_empty_config(self, reads):
        overrides = {"budget": 8, "target_temp": 0.0}
        expected = RunConfig.from_dict({"models": {}}, overrides, reads, "cmd")
        assert RunConfig.load(None, overrides, reads, "cmd") == expected


class TestFlagSurface:
    """Every flag a command accepts takes effect; the rest exit 2 before any run."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--seed", "5"],
            ["hypothesis", "--seed", "5"],
            ["mask", "--seed", "5"],
            ["oracle", "--suite", "optimality", "--config", "x.json"],
        ],
    )
    def test_removed_flags_rejected(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--seeds", "0"],
            ["bench", "--seeds", "-1"],
            ["hypothesis", "--bins", "0"],
            ["mask", "--seeds", "0"],
            ["mask", "--block", "0"],
            ["oracle", "--suite", "optimality", "--trials", "0"],
            ["oracle", "--suite", "optimality", "--instances", "0"],
            ["hypothesis", "--min-events", "0"],
            ["hypothesis", "--max-runs", "0"],
        ],
    )
    def test_counts_must_be_positive(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be >= 1" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--structures", "chain,dynamic,chain"], "--structures repeats chain"),
            (["--budgets", "4,8,4"], "--budgets repeats 4"),
            (["--structures", "dynamic", "--thresholds", "0.1,0.2,0.10"],
             "--thresholds repeats 0.1"),
            (["--temps", "0.6,0.60"], "--temps repeats 0.6"),
        ],
    )
    def test_bench_sweep_values_must_not_repeat(self, flags, message, tmp_path, capsys):
        # A repeated value would run one cell twice and write it twice.
        assert main(["bench", "--out", str(tmp_path), "--seeds", "1"] + flags) == 2
        assert f"bench: {message}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_bench_branching_may_repeat(self, bench_config_path, tmp_path):
        # --branching is one static-tree shape, not a sweep: 2,2,2 is valid.
        code = main(["bench", "--config", str(bench_config_path), "--out", str(tmp_path),
                     "--structures", "static_tree", "--budgets", "14", "--branching", "2,2,2",
                     "--temps", "0.6", "--seeds", "1"])
        assert code == 0
        assert len((tmp_path / "bench.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--budgets", "x"],
            ["bench", "--thresholds", "0.1,q"],
            ["bench", "--temps", "hot"],
            ["bench", "--branching", "2,a"],
            ["mask", "--sizes", "4,y"],
            ["mask", "--prefixes", "1.5"],
            ["generate", "--structure", "static_tree", "--branching", "2,x"],
        ],
    )
    def test_comma_lists_must_parse(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid comma-separated" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_comma_list_skips_empty_elements(self):
        assert csv_list(int)("4,,2,") == [4, 2]
        assert csv_list(float)("") == []
        assert build_parser().parse_args(["bench", "--temps", "0.6,"]).temps == [0.6]

    def test_bench_thresholds_default_to_no_points(self):
        assert build_parser().parse_args(["bench"]).thresholds == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", "3"], "k applies only"),
            (["--size-cap", "5"], "size_cap applies only"),
            (["--branching", "2,2"], "branching applies only"),
        ],
    )
    def test_generate_shape_flags_must_match_structure(
        self, flags, message, config_path, tmp_path, capsys
    ):
        out = tmp_path / "out"
        argv = ["generate", "--config", str(config_path), "--budget", "16"]
        assert main(argv + flags + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_generate_has_a_flag_per_generation_field(self):
        import dataclasses

        from dyspec.engine import GenConfig

        args = build_parser().parse_args(["generate"])
        for f in dataclasses.fields(GenConfig):
            assert getattr(args, f.name) is None, f.name

    def test_description_lists_each_command_flags(self):
        parser = build_parser()
        assert parser.description == cli.__doc__
        listed, name = {}, None
        for line in cli.__doc__.splitlines():
            if line.startswith("  ") and not line.startswith("   "):
                name, *flags = line.split()
                listed[name] = flags
            elif line.strip().startswith("config:"):
                name = None
            elif name and line.startswith("   "):
                listed[name] += line.split()
        commands = parser._subparsers._group_actions[0].choices
        assert set(listed) == set(commands)
        for name, sub in commands.items():
            flags = [opt for action in sub._actions for opt in action.option_strings
                     if opt not in ("-h", "--help")]
            assert listed[name] == flags, name

    def test_description_states_the_oracle_count_defaults(self):
        text = " ".join(cli.__doc__.split())
        for flag, default in cli._ORACLE_COUNTS.items():
            assert f"--{flag} (default {default})" in text, flag

    def test_bench_help_states_the_shape_defaults(self):
        bench = build_parser()._subparsers._group_actions[0].choices["bench"]
        helps = {action.dest: action.help for action in bench._actions}
        assert helps["k"].endswith("(default 4)")
        assert helps["branching"].endswith("(default 4,2,2,2)")
        assert helps["size_cap"].endswith("(default 768)")


# One valid value per schema key.  Keys that need a partner to make a valid
# generation config bring it along; every command reading such a key reads
# its partner too.
KEY_SAMPLES = {
    "models.vocab_size": 8, "models.markov_order": 1, "models.target_seed": 4,
    "models.noise_sigma": 0.3, "models.concentration": 0.5, "models.entropy_spread": 1.0,
    "generation.prefix_len": 3, "generation.gen_len": 3, "generation.budget": 4,
    "generation.threshold": 0.5, "generation.size_cap": 4, "generation.draft_temp": 0.3,
    "generation.target_temp": 0.3, "generation.seed": 2, "generation.structure": "chain",
    "generation.k": 2, "generation.branching": [2],
    "costs.draft_cost": 2.0, "costs.target_cost": 100.0, "costs.per_node_overhead": 0.5,
    "output.dir": None,  # a path under tmp_path
}
PARTNERS = {
    "generation.threshold": {"size_cap": 4},
    "generation.size_cap": {"threshold": 0.5},
    "generation.k": {"structure": "k_chains"},
    "generation.branching": {"structure": "static_tree"},
}
MODEL_KEYS = {key for key in KEY_SAMPLES if key.startswith("models.")}
COST_KEYS = {key for key in KEY_SAMPLES if key.startswith("costs.")}
# command label -> (argv of a small run, the keys it reads)
COMMAND_READS = {
    "generate": (["generate"], set(KEY_SAMPLES)),
    "bench": (
        ["bench", "--structures", "chain", "--budgets", "2", "--temps", "0", "--seeds", "1"],
        MODEL_KEYS | COST_KEYS | {"generation.prefix_len", "generation.gen_len",
                                  "generation.draft_temp", "output.dir"},
    ),
    "hypothesis": (
        ["hypothesis", "--min-events", "1", "--max-runs", "1"],
        set(KEY_SAMPLES) - COST_KEYS - {"generation.seed"},
    ),
    "mask --generator constructed": (
        ["mask", "--generator", "constructed", "--sizes", "4", "--seeds", "1"],
        MODEL_KEYS | {"generation.draft_temp", "output.dir"},
    ),
    "mask --generator random": (
        ["mask", "--generator", "random", "--sizes", "4", "--seeds", "1"], {"output.dir"},
    ),
    "mask --generator chain": (
        ["mask", "--generator", "chain", "--sizes", "4", "--seeds", "1"], {"output.dir"},
    ),
}


class TestOutputDirectory:
    """An output directory that cannot be made exits 2 before any run."""

    @pytest.mark.parametrize("argv", [
        ["generate", "--gen-len", "4", "--prefix-len", "4", "--budget", "4"],
        ["bench", "--structures", "chain", "--budgets", "4", "--temps", "0.6", "--seeds", "1"],
        ["oracle", "--suite", "optimality", "--instances", "2"],
        ["mask", "--sizes", "8", "--seeds", "1"],
        ["hypothesis", "--min-events", "1", "--max-runs", "1"],
    ])
    @pytest.mark.parametrize("under", [False, True])
    def test_out_naming_a_file_exits_2(self, argv, under, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "sub" if under else taken
        assert main(argv + ["--out", str(out)]) == 2
        assert f"{argv[0]}: cannot create output directory {out}" in capsys.readouterr().err
        assert taken.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [taken]

    def test_config_output_dir_naming_a_file_exits_2(self, config_path, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        cfg = json.loads(config_path.read_text())
        cfg["output"] = {"dir": str(taken)}
        assert main(["generate", "--config", str(write_config(tmp_path, "o.json", cfg))]) == 2
        assert f"generate: cannot create output directory {taken}" in capsys.readouterr().err
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("suite", ["unbiasedness", "optimality", "expectation",
                                       "threshold-equivalence"])
    def test_oracle_runs_no_suite(self, suite, tmp_path, capsys, monkeypatch):
        def fail(**kwargs):
            raise AssertionError("a suite ran")

        for name in ("suite_unbiasedness_exact", "suite_unbiasedness_mc", "suite_optimality",
                     "suite_expectation", "suite_threshold_equivalence"):
            monkeypatch.setattr(cli.oracle, name, fail)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert main(["oracle", "--suite", suite, "--out", str(taken)]) == 2
        assert "oracle: cannot create output directory" in capsys.readouterr().err


class TestConfigKeysPerCommand:
    """Each command accepts exactly the config keys it reads."""

    def test_samples_cover_the_schema(self):
        schema = {f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys}
        assert set(KEY_SAMPLES) == schema

    def test_read_counts(self):
        counts = {label: len(reads) for label, (_, reads) in COMMAND_READS.items()}
        assert counts == {
            "generate": 21, "bench": 13, "hypothesis": 17, "mask --generator constructed": 8,
            "mask --generator random": 1, "mask --generator chain": 1,
        }

    @pytest.mark.parametrize("key", sorted(KEY_SAMPLES))
    @pytest.mark.parametrize("label", sorted(COMMAND_READS))
    def test_key_accepted_only_where_read(self, label, key, tmp_path, capsys):
        argv, reads = COMMAND_READS[label]
        section, name = key.split(".")
        # Small runs: shorten prompt and output where the command reads them.
        cfg = {"models": {}}
        if "generation.gen_len" in reads:
            cfg["generation"] = {"prefix_len": 3, "gen_len": 3}
        value = KEY_SAMPLES[key] if key != "output.dir" else str(tmp_path / "from-config")
        cfg.setdefault(section, {})[name] = value
        if key in reads:
            cfg[section].update(PARTNERS.get(key, {}))
        path = write_config(tmp_path, "cfg.json", cfg)
        out = tmp_path / "out"
        code = main(argv + ["--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        if key in reads:
            assert code == 0, err
        else:
            assert code == 2
            assert f"{label} does not read config key {key}" in err
            assert not out.exists()


class TestGenerateCommand:
    def test_produces_metrics_files(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["generate", "--config", str(config_path), "--out", str(out)]) == 0
        metrics = json.loads((out / "run_metrics.json").read_text())
        assert metrics["accepted_includes_bonus"] is True
        assert len(metrics["generated_tokens"]) == 16
        lines = (out / "steps.csv").read_text().splitlines()
        assert lines[0] == "step,tree_size,tree_depth,accepted,modeled_latency"
        assert len(lines) == metrics["num_steps"] + 1

    def test_negative_seed_accepted(self, config_path, tmp_path):
        out = tmp_path / "out"
        argv = ["generate", "--config", str(config_path), "--seed", "-1", "--out", str(out)]
        assert main(argv) == 0
        assert (out / "run_metrics.json").exists()

    @pytest.mark.parametrize("seed, code", [
        (2**63 - 1, 0), (-2**63, 0), (2**63, 2), (-2**63 - 1, 2),
    ])
    def test_seed_must_fit_int64(self, seed, code, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["generate", "--gen-len", "4", "--prefix-len", "4", "--budget", "4"]
        assert main(argv + ["--seed", str(seed), "--out", str(out)]) == code
        if code == 2:
            assert "config error: seed must be in [-2**63, 2**63)" in capsys.readouterr().err
            assert not out.exists()

    # Each bound on a model parameter: the largest accepted value runs, and
    # the next float above it exits 2 naming the key.
    @pytest.mark.parametrize("models, message", [
        ({"target_seed": 2**63 - 1}, None),
        ({"target_seed": 2**63}, "target_seed must be in [-2**63, 2**63)"),
        ({"target_seed": -2**63 - 1}, "target_seed must be in [-2**63, 2**63)"),
        ({"entropy_spread": LOG_FLOAT_MAX}, None),
        ({"entropy_spread": math.nextafter(LOG_FLOAT_MAX, math.inf)},
         "entropy_spread must be <= "),
        ({"entropy_spread": 10000.0}, "entropy_spread must be <= "),
        ({"entropy_spread": 100.0, "concentration": LARGEST_CONCENTRATION_AT_100}, None),
        ({"entropy_spread": 100.0,
          "concentration": math.nextafter(LARGEST_CONCENTRATION_AT_100, math.inf)},
         "concentration * exp(entropy_spread) must be finite"),
        ({"entropy_spread": 100.0, "concentration": 1e300},
         "concentration * exp(entropy_spread) must be finite"),
        ({"noise_sigma": sys.float_info.max / 16}, None),
        ({"noise_sigma": math.nextafter(sys.float_info.max / 16, math.inf)},
         "noise_sigma must be <= "),
        ({"noise_sigma": 1e308}, "noise_sigma must be <= "),
    ])
    def test_model_parameter_bounds(self, models, message, config_path, tmp_path, capsys):
        cfg = json.loads(config_path.read_text())
        cfg["models"].update(models)
        out = tmp_path / "out"
        argv = ["generate", "--config", str(write_config(tmp_path, "m.json", cfg))]
        code = main(argv + ["--gen-len", "8", "--out", str(out)])
        if message is None:
            assert code == 0
        else:
            assert code == 2
            assert f"config error: {message}" in capsys.readouterr().err
            assert not out.exists()

    def test_both_paper_temperatures_accepted(self, config_path, tmp_path):
        for temp in ("0", "0.6"):
            out = tmp_path / f"t{temp}"
            code = main(
                ["generate", "--config", str(config_path), "--out", str(out),
                 "--target-temp", temp]
            )
            assert code == 0

    def test_missing_model_section_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"generation": {"budget": 4}}))
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_static_tree_over_budget_exits_2(self, config_path, tmp_path, capsys):
        code = main(
            ["generate", "--config", str(config_path), "--out", str(tmp_path),
             "--structure", "static_tree", "--branching", "4,2,2,2", "--budget", "8"]
        )
        assert code == 2
        assert "exceeding budget 8" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--branching=-1", "--budget", "8"],
                                       ["--branching", "2,0,3", "--budget", "16"]])
    def test_static_tree_branching_below_one_exits_2(self, flags, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["generate", "--structure", "static_tree", "--gen-len", "4", "--prefix-len", "4"]
        assert main(argv + flags + ["--out", str(out)]) == 2
        assert "branching entries must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("flag", ["--target-temp", "--draft-temp"])
    def test_bad_temperature_exits_2(self, config_path, tmp_path, capsys, flag, value):
        code = main(
            ["generate", "--config", str(config_path), "--out", str(tmp_path), flag, value]
        )
        assert code == 2
        assert "config error: temperatures must be >= 0 and finite" in capsys.readouterr().err
        assert not (tmp_path / "run_metrics.json").exists()

    # json.dumps writes NaN and Infinity, which json.loads reads back.
    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("generation", "target_temp", math.nan, "temperatures must be >= 0 and finite"),
            ("generation", "draft_temp", math.inf, "temperatures must be >= 0 and finite"),
            ("costs", "draft_cost", math.nan, "cost parameters must be non-negative and finite"),
            ("costs", "target_cost", math.inf, "cost parameters must be non-negative and finite"),
            ("costs", "per_node_overhead", math.nan,
             "cost parameters must be non-negative and finite"),
            ("models", "noise_sigma", math.nan, "noise_sigma must be >= 0 and finite"),
            ("models", "noise_sigma", math.inf, "noise_sigma must be >= 0 and finite"),
            ("models", "concentration", math.inf, "concentration must be > 0 and finite"),
            ("models", "concentration", math.nan, "concentration must be > 0 and finite"),
            ("models", "entropy_spread", math.inf, "entropy_spread must be >= 0 and finite"),
            ("models", "entropy_spread", math.nan, "entropy_spread must be >= 0 and finite"),
        ],
    )
    def test_non_finite_config_value_exits_2(
        self, section, key, value, message, config_path, tmp_path, capsys
    ):
        cfg = json.loads(config_path.read_text())
        cfg[section][key] = value
        out = tmp_path / "out"
        argv = ["generate", "--config", str(write_config(tmp_path, "bad.json", cfg))]
        assert main(argv + ["--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    # A zero step cost was reported as zero throughput.
    @pytest.mark.parametrize("command", ["generate", "bench"])
    def test_zero_step_cost_exits_2(self, command, config_path, bench_config_path, tmp_path,
                                    capsys):
        cfg = json.loads((config_path if command == "generate" else bench_config_path).read_text())
        cfg["costs"] = {"draft_cost": 0, "target_cost": 0.0, "per_node_overhead": 1.0}
        out = tmp_path / "out"
        argv = [command, "--config", str(write_config(tmp_path, "free.json", cfg))]
        assert main(argv + ["--out", str(out)]) == 2
        assert "config error: draft_cost and target_cost must not both be 0" in (
            capsys.readouterr().err)
        assert not out.exists()

    # Each cost is finite, but tokens over the summed step costs is not: on
    # the golden configs tiny costs wrote an Infinity throughput (not JSON),
    # and huge ones would write a zero.
    @pytest.mark.parametrize("command, config", [("generate", "config.json"),
                                                 ("bench", "config-bench.json")])
    @pytest.mark.parametrize("costs", [
        {"draft_cost": 5e-324, "target_cost": 0},
        {"draft_cost": 0, "target_cost": 2.3e-308},
        {"draft_cost": 1e308, "target_cost": 1e308},
    ])
    def test_costs_out_of_float_range_exit_2(self, command, config, costs, tmp_path, capsys):
        cfg = json.loads((Path(__file__).parent / "golden" / config).read_text())
        cfg["costs"] = costs
        out = tmp_path / "out"
        argv = [command, "--config", str(write_config(tmp_path, "tiny.json", cfg)),
                "--out", str(out)]
        if command == "bench":
            argv += ["--structures", "dynamic", "--budgets", "64", "--temps", "0.6", "--seeds", "1"]
        assert main(argv) == 2
        assert "config error: costs out of float range: modeled throughput" in (
            capsys.readouterr().err)
        assert list(out.iterdir()) == []

    def test_bench_seed_means_out_of_float_range_exit_2(self, bench_config_path, tmp_path,
                                                         capsys):
        # Each seed's throughput is finite, about 1e308, but their sum is not.
        cfg = json.loads(bench_config_path.read_text())
        cfg["costs"] = {"draft_cost": 0, "target_cost": 3e-308}
        out = tmp_path / "out"
        argv = ["bench", "--config", str(write_config(tmp_path, "tiny.json", cfg)),
                "--out", str(out), "--structures", "dynamic", "--budgets", "8", "--temps", "0.6"]
        assert main(argv + ["--seeds", "1"]) == 0
        assert main(argv + ["--seeds", "2"]) == 2
        assert "config error: costs out of float range: seed means" in capsys.readouterr().err

    def test_negative_prefix_len_exits_2(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["generate", "--config", str(config_path), "--prefix-len", "-3"]
        assert main(argv + ["--out", str(out)]) == 2
        assert "config error: prefix_len must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_config_path_runs_on_defaults(self, tmp_path):
        flags = ["--gen-len", "4", "--prefix-len", "4", "--budget", "4"]
        assert main(["generate", "--config", "", "--out", str(tmp_path / "a"), *flags]) == 0
        assert main(["generate", "--out", str(tmp_path / "b"), *flags]) == 0
        for name in ("run_metrics.json", "steps.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", str(config_path), "--out", str(out_a)])
        main(["generate", "--config", str(config_path), "--out", str(out_b)])
        for name in ("run_metrics.json", "steps.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestBenchCommand:
    def test_two_structures_two_temps(self, bench_config_path, tmp_path):
        out = tmp_path / "bench"
        code = main(
            ["bench", "--config", str(bench_config_path), "--out", str(out),
             "--structures", "dynamic,chain", "--budgets", "8",
             "--temps", "0.0,0.6", "--seeds", "2"]
        )
        assert code == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert len(lines) == 1 + 4  # header + 2 structures x 2 temps

    def test_cells_share_one_model_pair(self, bench_config_path, tmp_path, monkeypatch):
        import dyspec.cli as cli

        made = []
        real = cli.make_model_pair

        def counting(spec):
            made.append(spec)
            return real(spec)

        prompts = []
        real_prompt = cli.make_prompt

        def counting_prompt(model, length, seed):
            prompts.append(seed)
            return real_prompt(model, length, seed)

        monkeypatch.setattr(cli, "make_model_pair", counting)
        monkeypatch.setattr(cli, "make_prompt", counting_prompt)
        args = ["bench", "--config", str(bench_config_path), "--structures", "dynamic,chain",
                "--budgets", "8", "--temps", "0.0,0.6", "--seeds", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert len(made) == 1  # 4 cells x 3 seeds, one spec
        assert prompts == [0, 1, 2]  # and one prompt per seed
        # The pair is not kept once the command returns: a second run makes its own.
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert len(made) == 2
        assert (tmp_path / "a" / "bench.csv").read_bytes() == (tmp_path / "b" / "bench.csv").read_bytes()

    @pytest.mark.parametrize("budgets, thresholds", [("8,16,64", "0.05,0.2,1e-05"),
                                                     ("64,8,16", "0.2,1e-05,0.05")])
    def test_rows_sort_budgets_and_thresholds_as_numbers(
        self, budgets, thresholds, bench_config_path, tmp_path
    ):
        out = tmp_path / "out"
        assert main(["bench", "--config", str(bench_config_path), "--out", str(out),
                     "--structures", "dynamic", "--budgets", budgets, "--thresholds", thresholds,
                     "--size-cap", "24", "--temps", "0.6", "--seeds", "1",
                     "--format", "json"]) == 0
        rows = json.loads((out / "bench.json").read_text())
        assert [(r["mode"], r["budget"], r["threshold"]) for r in rows] == [
            ("budget", 8, ""), ("budget", 16, ""), ("budget", 64, ""),
            ("threshold", "", 1e-05), ("threshold", "", 0.05), ("threshold", "", 0.2),
        ]

    def test_rows_follow_structure_point_then_temp(self, bench_config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["bench", "--config", str(bench_config_path), "--out", str(out),
                     "--structures", "static_tree,chain,dynamic", "--budgets", "16,14",
                     "--branching", "2,2,2", "--temps", "0.6,0.0", "--seeds", "1",
                     "--format", "json"]) == 0
        rows = json.loads((out / "bench.json").read_text())
        assert [(r["structure"], r["budget"], r["target_temp"]) for r in rows] == [
            (structure, budget, temp) for structure in ("chain", "dynamic", "static_tree")
            for budget in (14, 16) for temp in (0.0, 0.6)
        ]

    @pytest.mark.parametrize("flags, shape", [
        (["--structures", "dynamic", "--budgets", "", "--thresholds", "0.1", "--size-cap", "24"],
         {"structure": "dynamic", "budget": None, "threshold": 0.1, "size_cap": 24}),
        (["--structures", "k_chains", "--budgets", "12"],  # k at its default, 4
         {"structure": "k_chains", "budget": 12, "k": 4}),
        (["--structures", "dynamic", "--budgets", "", "--thresholds", "0.1"],  # size cap 768
         {"structure": "dynamic", "budget": None, "threshold": 0.1, "size_cap": 768}),
        (["--structures", "dynamic", "--budgets", "10"],
         {"structure": "dynamic", "budget": 10}),
        (["--structures", "chain", "--budgets", "6"],
         {"structure": "chain", "budget": 6}),
        (["--structures", "static_tree", "--budgets", "60"],  # branching 4,2,2,2
         {"structure": "static_tree", "budget": 60, "branching": (4, 2, 2, 2)}),
    ])
    def test_row_equals_its_recomputation(self, flags, shape, bench_config_path, tmp_path):
        import dataclasses

        from dyspec.engine import generate, make_prompt
        from dyspec.lm import make_model_pair

        out = tmp_path / "out"
        assert main(["bench", "--config", str(bench_config_path), "--out", str(out),
                     "--temps", "0.6", "--seeds", "2", "--format", "json"] + flags) == 0
        [row] = json.loads((out / "bench.json").read_text())

        cfg = RunConfig.load(str(bench_config_path), {}, cli.BENCH_READS, "bench")
        target, draft = make_model_pair(cfg.models)
        runs = []
        for seed in range(2):
            gen = dataclasses.replace(cfg.generation, target_temp=0.6, seed=seed, **shape)
            prompt = make_prompt(target, gen.prefix_len, seed)
            runs.append(generate(target, draft, prompt, gen, cfg.costs)[1])
        assert row["mean_accepted"] == sum(m.mean_accepted for m in runs) / 2
        assert row["mean_tree_size"] == sum(m.mean_tree_size for m in runs) / 2
        assert row["latency_per_token"] == sum(
            sum(s.modeled_latency * s.accepted for s in m.steps) / sum(s.accepted for s in m.steps)
            for m in runs
        ) / 2
        assert row["tokens_per_modeled_sec"] == sum(m.tokens_per_modeled_second for m in runs) / 2

    def test_threshold_mode_reports_realized_tree_size(self, bench_config_path, tmp_path):
        out = tmp_path / "bench-thr"
        code = main(
            ["bench", "--config", str(bench_config_path), "--out", str(out),
             "--structures", "dynamic", "--budgets", "", "--thresholds", "0.05",
             "--size-cap", "24", "--temps", "0.6", "--seeds", "2"]
        )
        assert code == 0
        header, row = (out / "bench.csv").read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["mode"] == "threshold"
        assert float(cols["mean_tree_size"]) <= 24.0

    def test_static_tree_over_budget_exits_2(self, bench_config_path, tmp_path, capsys):
        # default branching 4,2,2,2 makes a 60-node tree
        code = main(
            ["bench", "--config", str(bench_config_path), "--out", str(tmp_path),
             "--budgets", "8", "--seeds", "1"]
        )
        assert code == 2
        assert "yields 60 nodes, exceeding budget 8" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("flags", [["--branching=-1", "--budgets", "8"],
                                       ["--branching", "2,0,3", "--budgets", "16"]])
    def test_static_tree_branching_below_one_exits_2(
        self, flags, bench_config_path, tmp_path, capsys
    ):
        out = tmp_path / "out"
        code = main(["bench", "--config", str(bench_config_path), "--out", str(out),
                     "--structures", "static_tree", "--seeds", "1"] + flags)
        assert code == 2
        assert "branching entries must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_temperature_exits_2(self, value, bench_config_path, tmp_path, capsys):
        code = main(
            ["bench", "--config", str(bench_config_path), "--out", str(tmp_path),
             "--structures", "chain", "--budgets", "8", "--temps", f"0.6,{value}", "--seeds", "1"]
        )
        assert code == 2
        assert "temperatures must be >= 0 and finite" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("command", ["bench", "hypothesis"])
    def test_negative_prefix_len_exits_2(self, command, bench_config_path,
                                         hypothesis_config_path, tmp_path, capsys):
        path = bench_config_path if command == "bench" else hypothesis_config_path
        cfg = json.loads(path.read_text())
        cfg["generation"]["prefix_len"] = -2
        out = tmp_path / "out"
        code = main([command, "--config", str(write_config(tmp_path, "neg.json", cfg)),
                     "--out", str(out)])
        assert code == 2
        assert "config error: prefix_len must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_sweep_is_usage_error(self, bench_config_path, tmp_path, capsys):
        code = main(
            ["bench", "--config", str(bench_config_path), "--out", str(tmp_path),
             "--structures", "", "--budgets", "8", "--temps", "0.6"]
        )
        assert code == 2
        assert "sweep needs at least one structure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--structures", "chain", "--thresholds", "0.1"],
             "--thresholds needs the dynamic structure"),
            (["--structures", "chain", "--k", "2"], "--k needs the k_chains structure"),
            (["--structures", "k_chains", "--branching", "2"],
             "--branching needs the static_tree structure"),
            (["--structures", "dynamic", "--size-cap", "24"], "--size-cap needs --thresholds"),
            (["--structures", "dynamic,chain", "--budgets", "", "--thresholds", "0.1"],
             "structures other than dynamic need --budgets"),
        ],
    )
    def test_sweep_flag_reaching_no_cell_exits_2(
        self, flags, message, bench_config_path, tmp_path, capsys
    ):
        out = tmp_path / "out"
        code = main(["bench", "--config", str(bench_config_path), "--out", str(out),
                     "--seeds", "1"] + flags)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_seed_is_rejected(self, bench_config_path, tmp_path, capsys):
        # bench runs seeds 0..--seeds-1, so generation.seed had no effect.
        cfg = json.loads(bench_config_path.read_text())
        cfg["generation"]["seed"] = 5
        path = write_config(tmp_path, "seeded.json", cfg)
        out = tmp_path / "out"
        assert main(["bench", "--config", str(path), "--out", str(out)]) == 2
        assert "bench does not read config key generation.seed" in capsys.readouterr().err
        assert not out.exists()


class TestOracleCommand:
    def test_optimality_suite_passes(self, tmp_path):
        code = main(
            ["oracle", "--suite", "optimality", "--instances", "100",
             "--out", str(tmp_path)]
        )
        assert code == 0
        reports = json.loads((tmp_path / "oracle_report.json").read_text())
        assert reports[0]["mismatches"] == 0

    def test_threshold_equivalence_suite(self, tmp_path):
        code = main(
            ["oracle", "--suite", "threshold-equivalence", "--instances", "20",
             "--out", str(tmp_path)]
        )
        assert code == 0

    def test_unknown_suite_exits_2(self, tmp_path):
        assert main(["oracle", "--suite", "bogus", "--out", str(tmp_path)]) == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["oracle", "--suite", "optimality", "--seed", "-1", "--out", str(out)]) == 2
        assert "oracle: --seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_must_fit_int64(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["oracle", "--suite", "optimality", "--instances", "2"]
        assert main(argv + ["--seed", str(2**63), "--out", str(out)]) == 2
        assert "oracle: --seed must be < 2**63" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv + ["--seed", str(2**63 - 1), "--out", str(out)]) == 0

    @pytest.mark.parametrize("suite", ["optimality", "threshold-equivalence"])
    def test_trials_rejected_where_unread(self, suite, tmp_path, capsys):
        argv = ["oracle", "--suite", suite, "--instances", "3", "--trials", "7"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert f"oracle: --trials does not apply to suite {suite}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags, counts",
        [
            ([], {"configs": 1000, "trials": 20000}),
            (["--instances", "1001", "--trials", "1"], {"configs": 1001, "trials": 1}),
        ],
    )
    def test_expectation_counts_reach_the_suite(self, flags, counts, tmp_path, monkeypatch):
        calls = []

        def recording(**kwargs):
            calls.append(kwargs)
            return {"suite": "expectation", "pass": True}

        monkeypatch.setattr(cli.oracle, "suite_expectation", recording)
        argv = ["oracle", "--suite", "expectation", "--seed", "4", "--out", str(tmp_path)]
        assert main(argv + flags) == 0
        assert calls == [dict(counts, seed=4)]


class TestMaskCommand:
    def test_three_order_rows(self, tmp_path):
        code = main(
            ["mask", "--sizes", "256", "--block", "32", "--seeds", "3",
             "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "mask_counts.csv").read_text().splitlines()
        assert lines[0] == "n,prefix,block,order,count_mean,count_std"
        assert len(lines) == 1 + 3

    def test_chain_counts_identical_across_orders(self, tmp_path):
        code = main(
            ["mask", "--sizes", "128", "--generator", "chain", "--seeds", "2",
             "--out", str(tmp_path), "--per-seed"]
        )
        assert code == 0
        rows = (tmp_path / "mask_counts.csv").read_text().splitlines()[1:]
        counts = {row.split(",")[3]: row.split(",")[4] for row in rows}
        assert len(set(counts.values())) == 1
        per_seed = (tmp_path / "mask_counts_per_seed.csv").read_text().splitlines()
        assert per_seed[0] == "n,prefix,block,order,count"

    def test_grid_dump(self, tmp_path):
        code = main(
            ["mask", "--sizes", "16", "--block", "4", "--seeds", "1",
             "--orders", "dfs", "--dump-grids", "--out", str(tmp_path)]
        )
        assert code == 0
        grid = (tmp_path / "mask_n16_p0_dfs.pbm").read_text()
        assert grid.startswith("P1\n16 16\n")

    def test_bad_size_is_usage_error(self, tmp_path):
        assert main(["mask", "--sizes", "0", "--out", str(tmp_path)]) == 2

    def test_negative_prefix_is_usage_error(self, tmp_path, capsys):
        argv = ["mask", "--prefixes", "-3", "--sizes", "8", "--seeds", "1", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "prefixes must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--sizes", "", "sweep needs at least one size, prefix, and order"),
            ("--prefixes", ",", "sweep needs at least one size, prefix, and order"),
            ("--orders", "", "sweep needs at least one size, prefix, and order"),
            ("--sizes", "8,16,8", "--sizes repeats 8"),
            ("--prefixes", "0,0", "--prefixes repeats 0"),
            ("--orders", "dfs,dfs", "--orders repeats dfs"),
        ],
    )
    def test_empty_or_repeated_sweep_is_usage_error(self, tmp_path, capsys, flag, value, message):
        argv = ["mask", "--sizes", "8", "--seeds", "1", "--out", str(tmp_path / "out")]
        assert main(argv + [flag, value]) == 2
        assert f"mask: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_one_tree_per_size_and_seed(self, tmp_path, monkeypatch):
        import dyspec.cli as cli

        built = []
        real = cli._mask_tree

        def counting(generator, n, seed, cfg):
            built.append((n, seed))
            return real(generator, n, seed, cfg)

        monkeypatch.setattr(cli, "_mask_tree", counting)
        code = main(
            ["mask", "--sizes", "16,24", "--prefixes", "0,5", "--seeds", "3",
             "--orders", "original,dfs,hpd", "--block", "4", "--out", str(tmp_path)]
        )
        assert code == 0
        assert len(built) == 2 * 3 and len(set(built)) == 2 * 3
        rows = (tmp_path / "mask_counts.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 2 * 3

    def test_constructed_trees_share_one_model_pair(self, tmp_path, monkeypatch):
        import dyspec.cli as cli

        made = []
        real = cli.make_model_pair

        def counting(spec):
            made.append(spec)
            return real(spec)

        monkeypatch.setattr(cli, "make_model_pair", counting)
        code = main(
            ["mask", "--generator", "constructed", "--sizes", "64,128", "--seeds", "4",
             "--orders", "original", "--out", str(tmp_path)]
        )
        assert code == 0
        assert len(made) == 1

    def test_random_trees_need_no_models_section(self, tmp_path):
        out = tmp_path / "from-config"
        path = write_config(tmp_path, "cfg.json", {"output": {"dir": str(out)}})
        assert main(["mask", "--config", str(path), "--sizes", "8", "--seeds", "1"]) == 0
        assert (out / "mask_counts.csv").exists()

    def test_unknown_order_exits_before_any_tree(self, tmp_path, monkeypatch, capsys):
        import dyspec.cli as cli

        def fail(*args):
            raise AssertionError("a tree was built")

        monkeypatch.setattr(cli, "_mask_tree", fail)
        argv = ["mask", "--orders", "dfs,bogus", "--sizes", "8", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "unknown order 'bogus'" in capsys.readouterr().err


class TestHypothesisCommand:
    def test_bins_csv_shape(self, hypothesis_config_path, tmp_path):
        code = main(
            ["hypothesis", "--config", str(hypothesis_config_path), "--min-events", "200",
             "--bins", "10", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "acceptance_bins.csv").read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,acc_rate,count"
        assert len(lines) == 11
        stats = json.loads((tmp_path / "hypothesis_stats.json").read_text())
        assert stats["events"] >= 200

    def test_threshold_config_runs_threshold_builder(self, tmp_path, monkeypatch):
        import dyspec.engine as engine

        sizes = []
        original = engine.build_tree_threshold

        def recording(*args, **kwargs):
            tree = original(*args, **kwargs)
            sizes.append(len(tree))
            return tree

        monkeypatch.setattr(engine, "build_tree_threshold", recording)
        cfg = {
            "models": {"vocab_size": 16, "markov_order": 1},
            "generation": {"prefix_len": 8, "gen_len": 12, "threshold": 0.05, "size_cap": 5},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(
            ["hypothesis", "--config", str(path), "--min-events", "50",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert sizes and max(sizes) <= 5

    def test_identical_models_rate_one(self, tmp_path):
        cfg = {
            "models": {"vocab_size": 16, "markov_order": 1, "noise_sigma": 0.0},
            "generation": {"prefix_len": 8, "gen_len": 12, "budget": 6},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(
            ["hypothesis", "--config", str(path), "--min-events", "100",
             "--out", str(tmp_path)]
        )
        assert code == 0
        rows = (tmp_path / "acceptance_bins.csv").read_text().splitlines()[1:]
        for row in rows:
            _, _, rate, count = row.split(",")
            if int(count):
                assert float(rate) == 1.0
