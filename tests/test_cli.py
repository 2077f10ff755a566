"""Command line behavior: happy paths, config precedence, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import time
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import hdnids.cli
import hdnids.encoding
import hdnids.model
from hdnids.cli import main
from hdnids.dataset import parse_file
from hdnids.encoding import encode_dataset
from hdnids.model import load_model, predict_batch
from conftest import CRAFTED_HEADERS, DEFAULT_COUNTS, edit_header, make_synth_lines, reframe


@pytest.fixture()
def corpus(tmp_path, synth_lines):
    path = tmp_path / "all.txt"
    path.write_text("\n".join(synth_lines) + "\n")
    return path


def run(args):
    return main([str(a) for a in args])


def quick_train(tmp_path, corpus, **over):
    model = tmp_path / "m.hdm"
    args = ["train", "--train", corpus, "--model", model,
            "--dim", over.pop("dim", 256), "--iterations", over.pop("iterations", 2)]
    for k, v in over.items():
        args += [k, v]
    assert run(args) == 0
    return model


def alive_at_scoring(monkeypatch, argv):
    """run(argv), which must succeed, noting at each start of predict_table's
    slices whether the table parse_file read is still alive."""
    tables, alive = [], []
    real_parse, real_run = hdnids.cli.parse_file, hdnids.model.run_chunks

    def parse(*args, **kwargs):
        result = real_parse(*args, **kwargs)
        tables.append(weakref.ref(result.records))
        return result

    def run_chunks(*args):
        alive.append(tables[0]() is not None)
        return real_run(*args)

    monkeypatch.setattr(hdnids.cli, "parse_file", parse)
    monkeypatch.setattr(hdnids.model, "run_chunks", run_chunks)
    assert run(argv) == 0
    return alive


# (command, config file) pairs whose one value has the wrong type for its key
MISTYPED_CONFIGS = [
    ("split", {"seed": 1.5}), ("split", {"seed": "7"}), ("split", {"seed": None}),
    ("split", {"fraction": None}), ("split", {"fraction": "0.5"}),
    ("train", {"jobs": 2.7}), ("evaluate", {"jobs": True}), ("predict", {"jobs": "2"}),
    *[(command, {"label_map": 5})
      for command in ("train", "evaluate", "predict", "split", "sweep")],
    ("sweep", {"iterations": 1.0}), ("sweep", {"dim": [128, 256]}),
    ("sweep", {"threshold": "5"}), ("predict", {"format": "bogus"}),
]


class TestTrain:
    def test_writes_model_and_reports_progress(self, tmp_path, corpus, capsys):
        model = tmp_path / "m.hdm"
        assert run(["train", "--train", corpus, "--model", model,
                    "--dim", 256, "--iterations", 3]) == 0
        out = capsys.readouterr().out
        assert model.exists()
        assert "effective-config:" in out
        assert "epoch  0" in out and "epoch  1" in out
        assert "model written to" in out

    def test_iterations_zero_skips_retraining(self, tmp_path, corpus, capsys):
        quick_train(tmp_path, corpus, iterations=0)
        out = capsys.readouterr().out
        assert "epoch  0" in out and "epoch  1" not in out

    def test_effective_config_echoes_resolved_values(self, tmp_path, corpus, capsys):
        quick_train(tmp_path, corpus, dim=300)
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("effective-config:")][0]
        cfg = json.loads(line.split(":", 1)[1])
        assert cfg["dim"] == 300
        assert cfg["threshold"] == 20.5  # 41 features / 2
        assert cfg["seed"] == 42

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=(
        "CPython before 3.11 keeps call arguments on the caller's stack, so the "
        "table lives until encode_dataset returns"))
    def test_table_freed_before_the_fill(self, tmp_path, corpus, monkeypatch):
        tables, alive = [], []
        real_parse, real_run = hdnids.cli.parse_file, hdnids.encoding.run_chunks

        def parse(*args, **kwargs):
            result = real_parse(*args, **kwargs)
            tables.append(weakref.ref(result.records))
            return result

        def run_chunks(*args):
            alive.append(tables[0]() is not None)
            return real_run(*args)

        monkeypatch.setattr(hdnids.cli, "parse_file", parse)
        monkeypatch.setattr(hdnids.encoding, "run_chunks", run_chunks)
        quick_train(tmp_path, corpus)
        assert alive == [False]

    def test_missing_train_file(self, tmp_path):
        assert run(["train", "--train", tmp_path / "nope.txt",
                    "--model", tmp_path / "m.hdm"]) == 3
        assert not (tmp_path / "m.hdm").exists()

    def test_bad_hyperparameter(self, tmp_path, corpus):
        assert run(["train", "--train", corpus, "--model", tmp_path / "m.hdm",
                    "--dim", 0]) == 2

    @pytest.mark.parametrize("flag, value", [("--iterations", -1), ("--dim", 0),
                                             ("--alpha", "nan")])
    def test_bad_setting_checked_before_parsing(self, tmp_path, corpus, monkeypatch,
                                                flag, value):
        """A bad setting exits 2 before any file is read, even a missing one."""
        calls = []
        monkeypatch.setattr(hdnids.cli, "parse_file", lambda *a, **k: calls.append(a))
        for train in (corpus, tmp_path / "nope.txt"):
            assert run(["train", "--train", train, "--model", tmp_path / "m.hdm",
                        flag, value]) == 2
        assert calls == []
        assert not (tmp_path / "m.hdm").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "nan"), ("--alpha", "inf"), ("--threshold", "inf"),
        ("--threshold", "nan"), ("--bins", 300),
    ])
    def test_non_finite_or_out_of_range_hyperparameter(self, tmp_path, corpus, flag, value):
        assert run(["train", "--train", corpus, "--model", tmp_path / "m.hdm",
                    "--dim", 256, "--iterations", 1, flag, value]) == 2
        assert not (tmp_path / "m.hdm").exists()

    def test_closed_stdout_keeps_model(self, tmp_path, corpus, monkeypatch):
        """`hdnids train ... | head` closes stdout early; the model is still written."""
        class ClosedPipe(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        model = tmp_path / "m.hdm"
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert run(["train", "--train", corpus, "--model", model,
                    "--dim", 256, "--iterations", 2]) == 3
        assert load_model(model).hyperparams.dim == 256

    def test_initial_scoring_timed_apart(self, tmp_path, corpus, capsys, monkeypatch):
        """train_initial's time in the summary line excludes the epoch-0 scoring."""
        scorer = hdnids.cli.predict_batch

        def slow_predict_batch(*args, **kwargs):
            time.sleep(0.3)
            return scorer(*args, **kwargs)

        monkeypatch.setattr(hdnids.cli, "predict_batch", slow_predict_batch)
        quick_train(tmp_path, corpus)
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.startswith("model written to")
        assert float(re.search(r"train_initial (\S+)s", summary).group(1)) < 0.3

    def test_alpha_overflowing_the_representatives(self, tmp_path, capsys):
        """Retraining at such an alpha exits 2 and writes no model."""
        overlapping = tmp_path / "overlap.txt"
        overlapping.write_text("\n".join(make_synth_lines(DEFAULT_COUNTS, gap=-280)) + "\n")
        model = tmp_path / "m.hdm"
        assert run(["train", "--train", overlapping, "--model", model, "--dim", 256,
                    "--iterations", 3, "--alpha", "1e200"]) == 2
        assert "alpha" in capsys.readouterr().err
        assert not model.exists()

    def test_malformed_data(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("this,is,not,a,record\n")
        assert run(["train", "--train", bad, "--model", tmp_path / "m.hdm"]) == 4
        assert not (tmp_path / "m.hdm").exists()

    def test_range_float64_cannot_bin_is_data_error(self, tmp_path, capsys):
        rows = [",".join(["5"] * 4 + [value] + ["5"] * 36) + ",normal,10\n"
                for value in ("-1e308", "1e308")]
        wide = tmp_path / "wide.txt"
        wide.write_text("".join(rows))
        capsys.readouterr()
        assert run(["train", "--train", wide, "--model", tmp_path / "m.hdm"]) == 4
        assert "'src_bytes'" in capsys.readouterr().err
        assert not (tmp_path / "m.hdm").exists()


class TestSeeds:
    def test_seed_taken_mod_2_64(self, tmp_path, corpus):
        """Codebook and retraining order both take the seed mod 2**64."""
        reps = []
        for seed in (-1, 2**64 - 1):
            model = tmp_path / f"m{seed}.hdm"
            assert run(["train", "--train", corpus, "--model", model, "--dim", 256,
                        "--iterations", 1, "--seed", seed]) == 0
            reps.append(load_model(model).reps)
        assert reps[0].tobytes() == reps[1].tobytes()


class TestConfigPrecedence:
    def test_config_file_supplies_defaults(self, tmp_path, corpus, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 288, "iterations": 1}))
        assert run(["train", "--train", corpus, "--model", tmp_path / "m.hdm",
                    "--config", cfg]) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("effective-config:")][0]
        assert json.loads(line.split(":", 1)[1])["dim"] == 288

    def test_flag_beats_config_file(self, tmp_path, corpus, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 288}))
        assert run(["train", "--train", corpus, "--model", tmp_path / "m.hdm",
                    "--config", cfg, "--dim", 320, "--iterations", 1]) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("effective-config:")][0]
        assert json.loads(line.split(":", 1)[1])["dim"] == 320

    def test_unknown_config_key_rejected(self, tmp_path, corpus):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dimension": 288}))
        assert run(["train", "--train", corpus, "--model", tmp_path / "m.hdm",
                    "--config", cfg]) == 2

    def test_config_integer_too_large_for_a_float(self, tmp_path, corpus, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"alpha": 1' + "0" * 400 + "}")
        capsys.readouterr()
        assert run(["train", "--train", corpus, "--model", tmp_path / "m.hdm",
                    "--config", cfg]) == 2
        assert "alpha is out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[]", "[1, 2]", '"dim"', "7", "null"])
    def test_config_not_an_object_rejected(self, tmp_path, corpus, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        capsys.readouterr()
        assert run(["train", "--train", corpus, "--model", tmp_path / "m.hdm",
                    "--config", cfg]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path, corpus):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["train", "--train", corpus, "--model", tmp_path / "m.hdm",
                    "--config", cfg]) == 2

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_non_bool_log_scale_rejected(self, tmp_path, corpus, command, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"log_scale": value, "iterations": 1, "dim": 500}))
        out = ["--model", tmp_path / "m.hdm"] if command == "train" else []
        assert run([command, "--train", corpus, *out, "--config", cfg]) == 2
        assert not (tmp_path / "m.hdm").exists()

    def test_bool_log_scale_from_config(self, tmp_path, corpus):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"log_scale": True, "iterations": 1, "dim": 500}))
        assert run(["train", "--train", corpus, "--model", tmp_path / "m.hdm",
                    "--config", cfg]) == 0
        assert load_model(tmp_path / "m.hdm").hyperparams.log_scale is True

    @pytest.mark.parametrize("command, config", [
        pytest.param(command, config, id=f"{command}-{json.dumps(config, separators=(',', ':'))}")
        for command, config in MISTYPED_CONFIGS
    ])
    def test_mistyped_config_value_rejected(self, tmp_path, corpus, capsys,
                                            command, config):
        """Every config key is type-checked on every command: exit 2, no output."""
        model = quick_train(tmp_path, corpus) if command in ("evaluate", "predict") else None
        out, out2 = tmp_path / "out", tmp_path / "out2"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 128, "iterations": 1, **config}))
        argv = {
            "train": ["--train", corpus, "--model", out],
            "evaluate": ["--model", model, "--test", corpus, "--report", out],
            "predict": ["--model", model, "--input", corpus, "--output", out],
            "split": ["--input", corpus, "--train-out", out, "--test-out", out2],
            "sweep": ["--train", corpus, "--test", corpus, "--output", out],
        }[command]
        capsys.readouterr()
        assert run([command, *argv, "--config", cfg]) == 2
        assert not out.exists() and not out2.exists()
        err = capsys.readouterr().err
        assert next(iter(config)) in err and "Traceback" not in err

    def test_config_int_alpha_matches_flag_bytes(self, tmp_path, corpus):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1}))
        common = ["train", "--train", corpus, "--dim", 256, "--iterations", 2]
        assert run([*common, "--model", tmp_path / "flag.hdm", "--alpha", 1]) == 0
        assert run([*common, "--model", tmp_path / "cfg.hdm", "--config", cfg]) == 0
        assert (tmp_path / "flag.hdm").read_bytes() == (tmp_path / "cfg.hdm").read_bytes()

    def test_evaluate_label_map_keeps_stored_policy(self, tmp_path, corpus):
        model = quick_train(tmp_path, corpus, **{"--unknown-label": "strict",
                                                 "--fallback-class": "dos"})
        table = tmp_path / "labels.csv"
        table.write_text((resources.files("hdnids") / "data" /
                          "attack_categories.txt").read_text())
        odd = tmp_path / "odd.txt"
        odd.write_text(",".join(["5"] * 41) + ",zero_day,10\n")
        report = tmp_path / "r.json"
        evaluate = ["evaluate", "--model", model, "--test", odd, "--label-map", table,
                    "--format", "json", "--report", report]
        assert run(evaluate) == 4
        assert not report.exists()

        def unmapped_class(*extra):
            assert run([*evaluate, *extra]) == 0
            classes = json.loads(report.read_text())["classes"]
            return [name for name, m in classes.items() if m["support"]]

        assert unmapped_class("--unknown-label", "fallback") == ["dos"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"unknown_label": "fallback", "fallback_class": "probe"}))
        assert unmapped_class("--config", cfg) == ["probe"]
        assert unmapped_class("--config", cfg, "--fallback-class", "r2l") == ["r2l"]

    def test_readme_defaults_match_settings(self):
        """The README's configuration table lists every setting and its default."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Configuration", 1)[1].split("\n### ", 1)[0]
        rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
                for line in section.splitlines() if line.startswith("| `")]
        documented = {row[0].strip("`"): row[2] for row in rows}
        settings = hdnids.cli.SETTINGS
        assert documented.keys() == settings.keys()
        for key, cell in documented.items():
            default = settings[key][1]
            if key == "jobs":
                assert cell == "CPU count" and default == (os.cpu_count() or 1)
            else:
                value = json.loads(cell.strip("`"))
                assert (value, type(value)) == (default, type(default)), key

    def test_jobs_env_variable(self, tmp_path, corpus, capsys, monkeypatch):
        monkeypatch.setenv("HDNIDS_JOBS", "2")
        quick_train(tmp_path, corpus)
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("effective-config:")][0]
        assert json.loads(line.split(":", 1)[1])["jobs"] == 2

    def test_jobs_flag_beats_env(self, tmp_path, corpus, capsys, monkeypatch):
        monkeypatch.setenv("HDNIDS_JOBS", "2")
        quick_train(tmp_path, corpus, **{"--jobs": 3})
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("effective-config:")][0]
        assert json.loads(line.split(":", 1)[1])["jobs"] == 3

    @pytest.mark.parametrize("flag, env", [(["--jobs", 0], None), ([], "0")])
    def test_jobs_below_one_rejected(self, tmp_path, corpus, capsys, monkeypatch, flag, env):
        if env is not None:
            monkeypatch.setenv("HDNIDS_JOBS", env)
        capsys.readouterr()
        assert run(["train", "--train", corpus, "--model", tmp_path / "m.hdm", *flag]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "m.hdm").exists()

    def test_bad_jobs_env(self, tmp_path, corpus, monkeypatch):
        monkeypatch.setenv("HDNIDS_JOBS", "many")
        assert run(["train", "--train", corpus, "--model", tmp_path / "m.hdm"]) == 2


class TestEvaluate:
    def test_report_to_stdout(self, tmp_path, corpus, capsys):
        model = quick_train(tmp_path, corpus)
        capsys.readouterr()
        assert run(["evaluate", "--model", model, "--test", corpus]) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out and "confusion matrix" in out

    def test_report_to_file_json(self, tmp_path, corpus, capsys):
        model = quick_train(tmp_path, corpus)
        report = tmp_path / "report.json"
        assert run(["evaluate", "--model", model, "--test", corpus,
                    "--format", "json", "--report", report]) == 0
        obj = json.loads(report.read_text())
        assert obj["accuracy"] == 1.0
        assert obj["config"]["dim"] == 256

    def test_evaluate_timed_on_stderr(self, tmp_path, corpus, capsys):
        model = quick_train(tmp_path, corpus)
        capsys.readouterr()
        assert run(["evaluate", "--model", model, "--test", corpus]) == 0
        err = capsys.readouterr().err
        records = len(corpus.read_text().splitlines())
        assert re.fullmatch(rf"evaluated {records} records in \d+\.\d\ds\n", err)

    def test_reports_reproducible(self, tmp_path, corpus, capsys):
        model = quick_train(tmp_path, corpus)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(["evaluate", "--model", model, "--test", corpus,
                    "--format", "json", "--report", r1]) == 0
        assert run(["evaluate", "--model", model, "--test", corpus,
                    "--format", "json", "--report", r2, "--jobs", 4]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=(
        "CPython before 3.11 keeps call arguments on the caller's stack, so the "
        "table lives until predict_table returns"))
    def test_table_freed_before_scoring(self, tmp_path, corpus, monkeypatch):
        model = quick_train(tmp_path, corpus)
        assert alive_at_scoring(monkeypatch, ["evaluate", "--model", model, "--test", corpus,
                                              "--report", tmp_path / "r.txt"]) == [False]

    def test_other_format_version_exit_code(self, tmp_path, corpus, capsys):
        # a version 2 file, its checksum made to match
        blob = quick_train(tmp_path, corpus).read_bytes()
        body = blob[:8] + (2).to_bytes(4, "little") + blob[12:-32]
        broken = tmp_path / "v2.hdm"
        broken.write_bytes(body + hashlib.sha256(body).digest())
        capsys.readouterr()
        assert run(["evaluate", "--model", broken, "--test", corpus]) == 5
        assert "format version 2 unsupported (expected 1)" in capsys.readouterr().err

    def test_corrupt_model_exit_code(self, tmp_path, corpus):
        model = quick_train(tmp_path, corpus)
        broken = tmp_path / "broken.hdm"
        broken.write_bytes(model.read_bytes()[:64])
        assert run(["evaluate", "--model", broken, "--test", corpus]) == 5

    def test_damaged_header_exit_code(self, tmp_path, corpus):
        model = quick_train(tmp_path, corpus)
        broken = tmp_path / "broken.hdm"

        def drop_schema(header):
            del header["schema"]
            return header

        broken.write_bytes(edit_header(model.read_bytes(), drop_schema))
        assert run(["evaluate", "--model", broken, "--test", corpus]) == 5

    @pytest.mark.parametrize("section, key", [("hyperparams", "alpha"),
                                              ("hyperparams", "threshold"), ("schema", "max")])
    def test_huge_header_number_exit_code(self, tmp_path, corpus, capsys, section, key):
        # a JSON integer too large for a float64 is a bad header, not a traceback
        model = quick_train(tmp_path, corpus)
        broken = tmp_path / "broken.hdm"

        def huge(header):
            if section == "schema":
                next(f for f in header["schema"]["features"] if f["kind"] == "continuous")[
                    "max"] = 10**400
            else:
                header[section][key] = 10**400
            return header

        broken.write_bytes(edit_header(model.read_bytes(), huge))
        capsys.readouterr()
        assert run(["evaluate", "--model", broken, "--test", corpus]) == 5
        assert "bad header" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", CRAFTED_HEADERS)
    def test_crafted_header_exit_code(self, tmp_path, corpus, capsys, edit):
        # a header that once loaded: its checksum is valid, and it is not
        # the header save_model writes or one of its parts rejects a field
        broken = tmp_path / "broken.hdm"
        broken.write_bytes(edit_header(quick_train(tmp_path, corpus).read_bytes(), edit))
        capsys.readouterr()
        assert run(["evaluate", "--model", broken, "--test", corpus]) == 5
        assert "bad header" in capsys.readouterr().err

    def test_damaged_arrays_exit_code(self, tmp_path, corpus, capsys):
        # a NaN in the last representative entry, the header and checksum intact
        blob = quick_train(tmp_path, corpus).read_bytes()
        header = blob[20:20 + int.from_bytes(blob[12:20], "little")]
        broken = tmp_path / "broken.hdm"
        broken.write_bytes(reframe(blob[:-40] + np.float64("nan").tobytes() + blob[-32:],
                                   header))
        capsys.readouterr()
        assert run(["evaluate", "--model", broken, "--test", corpus]) == 5
        assert "bad arrays" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "predict", "train"])
    @pytest.mark.parametrize("value", ["abc", "inf"])
    def test_non_numeric_value_is_data_error(self, tmp_path, corpus, capsys,
                                             command, value):
        """Every command names the line of a bad numeric value, whether the
        schema is read from a model or inferred from the file (train)."""
        model = quick_train(tmp_path, corpus)
        good = ",".join(["5"] * 41) + ",normal,10\n"
        odd = tmp_path / "odd.txt"
        odd.write_text(good * 2 + ",".join(["5"] * 4 + [value] + ["5"] * 36) + ",normal,10\n")
        args = {"train": ["--train", odd, "--model", tmp_path / "new.hdm"],
                "evaluate": ["--model", model, "--test", odd],
                "predict": ["--model", model, "--input", odd]}[command]
        capsys.readouterr()
        assert run([command] + args) == 4
        want = f"line 3: column 'src_bytes' has non-numeric value '{value}'"
        assert want in capsys.readouterr().err

    def test_missing_model_is_io_error(self, tmp_path, corpus):
        assert run(["evaluate", "--model", tmp_path / "none.hdm",
                    "--test", corpus]) == 3

    def test_strict_unknown_label(self, tmp_path, corpus):
        model = quick_train(tmp_path, corpus)
        odd = tmp_path / "odd.txt"
        odd.write_text(",".join(["5"] * 41) + ",zero_day,10\n")
        assert run(["evaluate", "--model", model, "--test", odd,
                    "--unknown-label", "strict"]) == 4
        assert run(["evaluate", "--model", model, "--test", odd]) == 0

    def test_unknown_label_reported_before_bad_value(self, tmp_path, corpus, capsys):
        """Labels are mapped before any value is read: a file with both an
        unknown label under a strict map and a non-numeric value names the label."""
        model = quick_train(tmp_path, corpus)
        odd = tmp_path / "odd.txt"
        odd.write_text(",".join(["5"] * 4 + ["abc"] + ["5"] * 36) + ",normal,10\n"
                       + ",".join(["5"] * 41) + ",zero_day,10\n")
        capsys.readouterr()
        assert run(["evaluate", "--model", model, "--test", odd,
                    "--unknown-label", "strict"]) == 4
        err = capsys.readouterr().err
        assert "unknown attack label 'zero_day'" in err and "abc" not in err


class TestPredict:
    def test_csv_output(self, tmp_path, corpus, capsys):
        model = quick_train(tmp_path, corpus)
        capsys.readouterr()
        assert run(["predict", "--model", model, "--input", corpus]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ("index,predicted,sim_normal,sim_dos,sim_probe,"
                            "sim_r2l,sim_u2r")
        assert len(lines) == 1 + len(corpus.read_text().strip().splitlines())
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] in ("normal", "dos", "probe", "r2l", "u2r")
        assert len(first) == 7

    def test_unlabeled_input(self, tmp_path, corpus, capsys):
        model = quick_train(tmp_path, corpus)
        bare = tmp_path / "bare.txt"
        record = corpus.read_text().splitlines()[0].split(",")[:41]
        bare.write_text(",".join(record) + "\n")
        capsys.readouterr()
        assert run(["predict", "--model", model, "--input", bare]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=(
        "CPython before 3.11 keeps call arguments on the caller's stack, so the "
        "table lives until predict_table returns"))
    def test_table_freed_before_scoring(self, tmp_path, corpus, monkeypatch):
        model = quick_train(tmp_path, corpus)
        assert alive_at_scoring(monkeypatch, ["predict", "--model", model, "--input", corpus,
                                              "--output", tmp_path / "p.csv"]) == [False]

    def test_output_file(self, tmp_path, corpus):
        model = quick_train(tmp_path, corpus)
        out = tmp_path / "preds.csv"
        assert run(["predict", "--model", model, "--input", corpus,
                    "--output", out]) == 0
        assert out.read_text().startswith("index,predicted,")

    def test_csv_written_a_slice_at_a_time(self, tmp_path, corpus, capsys, monkeypatch):
        """Three records a write, to stdout and to --output alike, and the
        bytes of the whole CSV formatted at once."""
        model_path = quick_train(tmp_path, corpus)
        model = load_model(model_path)
        preds, sims = predict_batch(model, encode_dataset(
            parse_file(corpus, allow_unlabeled=True).records, model.codebook,
            model.schema, model.threshold))
        names = model.label_map.class_names
        want = "\n".join(["index,predicted," + ",".join(f"sim_{n}" for n in names)]
                         + [f"{i},{names[p]}," + ",".join(map(repr, s))
                            for i, (p, s) in enumerate(zip(preds.tolist(), sims.tolist()))]
                         ) + "\n"
        monkeypatch.setattr(hdnids.cli, "_CSV_ROWS", 3)
        writes = []
        real = hdnids.cli._text_out

        @contextlib.contextmanager
        def spy(path):
            with real(path) as write:
                yield lambda text: (writes.append(text), write(text))

        monkeypatch.setattr(hdnids.cli, "_text_out", spy)
        capsys.readouterr()
        assert run(["predict", "--model", model_path, "--input", corpus]) == 0
        assert capsys.readouterr().out == want
        records = len(corpus.read_text().splitlines())
        assert len(writes) == 1 + -(-records // 3)
        assert all(piece.count("\n") <= 3 for piece in writes)
        out = tmp_path / "preds.csv"
        assert run(["predict", "--model", model_path, "--input", corpus,
                    "--output", out]) == 0
        assert out.read_bytes() == want.encode("utf-8")
        assert len(writes) == 2 * (1 + -(-records // 3))

    def test_failure_mid_stream_leaves_no_file(self, tmp_path, corpus, monkeypatch):
        model = quick_train(tmp_path, corpus)
        real = hdnids.cli._csv_pieces

        def failing(*args):
            pieces = real(*args)
            yield next(pieces)
            yield next(pieces)
            raise OSError("disk full")

        monkeypatch.setattr(hdnids.cli, "_CSV_ROWS", 3)
        monkeypatch.setattr(hdnids.cli, "_csv_pieces", failing)
        out = tmp_path / "out" / "preds.csv"
        out.parent.mkdir()
        assert run(["predict", "--model", model, "--input", corpus, "--output", out]) == 3
        assert list(out.parent.iterdir()) == []


class TestSplit:
    def test_preserves_line_bytes(self, tmp_path, corpus):
        tr, te = tmp_path / "tr.txt", tmp_path / "te.txt"
        assert run(["split", "--input", corpus, "--train-out", tr,
                    "--test-out", te, "--fraction", 0.8, "--seed", 42]) == 0
        original = set(corpus.read_text().strip().splitlines())
        tr_lines = tr.read_text().strip().splitlines()
        te_lines = te.read_text().strip().splitlines()
        assert set(tr_lines) | set(te_lines) == original
        assert not set(tr_lines) & set(te_lines)
        assert len(te_lines) == pytest.approx(len(original) * 0.2, abs=3)

    def test_split_deterministic(self, tmp_path, corpus):
        outs = []
        for tag in ("a", "b"):
            tr, te = tmp_path / f"tr{tag}.txt", tmp_path / f"te{tag}.txt"
            assert run(["split", "--input", corpus, "--train-out", tr,
                        "--test-out", te, "--seed", 7]) == 0
            outs.append((tr.read_bytes(), te.read_bytes()))
        assert outs[0] == outs[1]

    def test_written_a_slice_at_a_time(self, tmp_path, corpus, monkeypatch):
        outs = []
        for rows in (hdnids.cli._CSV_ROWS, 3):
            monkeypatch.setattr(hdnids.cli, "_CSV_ROWS", rows)
            tr, te = tmp_path / f"tr{rows}.txt", tmp_path / f"te{rows}.txt"
            assert run(["split", "--input", corpus, "--train-out", tr,
                        "--test-out", te, "--seed", 7]) == 0
            outs.append((tr.read_bytes(), te.read_bytes()))
        assert outs[0] == outs[1]
        assert outs[0][0] + outs[0][1] != b""

    def test_bad_fraction(self, tmp_path, corpus):
        assert run(["split", "--input", corpus, "--train-out", tmp_path / "a",
                    "--test-out", tmp_path / "b", "--fraction", 1.5]) == 2

    def test_seed_taken_mod_2_64(self, tmp_path, corpus):
        outs = []
        for seed in (-1, 2**64 - 1):
            tr, te = tmp_path / f"tr{seed}.txt", tmp_path / f"te{seed}.txt"
            assert run(["split", "--input", corpus, "--train-out", tr,
                        "--test-out", te, "--seed", seed]) == 0
            outs.append((tr.read_bytes(), te.read_bytes()))
        assert outs[0] == outs[1]


class TestUnknownLabels:
    def test_split_and_evaluate_name_each_unknown_label_once(self, tmp_path, corpus, caplog):
        """Each command maps the file's labels in one pass, which warns about
        each distinct unknown label once, however often and with whatever
        surrounding spaces it occurs."""
        model = quick_train(tmp_path, corpus)
        lines = corpus.read_text().splitlines()
        for i, label in enumerate(["zero_day", " zero_day", "mystery", "zero_day ", "mystery"]):
            lines[10 * i] = ",".join(lines[10 * i].split(",")[:41] + [label, "3"])
        odd = tmp_path / "odd.txt"
        odd.write_text("\n".join(lines) + "\n")
        for args in (["split", "--input", odd, "--train-out", tmp_path / "tr.txt",
                      "--test-out", tmp_path / "te.txt"],
                     ["evaluate", "--model", model, "--test", odd]):
            caplog.clear()
            with caplog.at_level("WARNING", logger="hdnids.dataset"):
                assert run(args) == 0
            named = [r.getMessage() for r in caplog.records
                     if r.getMessage().startswith("unknown attack label")]
            assert sorted(named) == [
                "unknown attack label 'mystery' mapped to fallback class 'normal'",
                "unknown attack label 'zero_day' mapped to fallback class 'normal'",
            ], args[0]


class TestSweep:
    def test_grid_and_error_rows(self, tmp_path, capsys):
        lines = make_synth_lines(
            {"normal": 40, "dos": 40, "probe": 20, "r2l": 10, "u2r": 6}, seed=3)
        data = tmp_path / "small.txt"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "sweep.csv"
        # dims=4 with bins=10 is invalid and must fail soft, not kill the run
        assert run(["sweep", "--train", data, "--dims", "4,256", "--bins", "10",
                    "--alphas", "1.0", "--seeds", "42", "--iterations", "2",
                    "--output", out]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0].startswith("dim,bins,alpha,seed,iterations")
        assert len(rows) == 3
        assert "error:" in rows[1]
        assert rows[2].endswith("ok")
        acc = float(rows[2].split(",")[7])
        assert 0.0 <= acc <= 1.0

    def test_bad_grid_list_is_usage_error(self, tmp_path, corpus, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--train", corpus, "--dims", "10,x"])
        assert exc.value.code == 2
        assert "expected comma-separated ints, got '10,x'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--iterations", "-1"], ["--config", "{cfg}"]])
    def test_bad_setting_off_the_grid_is_config_error(self, tmp_path, corpus, capsys, flags):
        """A bad value no grid axis spans fails the run once, not every combo."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"threshold": Infinity}')
        out = tmp_path / "sweep.csv"
        capsys.readouterr()
        assert run(["sweep", "--train", corpus, "--dims", "128,256", "--output", out]
                   + [str(f).format(cfg=cfg) for f in flags]) == 2
        assert capsys.readouterr().err.count("error:") == 1
        assert not out.exists()

    def test_kept_table_trains_every_combo(self, tmp_path, corpus, capsys, monkeypatch):
        """sweep keeps its tables: each combo pops its list, and encoding
        leaves the table as it was, so equal combos give equal rows."""
        real, seen = hdnids.cli._train_pipeline, []

        def spy(tables, *args):
            table = tables[0]
            codes = [c.codes.copy() for c in table.features]
            out = real(tables, *args)
            seen.append(not tables and all(np.array_equal(a, c.codes)
                                           for a, c in zip(codes, table.features)))
            return out

        monkeypatch.setattr(hdnids.cli, "_train_pipeline", spy)
        capsys.readouterr()
        assert run(["sweep", "--train", corpus, "--dims", "128,128,256",
                    "--iterations", "1"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert seen == [True] * 3
        assert len(rows) == 4 and rows[1] == rows[2] != rows[3]
        assert rows[1].endswith("ok") and rows[3].endswith("ok")

    @pytest.mark.parametrize("test_file, digest", [
        (True, "0ac9062c3fc93090044dd0df7732d12793562a51592d5341a37b4ae678340118"),
        (False, "606abd75b107236e0d41bad88e81ee5121ce4d32579cddac4ce65753ce936472"),
    ])
    def test_output_bytes_unchanged(self, tmp_path, test_file, digest):
        """SHA-256 of a 16-combination sweep on overlapping classes, as the
        releases before evaluate scored through predict_table wrote it."""
        data = tmp_path / "overlap.txt"
        data.write_text("\n".join(make_synth_lines(
            {"normal": 120, "dos": 100, "probe": 60, "r2l": 40, "u2r": 20},
            seed=7, gap=-280)) + "\n")
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--train", data, *(["--test", data] if test_file else []),
                    "--dims", "128,300", "--bins", "5,10", "--alphas", "1,0.1",
                    "--seeds", "1,2", "--iterations", "3", "--output", out, "--jobs", 2]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_fixed_test_file(self, tmp_path, corpus, capsys):
        capsys.readouterr()
        assert run(["sweep", "--train", corpus, "--test", corpus,
                    "--dims", "128", "--iterations", "1"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 2 and rows[1].endswith("ok")


    def test_config_file_supplies_grid(self, tmp_path, corpus, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iterations": 0, "dim": 300, "bins": 5,
                                   "alpha": 0.5, "seed": 7}))
        capsys.readouterr()
        assert run(["sweep", "--train", corpus, "--test", corpus,
                    "--config", cfg]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith(f"300,5,0.5,7,0,{len(corpus.read_text().splitlines())},")
        assert rows[1].endswith("ok")
        # flags still beat the config file
        assert run(["sweep", "--train", corpus, "--test", corpus, "--config", cfg,
                    "--dims", "128", "--iterations", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("128,5,0.5,7,1,")


class TestEmptyInput:
    # command -> its arguments; {empty} is the file with no records
    COMMANDS = {
        "train": ["train", "--train", "{empty}", "--model", "{out}"],
        "evaluate": ["evaluate", "--model", "{model}", "--test", "{empty}", "--report", "{out}"],
        "predict": ["predict", "--model", "{model}", "--input", "{empty}", "--output", "{out}"],
        "split": ["split", "--input", "{empty}", "--train-out", "{out}", "--test-out", "{out}"],
        "sweep": ["sweep", "--train", "{empty}", "--output", "{out}"],
        "sweep --test": ["sweep", "--train", "{corpus}", "--test", "{empty}", "--output", "{out}"],
    }

    @pytest.mark.parametrize("text", ["", "\n  \n\r\n"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_records_is_data_error(self, tmp_path, corpus, capsys, command, text):
        empty = tmp_path / "empty.txt"
        empty.write_text(text)
        model = quick_train(tmp_path, corpus) if "{model}" in self.COMMANDS[command] else ""
        out = tmp_path / "out"
        paths = {"empty": empty, "out": out, "model": model, "corpus": corpus}
        capsys.readouterr()
        assert run([a.format(**paths) for a in self.COMMANDS[command]]) == 4
        assert f"{empty}: no records" in capsys.readouterr().err
        assert not out.exists()


class TestOutputMode:
    def test_every_output_file_takes_the_umask_mode(self, tmp_path, corpus, capsys):
        """Model, report, predictions, split and sweep files get the mode
        open(path, "wb") gives a new file: 644 under umask 022."""
        out = tmp_path / "out"
        out.mkdir()
        old = os.umask(0o022)
        try:
            model = quick_train(out, corpus)
            for args in (["evaluate", "--model", model, "--test", corpus,
                          "--report", out / "report.txt"],
                         ["predict", "--model", model, "--input", corpus,
                          "--output", out / "predictions.csv"],
                         ["split", "--input", corpus, "--train-out", out / "train.txt",
                          "--test-out", out / "test.txt"],
                         ["sweep", "--train", corpus, "--dims", "128", "--iterations", "1",
                          "--output", out / "sweep.csv"]):
                assert run(args) == 0
        finally:
            os.umask(old)
        modes = {p.name: oct(p.stat().st_mode & 0o777) for p in out.iterdir()}
        assert modes == dict.fromkeys(["m.hdm", "report.txt", "predictions.csv", "train.txt",
                                       "test.txt", "sweep.csv"], "0o644")


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--wat"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("predict", "--label-map", "/nonexistent"), ("predict", "--unknown-label", "strict"),
        ("predict", "--fallback-class", "u2r"), ("split", "--jobs", 2),
    ])
    def test_flag_the_command_does_not_read(self, tmp_path, corpus, capsys,
                                            command, flag, value):
        """A command takes only the flags it reads: with one it ignores, argparse exits 2."""
        if command == "predict":
            args = ["predict", "--model", quick_train(tmp_path, corpus), "--input", corpus,
                    "--output", tmp_path / "out.csv"]
        else:
            args = ["split", "--input", corpus, "--train-out", tmp_path / "tr.txt",
                    "--test-out", tmp_path / "te.txt"]
        assert run(args) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(args + [flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
