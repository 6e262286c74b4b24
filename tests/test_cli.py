"""Command line behavior: exit codes, configuration, and report rendering."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crext import cli, special
from crext.cli import (
    ConfigError,
    SuiteConfig,
    _kummer_probes,
    build_parser,
    load_config,
    main,
    run_suites,
)
from crext.report import CheckEntry, VerificationReport, render_json, render_table


def test_single_suite_run_prints_a_passing_json_report(capsys):
    assert main(["algebra"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["suites"] == ["algebra"]
    assert len(payload["entries"]) == 9
    assert payload["summary"]["algebra"]["failures"] == 0


def test_emitting_the_same_run_twice_is_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["algebra", "--out", str(first)]) == 0
    assert main(["algebra", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_low_range_gamma_of_one_is_a_config_error_naming_the_value(capsys):
    assert main(["algebra", "--gammas-low", "0.25,1.0"]) == 2
    message = capsys.readouterr().err
    assert "1.0" in message and "(0, 1)" in message


def test_out_of_range_high_gamma_is_rejected(capsys):
    assert main(["algebra", "--gammas-high", "2.5"]) == 2
    assert "2.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ("--lambdas", "0.0"),
        ("--levels", "0,-1"),
        ("--dimensions", "0"),
        ("--max-weight", "7"),
        ("--perturbations", "0"),
        ("--lambdas", "0.5,inf"),
        ("--spot-lambdas", "inf"),
    ],
)
def test_invalid_grid_values_exit_with_config_errors(flags, capsys):
    assert main(["algebra", *flags]) == 2
    assert flags[1].split(",")[-1] in capsys.readouterr().err


@pytest.mark.parametrize(
    "field",
    ["lambdas", "levels", "dimensions", "spot_lambdas", "spot_levels", "spot_dimensions"],
)
def test_empty_mode_grid_is_a_config_error_naming_the_field(field, capsys):
    assert main(["dtn", "--" + field.replace("_", "-"), ","]) == 2
    assert field in capsys.readouterr().err


_REPEATED = {
    "gammas_low": [0.5, 0.5],
    "gammas_high": [1.25, 1.5, 1.25],
    "lambdas": [0.5, 2.0, 0.5],
    "levels": [0, 0],
    "dimensions": [1, 2, 2],
    "spot_lambdas": [2.0, 2.0],
    "spot_levels": [3, 1, 3],
    "spot_dimensions": [1, 1],
    "expansion_dims": [2, 4, 2],
}


@pytest.mark.parametrize("field", sorted(_REPEATED))
def test_repeated_grid_value_is_a_config_error_naming_field_and_value(field, tmp_path, capsys):
    values = _REPEATED[field]
    flag = "--" + field.replace("_", "-")
    assert main(["algebra", flag, ",".join(map(str, values))]) == 2
    message = capsys.readouterr().err
    assert field in message and f"value {values[-1]}" in message
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({field: values}))
    assert main(["algebra", "--config", str(path)]) == 2
    message = capsys.readouterr().err
    assert field in message and f"value {values[-1]}" in message


def test_empty_gamma_lists_give_an_empty_passing_dtn_report(capsys):
    assert main(["dtn", "--gammas-low", ",", "--gammas-high", ","]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == [] and payload["passed"] is True


def test_unexpected_suite_exception_exits_3_naming_the_suite(monkeypatch, capsys, tmp_path):
    def broken(cfg):
        raise OverflowError("math range error")

    monkeypatch.setitem(cli.SUITES, "algebra", broken)
    assert main(["algebra"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert "algebra" in lines[0] and "OverflowError" in lines[0]
    # The report file, opened before the suite ran, is not left behind empty.
    target = tmp_path / "r.json"
    assert main(["algebra", "--out", str(target)]) == 3
    assert not target.exists()


def test_internal_error_leaves_an_existing_report_untouched(monkeypatch, capsys, tmp_path):
    target = tmp_path / "r.json"
    target.write_text("previous report " * 1000)
    monkeypatch.setitem(cli.SUITES, "algebra", lambda cfg: 1 / 0)
    assert main(["algebra", "--out", str(target)]) == 3
    assert target.read_text() == "previous report " * 1000
    # A run that succeeds replaces the longer file whole.
    monkeypatch.undo()
    assert main(["algebra", "--out", str(target)]) == 0
    assert json.loads(target.read_text())["passed"] is True


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_failed_report_write_exits_2_naming_the_path(capsys):
    assert main(["algebra", "--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "/dev/full" in err


def test_unknown_suite_name_is_a_config_error(capsys):
    assert main(["nonsense"]) == 2
    assert "nonsense" in capsys.readouterr().err
    assert main(["all", "nonsense"]) == 2
    assert "nonsense" in capsys.readouterr().err


def test_unknown_config_field_is_named(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"gamas_low": [0.5]}))
    assert main(["algebra", "--config", str(path)]) == 2
    assert "gamas_low" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["lambdas", "spot_lambdas"])
def test_infinite_frequency_in_config_file_is_named(field, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"{field}": [0.5, Infinity]}}')
    assert main(["algebra", "--config", str(path)]) == 2
    assert "inf" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields",
    [{"levels": [True]}, {"seed": True}, {"lambdas": [1.0, False]}, {"max_weight": True}],
)
def test_json_booleans_are_not_numbers(fields, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(fields))
    assert main(["algebra", "--config", str(path)]) == 2
    assert next(iter(fields)) in capsys.readouterr().err


def test_config_file_values_lose_to_explicit_flags(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suites": ["algebra"], "max_weight": 3, "seed": 9}))
    parser = build_parser()

    cfg, suites = load_config(parser.parse_args(["--config", str(path)]))
    assert suites == ["algebra"]
    assert cfg.max_weight == 3 and cfg.seed == 9

    cfg, suites = load_config(
        parser.parse_args(["expansion", "--config", str(path), "--max-weight", "5"])
    )
    assert suites == ["expansion"]
    assert cfg.max_weight == 5 and cfg.seed == 9


def test_empty_suite_list_yields_an_all_zero_report(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suites": []}))
    out = tmp_path / "report.json"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["entries"] == []
    assert payload["summary"] == {"total": {"checks": 0, "failures": 0, "max_error": 0.0}}
    assert payload["passed"] is True


def test_environment_variable_overrides_the_output_flag(tmp_path, monkeypatch):
    env_target = tmp_path / "env.json"
    flag_target = tmp_path / "flag.json"
    monkeypatch.setenv("CREXT_VERIFY_OUT", str(env_target))
    assert main(["algebra", "--out", str(flag_target)]) == 0
    assert env_target.exists()
    assert not flag_target.exists()


@pytest.mark.parametrize("source", ["flag", "environment"])
def test_unwritable_report_path_exits_2_naming_the_path(source, tmp_path, monkeypatch, capsys):
    # A missing parent directory through --out, a directory through the variable.
    target = tmp_path / "missing" / "r.json" if source == "flag" else tmp_path
    if source == "flag":
        argv = ["algebra", "--out", str(target)]
    else:
        monkeypatch.setenv("CREXT_VERIFY_OUT", str(target))
        argv = ["algebra"]
    calls = []
    monkeypatch.setattr(cli, "SUITES", {"algebra": lambda cfg: calls.append(cfg) or []})
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(target) in err
    assert calls == []


def test_table_format_carries_the_anchor_column(tmp_path):
    out = tmp_path / "report.txt"
    assert main(["algebra", "--format", "table", "--out", str(out)]) == 0
    text = out.read_text()
    header = text.splitlines()[0]
    assert "anchor" in header and "check" in header and "status" in header
    assert "ordered product" in text
    assert text.rstrip().endswith("result: pass")


def test_suite_selection_accepts_all_and_deduplicates():
    parser = build_parser()
    _, suites = load_config(parser.parse_args(["algebra", "algebra"]))
    assert suites == ["algebra"]
    _, suites = load_config(parser.parse_args(["all"]))
    assert suites == ["algebra", "expansion", "spectral", "dtn", "energy"]


def test_sampled_probes_are_seed_deterministic():
    first = _kummer_probes(random.Random("0:kummer"), 8)
    again = _kummer_probes(random.Random("0:kummer"), 8)
    other = _kummer_probes(random.Random("1:kummer"), 8)
    assert first == again
    assert first != other
    assert all(a > 1.0 and z > 0.0 for a, _, z in first)


@pytest.mark.parametrize("seed", [0, 1])
def test_spectral_suite_grades_every_probe_in_one_kummer_call(monkeypatch, seed):
    # The benchmark's tracer counts special.kummer_u_batch where the suite
    # reaches it, so the probes must still go through that name.
    calls = []
    batch = special.kummer_u_batch

    def counting(a, b, z):
        calls.append(batch(a, b, z))
        return calls[-1]

    monkeypatch.setattr(special, "kummer_u_batch", counting)
    cfg = SuiteConfig(seed=seed, sample_count=12)
    entries = {e.check_id: e for e in cli._suite_spectral(cfg)}
    assert len(calls) == 1
    probes = _kummer_probes(random.Random(f"{seed}:kummer"), cfg.sample_count)
    # Two points per call force a node-order sum on the referee side too.
    per_probe = [
        batch([a - 1, a, a + 1, a + 1, a + 2], [b, b, b, b + 1, b + 2], np.array([z, z]))[:, 0]
        for a, b, z in probes
    ]
    assert np.array_equal(calls[0][:, 0], np.concatenate(per_probe))
    worst = 0.0
    for (a, b, z), (u_m, u_0, u_p, _, _) in zip(probes, np.array(per_probe).tolist()):
        terms = (u_m, (b - 2.0 * a - z) * u_0, a * (a - b + 1.0) * u_p)
        worst = max(worst, abs(sum(terms)) / sum(abs(t) for t in terms))
    assert entries["spectral.kummer_contiguous"].measured_error == worst


def _skeleton(payload: dict) -> dict:
    """Everything of a report but its measured errors and the digits they feed."""
    keys = ("check_id", "paper_anchor", "parameters", "tolerance", "passed")
    return {
        "entries": [{key: entry[key] for key in keys} for entry in payload["entries"]],
        "summary": {
            suite: {"checks": bucket["checks"], "failures": bucket["failures"]}
            for suite, bucket in payload["summary"].items()
        },
    }


def test_default_report_keeps_its_skeleton():
    # The fixture holds _skeleton() of the default report.  Ids, anchors,
    # parameters, tolerances, verdicts and their order are the report
    # contract; measured errors may move in their last digits.  Regenerate
    # the fixture only with a change that means to alter the contract.
    fixture = Path(__file__).parent / "data" / "default_report_skeleton.json"
    report = run_suites(SuiteConfig(), list(cli.SUITES))
    assert _skeleton(json.loads(render_json(report))) == json.loads(fixture.read_text())


def test_importing_the_cli_does_not_load_sympy():
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code = "import sys, crext.cli; print('sympy' in sys.modules, 'mpmath' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False"]


@pytest.mark.parametrize(
    "argv", [["algebra", "expansion", "spectral"], []], ids=["exact-suites", "default"]
)
def test_verify_runs_without_sympy_or_mpmath(argv, tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code = (
        "import sys; from crext.cli import main; "
        "status = main(sys.argv[1:]); "
        "print(status, 'sympy' in sys.modules, 'mpmath' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *argv, "--out", str(tmp_path / "report.json")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["0", "False", "False"]


def test_validation_accepts_the_default_configuration():
    cfg, suites = load_config(build_parser().parse_args([]))
    assert cfg == SuiteConfig()
    assert suites == ["algebra", "expansion", "spectral", "dtn", "energy"]
    assert len(cfg.full_modes()) == 5 * 9 * 3
    assert len(cfg.spot_modes()) == 2 * 2 * 2


# -- report rendering --------------------------------------------------------


def _toy_report():
    entries = [
        CheckEntry.graded("one.alpha", "first identity", {"k": 1}, 0.0, 0.0),
        CheckEntry.graded("one.beta", "second identity", {"k": 2}, 2e-3, 1e-6),
        CheckEntry.graded("two.gamma", "third identity", {}, 5e-9, 1e-8),
    ]
    return VerificationReport(seed=4, suites=("one", "two"), entries=entries)


def test_graded_entries_pass_exactly_at_the_tolerance():
    assert CheckEntry.graded("x", "a", {}, 1e-8, 1e-8).passed
    assert not CheckEntry.graded("x", "a", {}, 1.0000001e-8, 1e-8).passed


def test_summary_buckets_by_suite_with_totals():
    summary = _toy_report().summary()
    assert summary["one"] == {"checks": 2, "failures": 1, "max_error": 2e-3}
    assert summary["two"] == {"checks": 1, "failures": 0, "max_error": 5e-9}
    assert summary["total"]["checks"] == 3
    assert summary["total"]["failures"] == 1


def test_json_rendering_is_sorted_and_newline_terminated():
    text = render_json(_toy_report())
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["passed"] is False
    assert list(payload) == sorted(payload)
    assert [e["check_id"] for e in payload["entries"]] == ["one.alpha", "one.beta", "two.gamma"]


def test_table_rendering_marks_failures():
    text = render_table(_toy_report())
    failing_line = next(line for line in text.splitlines() if line.startswith("one.beta"))
    assert "FAIL" in failing_line
    assert text.rstrip().endswith("result: FAIL")


def test_empty_report_renders_and_passes():
    empty = VerificationReport(seed=0, suites=())
    assert empty.passed
    assert json.loads(render_json(empty))["entries"] == []
    assert "total: 0 checks" in render_table(empty)


def test_kummer_overflow_at_a_high_level_exits_3_with_one_line(tmp_path):
    # Level 80 drives U(a, ., .) to a ~ 80, where the double-precision panels
    # overflow; the run must stop with one named error and no numpy warnings.
    path = tmp_path / "cfg.json"
    config = {
        "suites": ["energy"],
        "gammas_low": [0.5],
        "gammas_high": [],
        "spot_lambdas": [1.0],
        "spot_levels": [80],
        "spot_dimensions": [1],
        "perturbations": 1,
    }
    path.write_text(json.dumps(config))
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run(
        [sys.executable, "-m", "crext.cli", "--config", str(path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 3
    assert done.stdout == ""
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1
    assert "energy" in lines[0] and "OverflowError" in lines[0]
