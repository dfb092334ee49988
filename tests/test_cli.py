import contextlib
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ccgrav
from ccgrav import asymptotic_lower_bound
from ccgrav.cli import main


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_preset_molecule(capsys):
    code, out, _ = run(["bounds", "--preset", "molecule"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "bounds"
    assert len(payload["config_hash"]) == 64
    assert 1e-20 <= payload["result"]["a_min_m"] <= 1e-19


def test_bounds_explicit_heating(capsys):
    code, out, _ = run(
        ["bounds", "--experiment", "heating", "--mass", "1.44e-25", "--power", "1e-30"],
        capsys,
    )
    assert code == 0
    assert 0.5e-13 <= json.loads(out)["result"]["a_min_m"] <= 2e-13


def test_bounds_without_scenario_is_schema_error(capsys):
    code, _, err = run(["bounds"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "schema"


def test_kappa_command(capsys):
    code, out, _ = run(["kappa", "--D", "20"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["kappa_sq"] >= math.pi**2 * 10
    assert payload["result"]["tail_bound"] < payload["result"]["tolerance"]
    assert payload["tolerances"]["radius"] == 60.0


def test_kappa_radius_too_small_is_convergence_failure(capsys):
    code, _, err = run(["kappa", "--D", "20", "--radius", "10"], capsys)
    assert code == 3
    assert json.loads(err)["error"]["kind"] == "LatticeSumError"


def test_integral_command(capsys):
    code, out, _ = run(["integral", "--D", "10"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["value"] >= result["lower_bound"]


def test_dephase_internal_units(capsys):
    code, out, _ = run(["dephase", "--D", "10", "--xi", "1.0"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["min_rate"] == pytest.approx(math.sqrt(2 * result["kappa_sq"]), rel=1e-9)
    assert result["rate_at_xi"] >= result["min_rate"]


def test_dephase_si_units(capsys):
    code, out, _ = run(
        ["dephase", "--mass", "8.3025e-24", "--cutoff", "1e-19", "--separation", "5e-7"],
        capsys,
    )
    assert code == 0
    assert 300 < json.loads(out)["result"]["min_rate_per_s"] < 700


def test_dephase_requires_exactly_one_block(capsys):
    code, _, _ = run(["dephase"], capsys)
    assert code == 2
    code, _, _ = run(
        ["dephase", "--D", "5", "--mass", "1e-25", "--cutoff", "1e-15", "--separation", "1e-6"],
        capsys,
    )
    assert code == 2


def test_heat_command(capsys):
    code, out, _ = run(["heat", "--mass", "1.44e-25", "--cutoff", "1e-13"], capsys)
    assert code == 0
    assert 0.5e-30 < json.loads(out)["result"]["heating_rate_w"] < 2e-30


def test_circuit_check_quadratic_scaling(capsys):
    code, out, _ = run(
        ["circuit-check", "--sites", "2", "--particles", "1", "--tau", "1e-3", "--halvings", "3"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tau,residual,config_hash"
    taus, residuals = [], []
    for line in lines[1:]:
        t, r, _ = line.split(",")
        taus.append(float(t))
        residuals.append(float(r))
    slope = np.polyfit(np.log(taus), np.log(residuals), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_sweep_rate_minimised_near_optimum(capsys):
    kappa2 = 2.0
    grid = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
    code, out, _ = run(
        ["sweep", "--quantity", "rate", "--kappa-sq", str(kappa2), "--grid",
         ",".join(str(g) for g in grid)],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    rates = [float(r[1]) for r in rows]
    best = int(np.argmin(rates))
    target = math.sqrt(kappa2 / 2.0)
    assert grid[best] == min(grid, key=lambda g: abs(g - target))


def test_sweep_integral_rows_exceed_bound(capsys):
    code, out, _ = run(
        ["sweep", "--quantity", "integral", "--grid", "10,20"], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    values = [float(r[1]) for r in rows]
    assert values[0] < values[1]
    for row in rows:
        assert float(row[1]) >= asymptotic_lower_bound(float(row[0]))


def test_sweep_heating_slope(capsys):
    grid = [1e-14, 1e-13, 1e-12, 1e-11]
    code, out, _ = run(
        ["sweep", "--quantity", "heating", "--mass", "1.0", "--grid",
         ",".join(str(g) for g in grid)],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    xs = np.log10([float(r[0]) for r in rows])
    ys = np.log10([float(r[1]) for r in rows])
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope == pytest.approx(-3.0, abs=1e-9)


def test_sweep_as_json(capsys):
    code, out, _ = run(
        ["sweep", "--quantity", "rate", "--kappa-sq", "1", "--grid", "1,2", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["result"]["rows"]) == 2


def test_csv_rejected_for_scalar_commands(capsys):
    code, _, _ = run(["heat", "--mass", "1", "--cutoff", "1e-13", "--format", "csv"], capsys)
    assert code == 2
    code, _, _ = run(["--format", "csv", "kappa", "--D", "3"], capsys)
    assert code == 2


def test_deterministic_output_files(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for target in (out1, out2):
        assert main(["kappa", "--D", "5", "--output", str(target)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["heat", "--mass", "nan", "--cutoff", "1e-15"],
        ["sweep", "--quantity", "integral", "--grid", "1,-1"],
        ["kappa", "--D", "nan"],
        ["integral", "--D", "1e-300", "--rel-tol", "1e-15"],
    ],
    ids=[
        "heat-nan-mass",
        "sweep-negative-separation",
        "kappa-nan-separation",
        "integral-rel-tol-below-floor",
    ],
)
def test_bad_numbers_are_schema_errors(args, capsys):
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "schema"


@pytest.mark.parametrize(
    "args",
    [
        ["heat", "--mass", "1e300", "--cutoff", "1e-100"],
        ["sweep", "--quantity", "rate", "--kappa-sq", "1e300", "--grid", "1e-300"],
    ],
    ids=["json", "csv"],
)
def test_non_finite_result_is_numerical_failure(args, capsys):
    # finite inputs whose result overflows to inf
    code, out, err = run(args, capsys)
    assert code == 3
    assert out == ""
    assert "error" in json.loads(err)


def run_python(args):
    """Run ``python args`` in a fresh interpreter that imports this ccgrav."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(ccgrav.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def run_fresh(args):
    """Run the CLI in a fresh interpreter, so that a numpy warning would
    reach stderr."""
    return run_python(["-m", "ccgrav.cli", *args])


def test_import_does_not_load_scipy():
    proc = run_python(["-c", "import ccgrav, sys; print('scipy' in sys.modules)"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_overflowing_separation_writes_one_json_record():
    proc = run_fresh(["kappa", "--D", "1e300"])
    assert proc.returncode == 3
    assert proc.stdout == ""
    [record] = proc.stderr.splitlines()
    assert json.loads(record)["error"]["kind"] == "LatticeSumError"


@pytest.mark.parametrize(
    "args",
    [
        ["kappa", "--D", "5", "--radius", "1e300"],
        ["kappa", "--D", "5", "--radius", "-3"],
        ["kappa", "--D", "1e300", "--radius", "1e300"],
    ],
    ids=["huge-radius", "negative-radius", "huge-separation-and-radius"],
)
def test_unusable_radius_is_one_schema_record(args):
    proc = run_fresh(args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    [record] = proc.stderr.splitlines()
    error = json.loads(record)["error"]
    assert error["kind"] == "schema"
    assert "cutoff_radius" in error["message"]


def test_integral_at_huge_separation_is_near_its_asymptote(capsys):
    code, out, _ = run(["integral", "--D", "1e300"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["value"] == pytest.approx(4 * math.pi * 1e300, rel=1e-3)


def test_integral_overflow_is_one_numerical_record():
    proc = run_fresh(["integral", "--D", "1.7e308"])
    assert proc.returncode == 3
    assert proc.stdout == ""
    [record] = proc.stderr.splitlines()
    assert json.loads(record)["error"]["kind"] == "OverflowError"


def test_back_to_back_runs_leak_no_state(tmp_path, capsys):
    code, out, _ = run(["dephase", "--D", "5", "--xi", "2", "--radius", "30"], capsys)
    assert code == 0
    assert "rate_at_xi" in json.loads(out)["result"]
    code, out, _ = run(["dephase", "--D", "5"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert "rate_at_xi" not in result and "xi" not in result
    assert result["radius"] == 60.0
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"schema_version": 1, "command": "dephase", "params": {"D": 5}})
    )
    code, out, _ = run(["--config", str(config)], capsys)
    assert code == 0
    fresh = run_fresh(["--config", str(config)])
    assert fresh.returncode == 0
    assert out == fresh.stdout


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "command": "heat",
                "params": {"mass": 1.44e-25, "cutoff": 1e-13},
            }
        )
    )
    code, out, _ = run(["--config", str(config)], capsys)
    assert code == 0
    base = json.loads(out)["result"]["heating_rate_w"]
    code, out, _ = run(["heat", "--config", str(config), "--cutoff", "1e-12"], capsys)
    assert code == 0
    overridden = json.loads(out)["result"]["heating_rate_w"]
    assert overridden == pytest.approx(base / 1000.0, rel=1e-9)


def test_config_unknown_field_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "command": "heat",
                "params": {"mass": 1.0, "cutoff": 1e-13, "bogus": 2},
            }
        )
    )
    code, _, err = run(["--config", str(config)], capsys)
    assert code == 2
    assert "bogus" in json.loads(err)["error"]["message"]


def test_config_schema_version_checked(tmp_path, capsys):
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"schema_version": 0, "command": "heat", "params": {}}))
    code, _, _ = run(["--config", str(config)], capsys)
    assert code == 2


def test_run_options_before_the_command_are_kept(tmp_path, capsys):
    target = tmp_path / "o.json"
    code, out, _ = run(["--output", str(target), "kappa", "--D", "3"], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["command"] == "kappa"
    code, out, _ = run(
        ["--format", "json", "sweep", "--quantity", "rate", "--kappa-sq", "2", "--grid", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["result"]["rows"] == [{"rate": 2.0, "xi": 1.0}]
    config = tmp_path / "c.json"
    config.write_text(
        json.dumps({"schema_version": 1, "params": {"mass": 1.44e-25, "cutoff": 1e-13}})
    )
    code, out, _ = run(["--config", str(config), "heat"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["cutoff_m"] == 1e-13


def test_run_option_given_twice_takes_the_later_value(tmp_path, capsys):
    sweep = ["sweep", "--quantity", "rate", "--kappa-sq", "2", "--grid", "1"]
    code, out, _ = run(["--format", "csv"] + sweep + ["--format", "json"], capsys)
    assert code == 0 and out.startswith("{")
    code, out, _ = run(["--format", "json"] + sweep + ["--format", "csv"], capsys)
    assert code == 0 and out.startswith("xi,rate,config_hash")
    first, later = tmp_path / "first.json", tmp_path / "later.json"
    code, _, _ = run(
        ["--output", str(first), "kappa", "--D", "3", "--output", str(later)], capsys
    )
    assert code == 0 and later.exists() and not first.exists()


def _readme_section(title: str) -> str:
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


README_COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in _readme_section("Command line").splitlines()
    if line.startswith("ccgrav ")
]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_commands_run(argv, tmp_path, monkeypatch, capsys):
    """Every ``ccgrav`` line of the README's command-line section runs clean,
    with the section's JSON example as ``run.json``."""
    config = _readme_section("Command line").split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "run.json").write_text(config)
    monkeypatch.chdir(tmp_path)
    code, _, err = run(argv, capsys)
    assert code == 0
    assert err == ""


def test_readme_library_example_runs(tmp_path, monkeypatch):
    code = _readme_section("Library example").split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    # a header and one row per snapshot of the 600-step run
    assert len((tmp_path / "coherence.csv").read_text().splitlines()) == 602


def test_missing_required_parameter(capsys):
    code, _, _ = run(["kappa"], capsys)
    assert code == 2


def test_unknown_flag_is_schema_error(capsys):
    code, _, _ = run(["heat", "--mass", "1", "--cutoff", "1e-13", "--nope", "1"], capsys)
    assert code == 2


# --- the exit contract over drawn runs ----------------------------------------

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
# a float value or the flag left out
FLOAT_OR_NONE = st.one_of(st.none(), ANY_FLOAT, st.floats(1e-3, 1e3))


@st.composite
def cli_runs(draw):
    """argv for one kappa, integral or circuit-check run, every value given
    as --flag=value so that negative numbers reach the parser as values."""
    command = draw(st.sampled_from(["kappa", "integral", "circuit-check"]))
    if command == "kappa":
        # radii in (40, 1023.5] are valid but cost seconds to minutes, so the
        # drawn valid radii stop at 40
        radius = st.one_of(
            st.none(), st.floats(0.5, 40.0), st.floats(max_value=0.5), st.floats(min_value=1023.5)
        )
        params = {
            "D": draw(st.one_of(ANY_FLOAT, st.floats(0.0, 30.0))),
            "radius": draw(radius),
            "tolerance": draw(FLOAT_OR_NONE),
            "scale": draw(FLOAT_OR_NONE),
            "spacing": draw(FLOAT_OR_NONE),
        }
    elif command == "integral":
        # valid rel_tol reaches down to its floor, 1e-11
        params = {
            "D": draw(ANY_FLOAT),
            "rel-tol": draw(st.one_of(
                st.none(), st.floats(1e-11, 1.0), st.floats(max_value=0.0),
                st.floats(0.0, 1e-11, exclude_min=True, exclude_max=True),
                st.sampled_from([math.nan, math.inf]),
            )),
        }
    else:
        params = {
            "sites": draw(st.one_of(st.none(), st.integers(-1, 5))),
            "particles": draw(st.one_of(st.none(), st.integers(-1, 4))),
            "tau": draw(FLOAT_OR_NONE),
            "halvings": draw(st.one_of(st.none(), st.integers(-2, 40))),
            "xi": draw(FLOAT_OR_NONE),
            "levels": draw(st.one_of(st.none(), st.integers(-2, 10**6), st.integers(min_value=10**6))),
            "site": draw(st.one_of(st.none(), st.integers(-1, 5))),
        }
    argv = [command] + [f"--{k}={v!r}" for k, v in params.items() if v is not None]
    fmt = draw(st.sampled_from([None, "json", "csv"]))
    return argv + ([f"--format={fmt}"] if fmt else [])


@settings(max_examples=60, deadline=None)
@given(cli_runs())
@example(["kappa", "--D", "5", "--radius", "1e300"])
@example(["kappa", "--D", "5", "--radius", "-3"])
@example(["kappa", "--D", "1e300", "--radius", "1e300"])
@example(["integral", "--D", "1e300"])
@example(["integral", "--D", "1.7e308"])
@example(["circuit-check", "--tau", "2", "--levels", "6"])
@example(["integral", "--D", "1e-300", "--rel-tol", "1e-15"])
@example(["circuit-check", "--tau=0.0", "--xi=2.2250738585e-313"])
def test_every_run_keeps_the_exit_contract(argv):
    """Exit 0 with parseable JSON or CSV on stdout, or exit 2 or 3 with one
    JSON error record on stderr; a warning counts as a broken contract,
    since a fresh process would print it to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        if out.startswith("{"):
            assert "result" in json.loads(out)
        else:
            header, *rows = [line.split(",") for line in out.splitlines()]
            assert header[-1] == "config_hash"
            for row in rows:
                assert len(row) == len(header)
                assert all(math.isfinite(float(v)) for v in row[:-1])
    else:
        assert code in (2, 3)
        assert out == ""
        [record] = err.splitlines()
        error = json.loads(record)["error"]
        assert set(error) == {"kind", "message"}
