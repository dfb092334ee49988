import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

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
    ],
    ids=["heat-nan-mass", "sweep-negative-separation", "kappa-nan-separation"],
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


def test_overflowing_separation_writes_one_json_record():
    # a fresh interpreter, so that a numpy warning would reach stderr
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(ccgrav.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "ccgrav.cli", "kappa", "--D", "1e300"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    [record] = proc.stderr.splitlines()
    assert json.loads(record)["error"]["kind"] == "LatticeSumError"


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


def test_missing_required_parameter(capsys):
    code, _, _ = run(["kappa"], capsys)
    assert code == 2


def test_unknown_flag_is_schema_error(capsys):
    code, _, _ = run(["heat", "--mass", "1", "--cutoff", "1e-13", "--nope", "1"], capsys)
    assert code == 2
