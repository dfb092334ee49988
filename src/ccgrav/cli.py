"""Command-line front end: batch runs with deterministic JSON/CSV output.

Every run resolves to (command, params); parameters come from an optional
JSON config file (schema-versioned, unknown fields rejected) with CLI flags
taking precedence.  Outputs embed the SHA-256 hash of the resolved config
and the numeric tolerances in force, floats are rendered to 12 significant
digits, and identical configs produce byte-identical files.  Exit codes:
0 success, 2 schema violation or an input the library rejects, 3 numerical
failure (no convergence, or a result that is not finite).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import analytics, bounds
from .dynamics import AncillaOscillator, NoiseGenerator, generator_residual
from .errors import CcgravError
from .fock import FockBasis
from .lattice import CouplingKernel, LatticeSpec

SCHEMA_VERSION = 1


class SchemaViolation(Exception):
    """Config or flag usage that fails validation (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse hook
        raise SchemaViolation(message)


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"result {x!r} is not finite")
    return format(float(x), ".12g")


def _round12(value):
    """Round floats to 12 significant digits so JSON output is fixed-format."""
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


# Parameter tables: name -> (python type, default or REQUIRED, help).
_REQUIRED = object()

PARAM_SPECS: dict[str, dict[str, tuple]] = {
    "bounds": {
        "preset": (str, None, "scenario preset: molecule, bec or earth"),
        "experiment": (str, None, "explicit scenario type: interferometry or heating"),
        "mass": (float, None, "mass in kg"),
        "separation": (float, None, "superposition size in m (interferometry)"),
        "time": (float, None, "coherence time in s (interferometry)"),
        "power": (float, None, "power budget in W (heating)"),
    },
    "kappa": {
        "D": (float, _REQUIRED, "pair separation in units of the spacing"),
        "scale": (float, 1.0, "coupling prefactor G m^2 / (2 hbar), internal units"),
        "spacing": (float, 1.0, "lattice spacing, internal units"),
        "radius": (float, analytics.DEFAULT_CUTOFF_RADIUS, "lattice-sum cutoff radius"),
        "tolerance": (float, analytics.DEFAULT_TOLERANCE, "relative truncation tolerance"),
    },
    "integral": {
        "D": (float, _REQUIRED, "dimensionless separation"),
        "rel_tol": (float, 1e-3, "relative convergence target"),
    },
    "dephase": {
        "D": (float, None, "pair separation in units of the spacing"),
        "xi": (float, None, "evaluate the rate at this measurement strength"),
        "scale": (float, 1.0, "coupling prefactor, internal units"),
        "spacing": (float, 1.0, "lattice spacing, internal units"),
        "radius": (float, analytics.DEFAULT_CUTOFF_RADIUS, "lattice-sum cutoff radius"),
        "tolerance": (float, analytics.DEFAULT_TOLERANCE, "relative truncation tolerance"),
        "mass": (float, None, "mass in kg (SI estimate)"),
        "cutoff": (float, None, "cutoff length in m (SI estimate)"),
        "separation": (float, None, "superposition size in m (SI estimate)"),
    },
    "heat": {
        "mass": (float, _REQUIRED, "mass in kg"),
        "cutoff": (float, _REQUIRED, "cutoff length in m"),
    },
    "circuit-check": {
        "sites": (int, 2, "number of lattice sites (1D chain)"),
        "particles": (int, 1, "total particle number"),
        "tau": (float, 1e-3, "largest step duration"),
        "halvings": (int, 3, "number of tau halvings"),
        "xi": (float, 1.0, "measurement strength"),
        "levels": (int, 24, "ancilla truncation"),
        "site": (int, 0, "lattice site the circuit acts on"),
    },
    "sweep": {
        "quantity": (str, _REQUIRED, "one of: rate, integral, heating"),
        "grid": ("floatlist", _REQUIRED, "comma-separated grid for the swept parameter"),
        "kappa_sq": (float, None, "fixed kappa^2 (quantity=rate)"),
        "mass": (float, None, "mass in kg (quantity=heating)"),
        "rel_tol": (float, 1e-3, "relative convergence target (quantity=integral)"),
    },
}

CSV_COMMANDS = {"circuit-check", "sweep"}


def _build_parser() -> _Parser:
    parser = _Parser(prog="ccgrav", description=__doc__)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--output", help="output path (default: stdout)")
    parser.add_argument("--format", choices=["json", "csv"], help="output format")
    sub = parser.add_subparsers(dest="command")
    for command, spec in PARAM_SPECS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--format", choices=["json", "csv"], help="output format")
        for name, (kind, default, help_text) in spec.items():
            flag = "--" + name.replace("_", "-")
            if kind == "floatlist":
                p.add_argument(flag, dest=name, help=help_text)
            else:
                p.add_argument(flag, dest=name, type=kind, help=help_text)
    return parser


def _finite(value) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError
    return out


def _coerce(command: str, name: str, value):
    kind, _default, _help = PARAM_SPECS[command][name]
    try:
        if kind == "floatlist":
            if isinstance(value, str):
                return [_finite(v) for v in value.split(",") if v.strip()]
            return [_finite(v) for v in value]
        if kind is int:
            if isinstance(value, float) and value != int(value):
                raise ValueError
            return int(value)
        if kind is float:
            return _finite(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaViolation(f"parameter {name!r} of command {command!r}: bad value {value!r}")


def _resolve_params(command: str, file_params: dict, cli_params: dict) -> dict:
    spec = PARAM_SPECS[command]
    params = {}
    for name, (_kind, default, _help) in spec.items():
        if default is not _REQUIRED:
            params[name] = default
    for name, value in file_params.items():
        if name not in spec:
            raise SchemaViolation(f"unknown parameter {name!r} for command {command!r}")
        params[name] = _coerce(command, name, value)
    for name, value in cli_params.items():
        if value is not None:
            params[name] = _coerce(command, name, value)
    for name, (_kind, default, _help) in spec.items():
        if default is _REQUIRED and name not in params:
            raise SchemaViolation(f"command {command!r} requires parameter {name!r}")
    return params


def _load_config(path: str) -> tuple[str | None, dict, dict]:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SchemaViolation(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"config file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise SchemaViolation("config file must hold a JSON object")
    allowed = {"schema_version", "command", "params", "output", "format"}
    unknown = set(raw) - allowed
    if unknown:
        raise SchemaViolation(f"unknown config fields: {sorted(unknown)}")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise SchemaViolation(
            f"config schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise SchemaViolation("config 'params' must be an object")
    meta = {k: raw[k] for k in ("output", "format") if k in raw}
    return raw.get("command"), params, meta


def _config_hash(command: str, params: dict) -> str:
    canonical = json.dumps(
        {"schema_version": SCHEMA_VERSION, "command": command, "params": params},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _tolerances(command: str, params: dict) -> dict:
    keys = ("tolerance", "rel_tol", "radius")
    return {k: params[k] for k in keys if k in params and params[k] is not None}


# ---------------------------------------------------------------------------
# Command implementations.  Each returns either a dict (JSON result) or a
# (header, rows) pair for CSV output.


def _run_bounds(params: dict):
    preset = params.get("preset")
    if preset is not None:
        presets = {
            "molecule": bounds.molecule_scenario,
            "bec": bounds.rubidium_bec_scenario,
            "earth": bounds.earth_scenario,
        }
        if preset not in presets:
            raise SchemaViolation(f"unknown preset {preset!r}")
        report = bounds.bound_for_scenario(presets[preset]())
        return report.as_dict()
    experiment = params.get("experiment")
    if experiment == "interferometry":
        needed = ("mass", "separation", "time")
        if any(params.get(k) is None for k in needed):
            raise SchemaViolation("interferometry needs mass, separation and time")
        report = bounds.interferometry_bound(
            params["mass"], params["separation"], params["time"]
        )
        return report.as_dict()
    if experiment == "heating":
        if any(params.get(k) is None for k in ("mass", "power")):
            raise SchemaViolation("heating needs mass and power")
        report = bounds.heating_bound(params["mass"], params["power"])
        return report.as_dict()
    raise SchemaViolation("bounds needs either a preset or an experiment block")


def _run_kappa(params: dict):
    result = analytics.kappa_sq(
        params["D"],
        scale=params["scale"],
        spacing=params["spacing"],
        cutoff_radius=params["radius"],
        tolerance=params["tolerance"],
    )
    return result.as_dict()


def _run_integral(params: dict):
    value = analytics.integral_I(params["D"], rel_tol=params["rel_tol"])
    return {
        "separation": params["D"],
        "value": value,
        "lower_bound": analytics.asymptotic_lower_bound(params["D"]),
    }


def _run_dephase(params: dict):
    has_internal = params.get("D") is not None
    si_keys = ("mass", "cutoff", "separation")
    has_si = all(params.get(k) is not None for k in si_keys)
    if has_internal == has_si:
        raise SchemaViolation(
            "dephase needs exactly one of: --D (internal units) or "
            "--mass/--cutoff/--separation (SI)"
        )
    if has_si:
        rate = analytics.min_dephasing_estimate(
            params["mass"], params["cutoff"], params["separation"]
        )
        return {
            "mass_kg": params["mass"],
            "cutoff_m": params["cutoff"],
            "separation_m": params["separation"],
            "min_rate_per_s": rate,
        }
    result = analytics.kappa_sq(
        params["D"],
        scale=params["scale"],
        spacing=params["spacing"],
        cutoff_radius=params["radius"],
        tolerance=params["tolerance"],
    )
    estimate = analytics.dephasing_estimate(result.kappa_sq)
    out = result.as_dict()
    out.update({"xi_opt": estimate.xi_opt, "min_rate": estimate.min_rate})
    if params.get("xi") is not None:
        out["xi"] = params["xi"]
        out["rate_at_xi"] = estimate.rate_at(params["xi"])
    return out


def _run_heat(params: dict):
    rate = analytics.heating_rate(params["mass"], params["cutoff"])
    return {
        "mass_kg": params["mass"],
        "cutoff_m": params["cutoff"],
        "heating_rate_w": rate,
    }


def _run_circuit_check(params: dict):
    sites, particles = params["sites"], params["particles"]
    if sites < 2:
        raise SchemaViolation("circuit-check needs at least 2 sites")
    if particles < 1:
        raise SchemaViolation("circuit-check needs at least 1 particle")
    lattice = LatticeSpec.chain(sites)
    basis = FockBasis(sites, particles)
    gen = NoiseGenerator(basis, CouplingKernel(lattice), params["xi"])
    anc = AncillaOscillator(params["levels"])
    amp = np.ones(basis.dim, dtype=complex) / math.sqrt(basis.dim)
    rho = np.outer(amp, amp.conj())
    rows = []
    tau = params["tau"]
    for _ in range(params["halvings"] + 1):
        residual = generator_residual(rho, params["site"], gen, tau, anc)
        rows.append((tau, residual))
        tau *= 0.5
    return ["tau", "residual"], rows


def _run_sweep(params: dict):
    quantity = params["quantity"]
    grid = params["grid"]
    if not grid:
        raise SchemaViolation("sweep needs a nonempty grid")

    if quantity == "rate":
        if params.get("kappa_sq") is None:
            raise SchemaViolation("sweep rate needs --kappa-sq")
        kappa2 = params["kappa_sq"]
        task = lambda xi: (xi, analytics.dephasing_rate(kappa2, xi))
        header = ["xi", "rate"]
    elif quantity == "integral":
        rel_tol = params["rel_tol"]
        task = lambda D: (
            D,
            analytics.integral_I(D, rel_tol=rel_tol),
            analytics.asymptotic_lower_bound(D),
        )
        header = ["separation", "value", "lower_bound"]
    elif quantity == "heating":
        if params.get("mass") is None:
            raise SchemaViolation("sweep heating needs --mass")
        mass = params["mass"]
        task = lambda a: (a, analytics.heating_rate(mass, a))
        header = ["cutoff_m", "heating_rate_w"]
    else:
        raise SchemaViolation(f"unknown sweep quantity {quantity!r}")

    return header, [task(v) for v in grid]


RUNNERS = {
    "bounds": _run_bounds,
    "kappa": _run_kappa,
    "integral": _run_integral,
    "dephase": _run_dephase,
    "heat": _run_heat,
    "circuit-check": _run_circuit_check,
    "sweep": _run_sweep,
}


def _render_json(command: str, params: dict, result: dict) -> str:
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config_hash": _config_hash(command, params),
        "tolerances": _tolerances(command, params),
        "result": _round12(result),
    }
    return json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _render_csv(command: str, params: dict, header: list, rows: list) -> str:
    config_hash = _config_hash(command, params)
    lines = [",".join(header + ["config_hash"])]
    for row in rows:
        lines.append(",".join([_fmt(v) for v in row] + [config_hash]))
    return "\n".join(lines) + "\n"


def _rows_to_json(header: list, rows: list) -> dict:
    return {"rows": [dict(zip(header, row)) for row in rows]}


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        command = args.command
        file_params: dict = {}
        meta: dict = {}
        if args.config:
            file_command, file_params, meta = _load_config(args.config)
            if command is None:
                command = file_command
            elif file_command is not None and file_command != command:
                raise SchemaViolation(
                    f"config file names command {file_command!r} but the CLI asked "
                    f"for {command!r}"
                )
        if command is None:
            raise SchemaViolation("no command given (flag or config file)")
        if command not in PARAM_SPECS:
            raise SchemaViolation(f"unknown command {command!r}")
        cli_params = {
            name: getattr(args, name, None) for name in PARAM_SPECS[command]
        }
        params = _resolve_params(command, file_params, cli_params)
        output = args.output or meta.get("output")
        fmt = args.format or meta.get("format") or (
            "csv" if command in CSV_COMMANDS else "json"
        )
        if fmt == "csv" and command not in CSV_COMMANDS:
            raise SchemaViolation(f"command {command!r} only emits JSON")

        try:
            outcome = RUNNERS[command](params)
        except ValueError as exc:  # inputs the library itself rejects
            raise SchemaViolation(str(exc)) from exc
        if command in CSV_COMMANDS:
            header, rows = outcome
            if fmt == "csv":
                text = _render_csv(command, params, header, rows)
            else:
                text = _render_json(command, params, _rows_to_json(header, rows))
        else:
            text = _render_json(command, params, outcome)
        _emit(text, output)
        return 0
    except SchemaViolation as exc:
        record = {"error": {"kind": "schema", "message": str(exc)}}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 2
    except (CcgravError, ArithmeticError, ValueError) as exc:
        # ValueError here is a non-finite result refused by the renderers
        record = {
            "error": {"kind": type(exc).__name__, "message": str(exc)}
        }
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 3


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
