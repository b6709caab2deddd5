"""Command-line front end.

Subcommands: bands, transform, invariance, states.  Inputs come from a JSON
config (--config), a named built-in scenario (--scenario), or flags; output
is CSV/JSON under --out, written deterministically (12 significant digits,
no randomness anywhere in the pipeline) so identical runs are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical/scenario error.

Environment overrides: SUSYBAND_SAMPLES_PER_PERIOD and SUSYBAND_PERIODS,
which reach seed construction and scenarios; the integration and band-edge
tolerances are the fixed floquet.DEFAULT_RTOL and floquet.EDGE_TOL.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import floquet
from .analysis import displacement_fit, invariance_test
from .darboux import susy1, susy2, write_transform_csv
from .errors import StiffIntegrationError
from .potentials import LamePotential, Potential, lame, potential_from_dict
from .scenarios import SCENARIOS, run_scenario
from .seeds import _growing_seed, bloch_seed, general_seed, nodeless_mixing, write_seed_csv

__all__ = ["main", "run"]


class ConfigError(ValueError):
    pass


def _env_overrides() -> dict:
    """The seed settings given by environment variables, as keyword arguments
    of seed construction and scenarios."""
    opts = {}
    for var, key in (
        ("SUSYBAND_SAMPLES_PER_PERIOD", "samples_per_period"),
        ("SUSYBAND_PERIODS", "periods"),
    ):
        raw = os.environ.get(var)
        if raw is not None:
            try:
                opts[key] = int(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {var}: {raw!r}") from exc
            if opts[key] <= 0:
                raise ConfigError(f"{var} must be positive, got {raw!r}")
    return opts


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


def _float(value, field: str) -> float:
    """value as a finite float; a missing (None), boolean or non-numeric one names the field."""
    try:
        number = float(None if isinstance(value, bool) else value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{field!r} must be a finite number, got {value!r}")
    return number


def _mixing(c_plus, c_minus) -> tuple[float, float]:
    """A general seed's coefficients (c_plus, c_minus) as floats, not both 0."""
    c = _float(c_plus, "c_plus"), _float(c_minus, "c_minus")
    if c == (0.0, 0.0):
        raise ConfigError("'c_plus' and 'c_minus' must not both vanish")
    return c


def _resolve_potential(args, config) -> Potential:
    if "potential" in config:
        try:
            return potential_from_dict(config["potential"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad potential document: {exc}") from exc
    if args.scenario:
        sc = SCENARIOS.get(args.scenario)
        if sc is None:
            raise ConfigError(f"unknown scenario {args.scenario!r}")
        return lame(sc.n, sc.m)
    if getattr(args, "lame_n", None) is not None:
        try:
            return lame(args.lame_n, args.lame_m)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError("no potential given (use --config, --scenario, or --lame-n/--lame-m)")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _float_tree(obj):
    """obj with numpy scalars as Python numbers and non-finite floats as None,
    so that the JSON written from it is strict."""
    if isinstance(obj, dict):
        return {k: _float_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_float_tree(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def cmd_bands(args, config, opts) -> int:
    if args.sweep_points <= 0:
        raise ConfigError(f"--sweep-points must be positive, got {args.sweep_points}")
    v = _resolve_potential(args, config)
    if v.period is None:
        raise ConfigError("bands needs a periodic potential")
    e_min = args.emin if args.emin is not None else config.get("e_min")
    e_max = args.emax if args.emax is not None else config.get("e_max")
    if e_min is None or e_max is None:
        if isinstance(v, LamePotential):
            e_min, e_max = v.band_window
        else:
            raise ConfigError("bands needs an energy window (--emin/--emax)")
    e_min, e_max = _float(e_min, "e_min"), _float(e_max, "e_max")
    if not e_min < e_max:
        raise ConfigError(f"'e_min' must be below 'e_max', got {e_min!r} and {e_max!r}")
    bands = floquet.band_edges(v, e_min, e_max)
    out = _out_dir(args)
    _write_json(out / "edges.json", _float_tree(dataclasses.asdict(bands)))
    sweep = np.linspace(e_min, e_max, args.sweep_points)
    with (out / "discriminant.csv").open("w", newline="\n") as fh:
        floquet.write_discriminant_csv(fh, v, sweep)
    print(f"wrote {out / 'edges.json'} ({len(bands.edges)} edges)")
    print(f"wrote {out / 'discriminant.csv'}")
    return 0


def _transform_from_config(v, config, opts):
    order = config.get("order", 1)
    if order not in (1, 2):
        raise ConfigError(f"'order' must be 1 or 2, got {order!r}")
    seed_kind = config.get("seed", "bloch")

    def epsilon(spec):
        if not isinstance(spec, dict):
            raise ConfigError(f"a seed must be a JSON object, got {spec!r}")
        return _float(spec.get("epsilon"), "epsilon")

    def one_seed(spec, eps):
        kind = spec.get("seed", seed_kind)
        if kind == "bloch":
            return _growing_seed(v, eps, **opts)[0]
        if kind == "general":
            if "c_plus" in spec:
                return general_seed(v, eps, *_mixing(spec["c_plus"], spec.get("c_minus")), **opts)
            mix = nodeless_mixing(v, eps, **{k: opts[k] for k in opts if k != "samples_per_period"})
            return general_seed(v, eps, *mix, **opts)
        raise ConfigError(f"unknown seed kind {kind!r}")

    if order == 1:
        return susy1(v, one_seed(config, epsilon(config)))
    specs = config.get("seeds")
    if not isinstance(specs, list) or len(specs) != 2:
        raise ConfigError("order-2 transform config needs a two-element 'seeds' list")
    energies = [epsilon(spec) for spec in specs]
    if energies[0] == energies[1]:
        raise ConfigError(f"the seeds' 'epsilon' values must differ, got {energies[0]!r} twice")
    return susy2(v, *map(one_seed, specs, energies))


def cmd_transform(args, config, opts) -> int:
    out = _out_dir(args)
    if args.scenario:
        if args.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {args.scenario!r}")
        run = run_scenario(args.scenario, **opts)
        result = run.result
    else:
        v = _resolve_potential(args, config)
        result = _transform_from_config(v, config, opts)
    with (out / "transform.csv").open("w", newline="\n") as fh:
        write_transform_csv(fh, result)
    diag = dict(result.diagnostics)
    diag["order"] = result.order
    diag["periodic"] = result.periodic
    diag["kernel"] = [
        {
            "epsilon": k.epsilon,
            "normalizable": k.normalizable,
            "l2_estimate": k.l2_estimate,
            "decay_rate": k.decay_rate,
            "expected_decay_rate": k.expected_decay_rate,
        }
        for k in result.kernel
    ]
    if result.periodic:
        delta, residual = displacement_fit(result.initial, result.partner)
        diag["displacement"] = {"delta": delta, "residual": residual}
    _write_json(out / "diagnostics.json", _float_tree(diag))
    print(f"wrote {out / 'transform.csv'}")
    print(f"wrote {out / 'diagnostics.json'}")
    return 0


def cmd_invariance(args, config, opts) -> int:
    v = _resolve_potential(args, config)
    eps = args.epsilon if args.epsilon is not None else config.get("epsilon")
    if eps is None:
        raise ConfigError("invariance needs an epsilon (--epsilon or config)")
    report = invariance_test(v, _float(eps, "epsilon"), **opts)
    out = _out_dir(args)
    _write_json(out / "invariance.json", _float_tree(report.to_dict()))
    print(f"wrote {out / 'invariance.json'} (verdict: {report.verdict})")
    return 0


def cmd_states(args, config, opts) -> int:
    v = _resolve_potential(args, config)
    eps = args.epsilon if args.epsilon is not None else config.get("epsilon")
    if eps is None:
        raise ConfigError("states needs an epsilon (--epsilon or config)")
    eps = _float(eps, "epsilon")
    c_plus = args.c_plus if args.c_plus is not None else config.get("c_plus")
    c_minus = args.c_minus if args.c_minus is not None else config.get("c_minus")
    if c_plus is not None or c_minus is not None:
        c = _mixing(*(0.0 if c is None else c for c in (c_plus, c_minus)))
        seeds = [general_seed(v, eps, *c, **opts)]
    else:
        seeds = list(bloch_seed(v, eps, **opts))
    out = _out_dir(args)
    names = []
    for i, seed in enumerate(seeds):
        name = f"seed_{i}.csv" if len(seeds) > 1 else "seed.csv"
        with (out / name).open("w", newline="\n") as fh:
            write_seed_csv(fh, seed)
        names.append(
            {
                "file": name,
                "epsilon": seed.epsilon,
                "kind": seed.kind,
                "multiplier": seed.multiplier,
                "coefficients": seed.coefficients,
                "node_count": seed.node_count,
                "riccati_residual": seed.riccati_residual,
            }
        )
    _write_json(out / "states.json", _float_tree({"seeds": names}))
    print(f"wrote {len(seeds)} seed trace(s) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susyband",
        description="Band structures of periodic potentials and their "
        "Darboux/SUSY partner potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--scenario", help="named built-in scenario (fig1a..fig3d)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--lame-n", type=int, dest="lame_n", help="Lame index n")
        p.add_argument("--lame-m", type=float, dest="lame_m", default=0.5, help="Lame parameter m")

    p_bands = sub.add_parser("bands", help="band edges and discriminant sweep")
    common(p_bands)
    p_bands.add_argument("--emin", type=float)
    p_bands.add_argument("--emax", type=float)
    p_bands.add_argument("--sweep-points", type=int, default=800)
    p_bands.set_defaults(fn=cmd_bands)

    p_tr = sub.add_parser("transform", help="partner potential and kernel states")
    common(p_tr)
    p_tr.set_defaults(fn=cmd_transform)

    p_inv = sub.add_parser("invariance", help="displaced-copy invariance test")
    common(p_inv)
    p_inv.add_argument("--epsilon", type=float)
    p_inv.set_defaults(fn=cmd_invariance)

    p_st = sub.add_parser("states", help="seed traces at a factorization energy")
    common(p_st)
    p_st.add_argument("--epsilon", type=float)
    p_st.add_argument("--c-plus", type=float, dest="c_plus")
    p_st.add_argument("--c-minus", type=float, dest="c_minus")
    p_st.set_defaults(fn=cmd_states)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _env_overrides()
        config = _load_config(args.config)
        return args.fn(args, config, opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, StiffIntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
