"""Command-line front end.

Subcommands: bands, transform, invariance, states.  Inputs come from a JSON
config (--config), a named built-in scenario (--scenario), or flags; output
is CSV/JSON under --out, written deterministically (12 significant digits,
no randomness anywhere in the pipeline) so identical runs are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical/scenario error.

Environment overrides: SUSYBAND_SAMPLES_PER_PERIOD, SUSYBAND_PERIODS,
SUSYBAND_RTOL, SUSYBAND_EDGE_TOL.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import floquet
from .analysis import displacement_fit, invariance_test
from .darboux import susy1, susy2, write_transform_csv
from .errors import (
    BandEnergyError,
    EllipticDomainError,
    SeedConsistencyError,
    SingularSeedError,
    SingularTransformError,
    StiffIntegrationError,
    WindowOverflowError,
)
from .potentials import LamePotential, Potential, lame, potential_from_dict
from .scenarios import SCENARIOS, run_scenario
from .seeds import bloch_seed, general_seed, nodeless_mixing, write_seed_csv

__all__ = ["main", "run"]


class ConfigError(ValueError):
    pass


_NUMERICAL_ERRORS = (
    BandEnergyError,
    EllipticDomainError,
    SeedConsistencyError,
    SingularSeedError,
    SingularTransformError,
    StiffIntegrationError,
    WindowOverflowError,
)


def _env_overrides() -> dict:
    opts = {}
    mapping = {
        "SUSYBAND_SAMPLES_PER_PERIOD": ("samples_per_period", int),
        "SUSYBAND_PERIODS": ("periods", int),
        "SUSYBAND_RTOL": ("rtol", float),
        "SUSYBAND_EDGE_TOL": ("edge_tol", float),
    }
    for var, (key, cast) in mapping.items():
        raw = os.environ.get(var)
        if raw is not None:
            try:
                opts[key] = cast(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {var}: {raw!r}") from exc
            if cast is int and opts[key] <= 0:
                raise ConfigError(f"{var} must be positive, got {raw!r}")
    return opts


def _seed_kwargs(opts) -> dict:
    """The overrides that seed construction and scenarios accept."""
    return {k: opts[k] for k in ("periods", "samples_per_period", "rtol") if k in opts}


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
    rtol = opts.get("rtol", floquet.DEFAULT_RTOL)
    edge_tol = opts.get("edge_tol", floquet.EDGE_TOL)
    bands = floquet.band_edges(
        v, float(e_min), float(e_max), edge_tol=edge_tol, rtol=rtol
    )
    out = _out_dir(args)
    _write_json(
        out / "edges.json",
        _float_tree(
            {
                "edges": list(bands.edges),
                "kinds": list(bands.kinds),
                "bands": [list(b) for b in bands.bands],
                "gaps": [list(g) for g in bands.gaps],
                "touching": list(bands.touching),
                "window": list(bands.window),
            }
        ),
    )
    sweep = np.linspace(float(e_min), float(e_max), args.sweep_points)
    with (out / "discriminant.csv").open("w", newline="\n") as fh:
        floquet.write_discriminant_csv(fh, v, sweep, edge_tol, rtol=rtol)
    print(f"wrote {out / 'edges.json'} ({len(bands.edges)} edges)")
    print(f"wrote {out / 'discriminant.csv'}")
    return 0


def _transform_from_config(v, config, opts):
    order = int(config.get("order", 1))
    seed_kind = config.get("seed", "bloch")
    kwargs = _seed_kwargs(opts)

    def one_seed(spec):
        eps = float(spec["epsilon"])
        kind = spec.get("seed", seed_kind)
        if kind == "bloch":
            return bloch_seed(v, eps, **kwargs)[0]
        if kind == "general":
            if "c_plus" in spec:
                return general_seed(v, eps, float(spec["c_plus"]), float(spec["c_minus"]), **kwargs)
            mix = nodeless_mixing(v, eps, **{k: kwargs[k] for k in kwargs if k != "samples_per_period"})
            return general_seed(v, eps, *mix, **kwargs)
        raise ConfigError(f"unknown seed kind {kind!r}")

    if order == 1:
        seed = one_seed(config)
        return susy1(v, seed)
    specs = config.get("seeds")
    if not specs or len(specs) != 2:
        raise ConfigError("order-2 transform config needs a two-element 'seeds' list")
    return susy2(v, one_seed(specs[0]), one_seed(specs[1]))


def cmd_transform(args, config, opts) -> int:
    out = _out_dir(args)
    if args.scenario:
        if args.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {args.scenario!r}")
        run = run_scenario(args.scenario, **_seed_kwargs(opts))
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
    report = invariance_test(v, float(eps), **_seed_kwargs(opts))
    out = _out_dir(args)
    _write_json(out / "invariance.json", _float_tree(report.to_dict()))
    print(f"wrote {out / 'invariance.json'} (verdict: {report.verdict})")
    return 0


def cmd_states(args, config, opts) -> int:
    v = _resolve_potential(args, config)
    eps = args.epsilon if args.epsilon is not None else config.get("epsilon")
    if eps is None:
        raise ConfigError("states needs an epsilon (--epsilon or config)")
    kwargs = _seed_kwargs(opts)
    c_plus = args.c_plus if args.c_plus is not None else config.get("c_plus")
    c_minus = args.c_minus if args.c_minus is not None else config.get("c_minus")
    if c_plus is not None or c_minus is not None:
        seed = general_seed(v, float(eps), float(c_plus or 0.0), float(c_minus or 0.0), **kwargs)
        seeds = [seed]
    else:
        seeds = list(bloch_seed(v, float(eps), **kwargs))
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.fn(args, config, opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
