"""The option surface: the defaulted and keyword-only parameters of every
public function (a module's ``__all__``).  A new option needs an edit here."""

import importlib
import inspect
import pkgutil

import susyband

OPTIONS = {
    "analysis.shooting_eigenvalue": ("x_lo", "x_hi"),
    "cli.run": ("argv",),
    "floquet.cell_matrices": ("rtol",),
    "floquet.propagate": ("samples",),
    "floquet.transfer_matrices": ("rtol",),
    "scenarios.run_scenario": ("periods", "samples_per_period"),
    "seeds.bloch_seed": ("periods", "samples_per_period"),
    "seeds.general_seed": ("periods", "samples_per_period"),
    "seeds.node_scan": ("scan_resolution", "periods"),
    "seeds.nodeless_mixing": ("scan_resolution",),
}


def test_option_surface():
    found = {}
    for info in pkgutil.iter_modules(susyband.__path__):
        module = importlib.import_module(f"susyband.{info.name}")
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name)
            if not inspect.isfunction(fn):
                continue
            options = tuple(
                p.name
                for p in inspect.signature(fn).parameters.values()
                if p.default is not p.empty or p.kind is p.KEYWORD_ONLY
            )
            if options:
                found[f"{info.name}.{name}"] = options
    assert found == OPTIONS
