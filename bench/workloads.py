"""The three seeded workloads: request generation, the requests, their checks.

Each workload is a closed loop: one caller in one process sends the next
request only after the previous one has returned.  ``setup(seed, workdir)``
turns the seed into a batch of requests; everything the program receives is
in those requests.  Parameters are drawn by stratified sampling: each
request owns a fixed stratum of the parameter range and draws uniformly
inside it, so every batch spans the whole range and two seeds give batches
of similar cost.

A request fails when the program exits non-zero, raises, or returns
something a check rejects.  A failure never stops the batch.  A request is
also *wrong* when a number it returned is off by more than the acceptance
tolerance; an incomplete answer, such as a band list with edges missing,
fails without being wrong.
"""

from __future__ import annotations

import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from susyband import analysis, cli, darboux, potentials, scenarios, seeds

from oracle import lame_edges

# acceptance-suite tolerances
EDGE_TOL = 1e-6
RICCATI_TOL = 1e-6
DECAY_TOL = 0.05
SHOOTING_TOL = 1e-3
BAND_DEV_TOL = 1e-5
PRODUCT_TOL = 1e-4
NOT_INVARIANT_MIN = 1e-2

# default seed window of the CLI: 16 periods of 2048 samples, one CSV row each
TRANSFORM_CSV_LINES = 16 * 2048 + 1 + 1
SWEEP_CSV_LINES = 800 + 1

# created levels of the non-Bloch presets, from the paper's captions
PRESET_LEVELS = {"fig3a": (0.0,), "fig3b": (0.4,), "fig3c": (1.2, 1.3), "fig3d": (1.51, 2.51)}


@dataclass
class Outcome:
    failure: str | None = None
    wrong: bool = False
    errors: dict = field(default_factory=dict)  # accuracy metric -> value


@dataclass
class Request:
    label: str
    call: Callable[[Path], object]  # the timed program call
    check: Callable[[object, Path], Outcome]


def _stratum(rng, k: int, strata: int, lo: float, hi: float) -> float:
    return lo + (hi - lo) * (k + rng.uniform()) / strata


def _offset(rng, lo: float = 0.1, hi: float = 0.5) -> float:
    """Distance of a factorization energy below the lowest band edge."""
    return lo + (hi - lo) * rng.uniform()


def _cli(argv: list[str], out: Path) -> int:
    """One CLI request, run in-process, its stdout and stderr kept in `out`."""
    out.mkdir(parents=True)
    with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w") as se:
        with redirect_stdout(so), redirect_stderr(se):
            return cli.run(argv + ["--out", str(out)])


def _exit_failure(rc: int, out: Path) -> Outcome:
    message = (out / "stderr.txt").read_text().strip().splitlines()
    return Outcome(failure=f"exit {rc}: {message[-1] if message else ''}")


def _lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


class Bands:
    """CLI ``bands --lame-n N --lame-m M`` with the default window and sweep.

    Six strata of m in [0.2, 0.95]; the index in each is fixed so that every
    batch has each n twice, n = 3 in the lowest stratum (where the default
    window misses its top edges) and n = 3 in the highest (the slow m -> 1
    regime).
    """

    M_RANGE = (0.2, 0.95)
    LAYOUT = (3, 1, 2, 1, 2, 3)

    def setup(self, seed: int, workdir: Path) -> list[Request]:
        rng = np.random.default_rng(seed)
        params = [
            (n, _stratum(rng, k, len(self.LAYOUT), *self.M_RANGE))
            for k, n in enumerate(self.LAYOUT)
        ]
        rng.shuffle(params)
        return [self._request(n, m) for n, m in params]

    @staticmethod
    def _request(n: int, m: float) -> Request:
        def call(out):
            return _cli(["bands", "--lame-n", str(n), "--lame-m", repr(m)], out)

        def check(rc, out):
            if rc != 0:
                return _exit_failure(rc, out)
            found = json.loads((out / "edges.json").read_text())["edges"]
            exact = lame_edges(n, m)
            err = max((min(abs(e - x) for x in exact) for e in found), default=0.0)
            outcome = Outcome(errors={"edge_abs_err_max": err})
            if err > EDGE_TOL or len(found) > len(exact):
                outcome.wrong = True
                outcome.failure = f"edges off by {err:.3g} ({len(found)} of {len(exact)})"
            elif _lines(out / "discriminant.csv") != SWEEP_CSV_LINES:
                outcome.wrong = True
                outcome.failure = "discriminant sweep has the wrong length"
            elif len(found) < len(exact):
                outcome.failure = f"found {len(found)} of {len(exact)} edges"
            return outcome

        return Request(f"bands n={n} m={m:.4f}", call, check)


class Transform:
    """CLI ``transform`` requests: nine ``--config`` ones, three presets.

    Config requests: order 1 with a Bloch seed, order 1 with a general seed
    (both below the spectrum), order 2 with two Bloch seeds in the first gap;
    each for n = 1, 2, 3.  m comes from nine strata of [0.2, 0.9], assigned
    as a Latin square so that every kind and every n sees low, middle and
    high m.  Presets: fig3c and
    fig3d (order-2 non-Bloch seeds, the only route into the scenario pair
    search) and one of fig3a/fig3b.  Set-up warms the m = 1/2 band cache the
    presets use.
    """

    M_RANGE = (0.2, 0.9)
    KINDS = ("bloch1", "general1", "bloch2")

    def setup(self, seed: int, workdir: Path) -> list[Request]:
        rng = np.random.default_rng(seed)
        requests = []
        for row, kind in enumerate(self.KINDS):
            for n in (1, 2, 3):
                m = _stratum(rng, 3 * ((n - 1 + row) % 3) + row, 9, *self.M_RANGE)
                config = workdir / f"{kind}_n{n}.json"
                config.write_text(json.dumps(self._config(rng, kind, n, m)))
                requests.append(self._config_request(kind, n, m, config))
        for name in ("fig3c", "fig3d", str(rng.choice(["fig3a", "fig3b"]))):
            requests.append(self._preset_request(name))
        rng.shuffle(requests)
        for n in (1, 2):
            scenarios.band_structure_for(potentials.lame(n, 0.5))
        return requests

    @staticmethod
    def _config(rng, kind: str, n: int, m: float) -> dict:
        edges = lame_edges(n, m)
        doc = {"potential": {"kind": "lame", "n": n, "m": m}}
        if kind == "bloch2":
            lo, hi = edges[1], edges[2]
            first = lo + (hi - lo) * (0.15 + 0.3 * rng.uniform())
            second = lo + (hi - lo) * (0.55 + 0.3 * rng.uniform())
            doc.update(order=2, seed="bloch", seeds=[{"epsilon": first}, {"epsilon": second}])
        else:
            seed_kind = "bloch" if kind == "bloch1" else "general"
            doc.update(order=1, seed=seed_kind, epsilon=edges[0] - _offset(rng))
        return doc

    @staticmethod
    def _config_request(kind: str, n: int, m: float, config: Path) -> Request:
        def call(out):
            return _cli(["transform", "--config", str(config)], out)

        def check(rc, out):
            if rc != 0:
                return _exit_failure(rc, out)
            diag = json.loads((out / "diagnostics.json").read_text())
            outcome = _check_kernel(diag, out, 1 if kind == "general1" else 0, None)
            if outcome.failure is None and diag.get("riccati_residual", 0.0) > RICCATI_TOL:
                outcome.wrong = True
                outcome.failure = f"Riccati residual {diag['riccati_residual']:.3g}"
            if outcome.failure is None and kind == "bloch1" and n == 1:
                # below the spectrum the n = 1 partner is a displaced copy
                residual = diag["displacement"]["residual"]
                if not residual < PRODUCT_TOL:
                    outcome.wrong = True
                    outcome.failure = f"n = 1 partner not a displaced copy ({residual:.3g})"
            return outcome

        return Request(f"transform {kind} n={n} m={m:.4f}", call, check)

    @staticmethod
    def _preset_request(name: str) -> Request:
        def call(out):
            return _cli(["transform", "--scenario", name], out)

        def check(rc, out):
            if rc != 0:
                return _exit_failure(rc, out)
            diag = json.loads((out / "diagnostics.json").read_text())
            return _check_kernel(diag, out, len(PRESET_LEVELS[name]), PRESET_LEVELS[name])

        return Request(f"transform {name}", call, check)


def _check_kernel(diag: dict, out: Path, expected: int, levels) -> Outcome:
    """Normalizable kernel states: count, energies, decay against Floquet."""
    bound = [k for k in diag["kernel"] if k["normalizable"]]
    errs = [abs(k["decay_rate"] - k["expected_decay_rate"]) / k["expected_decay_rate"]
            for k in bound]
    outcome = Outcome(errors={"decay_rel_err_max": max(errs, default=0.0)})
    if len(bound) != expected:
        outcome.failure = f"{len(bound)} normalizable kernel states, expected {expected}"
    elif levels is not None and sorted(k["epsilon"] for k in bound) != sorted(levels):
        outcome.failure = f"created levels {[k['epsilon'] for k in bound]}, expected {levels}"
    elif max(errs, default=0.0) > DECAY_TOL:
        outcome.failure = f"decay rate off by {max(errs):.3g}"
    elif _lines(out / "transform.csv") != TRANSFORM_CSV_LINES:
        outcome.failure = "transform CSV has the wrong length"
    outcome.wrong = outcome.failure is not None
    return outcome


class Verify:
    """Library calls into ``analysis`` on partners built during set-up.

    Shooting on order-1 general-seed partners (n = 1 and 3),
    ``compare_band_structure`` on order-1 Bloch partners over their first two
    bands (n = 1, 2, 3), and ``invariance_test`` for n = 1 (invariant) and
    n = 2 (not).  m is drawn from [0.45, 0.55], around the m = 1/2 of the
    paper's figures, and energies lie 0.2 to 0.4 below the lowest edge: the
    cost of one shooting call grows by a third from m = 0.4 to 0.6 and
    threefold from 0.2 to 0.9, and a batch holds only two of them.  ``bands``
    and ``transform`` vary m over its range.
    """

    M_RANGE = (0.45, 0.55)
    OFFSET_RANGE = (0.2, 0.4)

    def setup(self, seed: int, workdir: Path) -> list[Request]:
        rng = np.random.default_rng(seed)
        requests = []
        for n in (1, 3):
            v, eps, edges = self._draw(rng, n)
            mix = seeds.nodeless_mixing(v, eps)
            result = darboux.susy1(v, seeds.general_seed(v, eps, *mix))
            requests.append(self._shooting(n, eps, edges[0], result))
        for n in (1, 2, 3):
            v, eps, edges = self._draw(rng, n)
            partner = darboux.susy1(v, seeds.bloch_seed(v, eps)[0]).partner
            top = edges[3] if len(edges) > 3 else 2.0 * edges[2] - edges[0]
            requests.append(self._compare(n, v, partner, np.linspace(edges[0], top, 50)))
        for n in (1, 2):
            v, eps, _ = self._draw(rng, n)
            requests.append(self._invariance(n, v, eps))
        rng.shuffle(requests)
        return requests

    def _draw(self, rng, n: int):
        m = float(rng.uniform(*self.M_RANGE))
        edges = lame_edges(n, m)
        return potentials.lame(n, m), edges[0] - _offset(rng, *self.OFFSET_RANGE), edges

    @staticmethod
    def _shooting(n, eps, lowest_edge, result) -> Request:
        x = result.x

        def call(out):
            return analysis.shooting_eigenvalue(
                result.partner, eps - 0.05, min(eps + 0.05, lowest_edge - 1e-3),
                x_lo=x[0], x_hi=x[-1],
            )

        def check(found, out):
            if found is None:
                return Outcome(failure="no eigenvalue bracketed")
            err = abs(found - eps)
            if err > SHOOTING_TOL:
                return Outcome(f"eigenvalue off by {err:.3g}", wrong=True,
                               errors={"eig_abs_err_max": err})
            return Outcome(errors={"eig_abs_err_max": err})

        return Request(f"shooting n={n} eps={eps:.4f}", call, check)

    @staticmethod
    def _compare(n, v, partner, grid) -> Request:
        def call(out):
            return analysis.compare_band_structure(v, partner, grid)

        def check(dev, out):
            if dev > BAND_DEV_TOL:
                return Outcome(f"band deviation {dev:.3g}", wrong=True,
                               errors={"band_dev_max": dev})
            return Outcome(errors={"band_dev_max": dev})

        return Request(f"compare n={n} m={v.m:.4f}", call, check)

    @staticmethod
    def _invariance(n, v, eps) -> Request:
        def call(out):
            return analysis.invariance_test(v, eps)

        def check(report, out):
            if n == 1 and not (report.invariant and report.residual_product < PRODUCT_TOL):
                return Outcome(f"n = 1 not invariant ({report.residual_product:.3g})", wrong=True)
            if n != 1 and (report.invariant or report.residual_displacement <= NOT_INVARIANT_MIN):
                return Outcome(f"n = {n} reported invariant", wrong=True)
            return Outcome()

        return Request(f"invariance n={n} m={v.m:.4f}", call, check)


WORKLOADS = {"bands": Bands, "transform": Transform, "verify": Verify}
ACCURACY = ("edge_abs_err_max", "decay_rel_err_max", "eig_abs_err_max", "band_dev_max")
