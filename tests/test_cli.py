import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest

from susyband.cli import run
from susyband.darboux import susy1, susy2, write_transform_csv
from susyband.elliptic import complete_k
from susyband.potentials import lame
from susyband.scenarios import run_scenario
from susyband.seeds import bloch_seed


def read(path):
    return path.read_bytes()


def test_bands_writes_edges(tmp_path):
    out = tmp_path / "bands"
    code = run([
        "bands", "--lame-n", "1", "--lame-m", "0.5",
        "--emin", "0", "--emax", "3", "--out", str(out),
        "--sweep-points", "40",
    ])
    assert code == 0
    doc = json.loads((out / "edges.json").read_text())
    assert len(doc["edges"]) == 3
    for found, exact in zip(doc["edges"], (0.5, 1.0, 1.5)):
        assert found == pytest.approx(exact, abs=1e-6)
    lines = (out / "discriminant.csv").read_text().strip().split("\n")
    assert lines[0] == "E,D,class_tag"
    assert len(lines) == 41


def test_bands_default_window_holds_all_edges(tmp_path):
    # at m < 0.49 the n = 3 top edges lie above the amplitude n(n+1)m + 4
    out = tmp_path / "bands"
    code = run([
        "bands", "--lame-n", "3", "--lame-m", "0.25", "--out", str(out),
        "--sweep-points", "16",
    ])
    assert code == 0
    doc = json.loads((out / "edges.json").read_text())
    assert len(doc["edges"]) == 7
    assert doc["window"] == [-0.5, 13.0]


def test_bands_config_potential(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "potential": {"kind": "constant", "value": 0.0, "period": 2.0},
        "e_min": 0.1, "e_max": 2.0,
    }))
    out = tmp_path / "free"
    assert run(["bands", "--config", str(cfg), "--out", str(out), "--sweep-points", "16"]) == 0
    doc = json.loads((out / "edges.json").read_text())
    assert doc["window"] == [0.1, 2.0]


def test_transform_scenario_diagnostics(tmp_path):
    out = tmp_path / "t"
    code = run([
        "transform", "--scenario", "fig1a", "--out", str(out),
    ])
    assert code == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["order"] == 1
    assert diag["periodic"] is True
    assert diag["displacement"]["delta"] == pytest.approx(complete_k(0.5), abs=1e-4)
    assert diag["displacement"]["residual"] < 1e-4
    header = (out / "transform.csv").read_text().split("\n", 1)[0]
    assert header == "x,V,V_partner,beta_or_alpha,psi_kernel_1,psi_kernel_2"


def test_transform_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "potential": {"kind": "lame", "n": 1, "m": 0.5},
        "order": 1,
        "seed": "general",
        "epsilon": 0.0,
    }))
    out = tmp_path / "t2"
    assert run(["transform", "--config", str(cfg), "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["periodic"] is False
    assert diag["kernel"][0]["normalizable"] is True


def test_transform_tail_from_seeded_branch(tmp_path):
    # with c_plus = 0 the seed is the decaying branch alone; the partner's
    # tail must come from it, not from the growing branch it does not contain
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "potential": {"kind": "lame", "n": 1, "m": 0.5},
        "order": 1,
        "seed": "general",
        "epsilon": -0.5,
        "c_plus": 0.0,
        "c_minus": 1.0,
    }))
    out = tmp_path / "t"
    assert run(["transform", "--config", str(cfg), "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["tail_mismatch_plus"] < 1e-8
    assert diag["tail_mismatch_minus"] < 1e-8


@pytest.mark.parametrize("energies", [(0.4,), (1.6, 2.9)])
def test_bloch_config_is_the_growing_seed(tmp_path, energies):
    # the CLI builds the growing seed alone; its table is the one from the
    # first of bloch_seed's pair
    doc = {"potential": {"kind": "lame", "n": 2, "m": 0.5}, "seed": "bloch"}
    if len(energies) == 1:
        doc.update(order=1, epsilon=energies[0])
    else:
        doc.update(order=2, seeds=[{"epsilon": e} for e in energies])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run(["transform", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    v = lame(2, 0.5)
    chosen = [bloch_seed(v, e)[0] for e in energies]
    stream = io.StringIO()
    write_transform_csv(stream, susy1(v, *chosen) if len(chosen) == 1 else susy2(v, *chosen))
    assert read(tmp_path / "t" / "transform.csv") == stream.getvalue().encode()


def _same(a, b):
    """Field by field equality of dataclasses, tuples, arrays and numbers."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_preset_bloch_seed_is_the_growing_seed():
    seed = run_scenario("fig2a").seeds[0]
    assert _same(seed, bloch_seed(lame(1, 0.5), -1.0)[0])
    assert not _same(seed, bloch_seed(lame(1, 0.5), -1.0)[1])


def test_invariance_reports(tmp_path):
    out = tmp_path / "inv"
    assert run(["invariance", "--lame-n", "1", "--epsilon", "-1", "--out", str(out)]) == 0
    doc = json.loads((out / "invariance.json").read_text())
    assert doc["verdict"] == "invariant"


def test_states_emits_traces(tmp_path):
    out = tmp_path / "st"
    assert run(["states", "--lame-n", "1", "--epsilon", "-1", "--out", str(out)]) == 0
    doc = json.loads((out / "states.json").read_text())
    assert len(doc["seeds"]) == 2
    assert (out / "seed_0.csv").exists()


def test_bands_rough_potential_exit_3(tmp_path, capsys):
    # a cubic Hermite table through a square wave has no converging Fourier
    # series, so band_edges refuses it and names the cause
    xs = [2.0 * i / 64 for i in range(65)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "potential": {
            "kind": "tabulated", "x_lo": 0.0, "dx": xs[1], "period": 2.0, "tail": None,
            "values": [1.0 if 0.5 < x < 1.5 else -1.0 for x in xs],
        },
        "e_min": -2.0, "e_max": 20.0,
    }))
    assert run(["bands", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "Fourier series does not converge" in capsys.readouterr().err


def test_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["bands", "--config", str(bad), "--out", str(tmp_path)]) == 2


_LAME1 = {"kind": "lame", "n": 1, "m": 0.5}


# explicit ids, the ones the cases had by position: a case added anywhere renames no other
@pytest.mark.parametrize("command, doc, field", [
    pytest.param("bands", {"potential": 5}, "potential", id="bands-doc0-potential"),
    pytest.param("bands", {"potential": {"kind": "shifted", "delta": 0.1, "base": [1]}},
                 "potential", id="bands-doc1-potential"),
    pytest.param("bands", {"potential": {"kind": "tabulated", "x_lo": 0.0, "dx": 0.5,
                                         "period": 1.0, "values": [0.0, 1.0, 0.0],
                                         "tail": "flat"}},
                 "potential", id="bands-doc2-potential"),
    pytest.param("transform", {"potential": _LAME1, "order": 3,
                               "seeds": [{"epsilon": 1.2}, {"epsilon": 1.4}]},
                 "'order'", id="transform-doc3-'order'"),
    pytest.param("transform", {"potential": _LAME1, "order": 1, "seed": "bloch"},
                 "'epsilon'", id="transform-doc4-'epsilon'"),
    pytest.param("bands", {"potential": _LAME1, "e_min": "x", "e_max": 3.0},
                 "'e_min'", id="bands-doc5-'e_min'"),
    pytest.param("bands", {"potential": _LAME1, "e_min": 3.0, "e_max": 3.0},
                 "'e_min'", id="bands-doc6-'e_min'"),
    pytest.param("invariance", {"potential": _LAME1, "epsilon": "x"},
                 "'epsilon'", id="invariance-doc7-'epsilon'"),
    pytest.param("states", {"potential": _LAME1, "epsilon": -1.0, "c_plus": "x"},
                 "'c_plus'", id="states-doc8-'c_plus'"),
    pytest.param("states", {"potential": _LAME1, "epsilon": -1.0, "c_plus": ""},
                 "'c_plus'", id="states-doc9-'c_plus'"),
    pytest.param("states", {"potential": _LAME1, "epsilon": -1.0, "c_plus": False, "c_minus": 1.0},
                 "'c_plus'", id="states-doc10-'c_plus'"),
    pytest.param("states", {"potential": _LAME1, "epsilon": -1.0, "c_plus": [], "c_minus": 1.0},
                 "'c_plus'", id="states-doc11-'c_plus'"),
    pytest.param("states", {"potential": _LAME1, "epsilon": -1.0, "c_plus": 1.0, "c_minus": True},
                 "'c_minus'", id="states-doc12-'c_minus'"),
    pytest.param("states", {"potential": _LAME1, "epsilon": -1.0, "c_plus": 0, "c_minus": -0.0},
                 "'c_minus'", id="states-doc13-'c_minus'"),
    pytest.param("states", {"potential": _LAME1, "epsilon": -1.0, "c_minus": 0.0},
                 "'c_plus'", id="states-doc14-'c_plus'"),
    # non-finite numbers, as strings and as the NaN / Infinity literals
    pytest.param("states", {"potential": _LAME1, "epsilon": "nan"},
                 "'epsilon'", id="states-doc15-'epsilon'"),
    pytest.param("states", {"potential": _LAME1, "epsilon": math.nan},
                 "'epsilon'", id="states-doc16-'epsilon'"),
    pytest.param("states", {"potential": _LAME1, "epsilon": -1.0, "c_plus": "inf", "c_minus": 1.0},
                 "'c_plus'", id="states-doc17-'c_plus'"),
    pytest.param("states", {"potential": _LAME1, "epsilon": -1.0, "c_plus": 1.0,
                            "c_minus": -math.inf},
                 "'c_minus'", id="states-doc18-'c_minus'"),
    pytest.param("transform", {"potential": _LAME1, "order": 1, "seed": "bloch", "epsilon": "inf"},
                 "'epsilon'", id="transform-doc19-'epsilon'"),
    pytest.param("transform", {"potential": _LAME1, "order": 2,
                               "seeds": [{"epsilon": -1.0}, {"epsilon": math.nan}]},
                 "'epsilon'", id="transform-doc20-'epsilon'"),
    pytest.param("transform", {"potential": _LAME1, "order": 1, "seed": "general", "epsilon": -1.0,
                               "c_plus": math.inf, "c_minus": 1.0},
                 "'c_plus'", id="transform-doc21-'c_plus'"),
    pytest.param("invariance", {"potential": _LAME1, "epsilon": "-inf"},
                 "'epsilon'", id="invariance-doc22-'epsilon'"),
    pytest.param("bands", {"potential": _LAME1, "e_min": -math.inf, "e_max": 3.0},
                 "'e_min'", id="bands-doc23-'e_min'"),
    pytest.param("bands", {"potential": _LAME1, "e_min": 0.0, "e_max": "nan"},
                 "'e_max'", id="bands-doc24-'e_max'"),
    # a general seed needs a coefficient that is not 0, in a transform too
    pytest.param("transform", {"potential": _LAME1, "order": 1, "seed": "general", "epsilon": -1.0,
                               "c_plus": 0, "c_minus": 0},
                 "'c_plus'", id="transform-doc25-'c_plus'"),
    pytest.param("transform", {"potential": _LAME1, "order": 2, "seed": "general",
                               "seeds": [{"epsilon": -1.0, "c_plus": 1.0, "c_minus": 0.0},
                                         {"epsilon": -0.5, "c_plus": -0.0, "c_minus": 0.0}]},
                 "'c_minus'", id="transform-doc26-'c_minus'"),
    # a NaN sample, which JSON's NaN literal lets through, named as the cause
    pytest.param("transform", {"potential": {"kind": "tabulated", "x_lo": 0.0, "dx": 0.0625,
                                             "period": 1.0,
                                             "values": [0.0] * 8 + [math.nan] + [0.0] * 8,
                                             "tail": None},
                               "order": 1, "seed": "bloch", "epsilon": -1.0},
                 "finite values", id="transform-doc27-finite values"),
    # a confluent pair is refused before either seed is built
    pytest.param("transform", {"potential": {"kind": "lame", "n": 2, "m": 0.5}, "order": 2,
                               "seeds": [{"epsilon": 1.6}, {"epsilon": 1.6}]},
                 "'epsilon'", id="transform-equal-epsilon"),
])
def test_malformed_config_value_exit_2(tmp_path, capsys, command, doc, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err


@pytest.mark.parametrize("command, flags, field", [
    ("states", ["--epsilon", "nan"], "'epsilon'"),
    ("states", ["--epsilon", "-1.0", "--c-plus", "inf", "--c-minus", "1.0"], "'c_plus'"),
    ("invariance", ["--epsilon=-inf"], "'epsilon'"),
    ("bands", ["--emin", "0.0", "--emax", "inf"], "'e_max'"),
])
def test_nonfinite_flag_exit_2(tmp_path, capsys, command, flags, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--lame-n", "1", *flags, "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


def test_missing_potential_exit_2(tmp_path):
    assert run(["invariance", "--epsilon", "1.0", "--out", str(tmp_path)]) == 2


def test_midband_energy_exit_3(tmp_path, capsys):
    assert (
        run(["invariance", "--lame-n", "1", "--epsilon", "0.75", "--out", str(tmp_path)])
        == 3
    )
    # every exit-3 cause, BandEnergyError included, prints one prefix
    assert capsys.readouterr().err.startswith("error: ")


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SUSYBAND_SAMPLES_PER_PERIOD", "64")
    monkeypatch.setenv("SUSYBAND_PERIODS", "4")
    out = tmp_path / "small"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "potential": {"kind": "lame", "n": 1, "m": 0.5},
        "order": 1,
        "seed": "bloch",
        "epsilon": -1.0,
    }))
    assert run(["transform", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "transform.csv").read_text().strip().split("\n")
    assert len(lines) == 4 * 64 + 2  # header + (periods * samples + 1) rows


def test_bad_env_value_exit_2(tmp_path, monkeypatch):
    monkeypatch.setenv("SUSYBAND_PERIODS", "many")
    assert run(["bands", "--lame-n", "1", "--emin", "0", "--emax", "1",
                "--out", str(tmp_path)]) == 2


def test_repeat_runs_byte_identical(tmp_path):
    # the transform and states traces are 32 769 rows: 17 CSV blocks
    commands = {
        "bands": ["bands", "--lame-n", "1", "--lame-m", "0.5",
                  "--emin", "0", "--emax", "3", "--sweep-points", "64"],
        "fig3d": ["transform", "--scenario", "fig3d"],
        "bloch": ["states", "--lame-n", "1", "--epsilon", "-1.0"],
        "general": ["states", "--lame-n", "2", "--epsilon", "-0.5",
                    "--c-plus", "0.6", "--c-minus", "0.8"],
    }
    for name, args in commands.items():
        out1, out2 = tmp_path / name / "a", tmp_path / name / "b"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        files = sorted(p.name for p in out1.iterdir())
        assert files == sorted(p.name for p in out2.iterdir())
        for f in files:
            assert read(out1 / f) == read(out2 / f), f"{name}: {f}"


@pytest.mark.parametrize("points", ["-5", "0"])
def test_nonpositive_sweep_points_exit_2(tmp_path, capsys, points):
    code = run(["bands", "--lame-n", "1", "--emin", "0", "--emax", "1",
                "--sweep-points", points, "--out", str(tmp_path)])
    assert code == 2
    assert "--sweep-points" in capsys.readouterr().err


@pytest.mark.parametrize("var", ["SUSYBAND_PERIODS", "SUSYBAND_SAMPLES_PER_PERIOD"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_nonpositive_env_size_exit_2(tmp_path, monkeypatch, capsys, var, value):
    monkeypatch.setenv(var, value)
    assert run(["transform", "--scenario", "fig3a", "--out", str(tmp_path)]) == 2
    assert var in capsys.readouterr().err


def test_window_overflow_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SUSYBAND_PERIODS", "400")
    assert run(["transform", "--scenario", "fig2a", "--out", str(tmp_path)]) == 3
    assert "overflow" in capsys.readouterr().err


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"{path.name} holds the non-standard constant {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_invariance_json_is_strict(tmp_path):
    # no displacement fits the n = 2 partner: the residual is infinite
    assert run(["invariance", "--lame-n", "2", "--epsilon", "1.6", "--out", str(tmp_path)]) == 0
    doc = _strict_json(tmp_path / "invariance.json")
    assert doc["residual_displacement"] is None
    assert doc["verdict"] == "not_invariant"


def test_transform_json_is_strict(tmp_path, monkeypatch):
    # two periods are too few for the asymptotic period residual: NaN
    monkeypatch.setenv("SUSYBAND_PERIODS", "2")
    assert run(["transform", "--scenario", "fig3a", "--out", str(tmp_path)]) == 0
    doc = _strict_json(tmp_path / "diagnostics.json")
    assert doc["asymptotic_period_residual"] is None
