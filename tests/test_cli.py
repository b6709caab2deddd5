import json

import pytest

from susyband.cli import run
from susyband.elliptic import complete_k


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
    # a spline through a square wave has no converging Fourier series, so
    # band_edges refuses it and names the cause
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


@pytest.mark.parametrize("command, doc, field", [
    ("bands", {"potential": 5}, "potential"),
    ("bands", {"potential": {"kind": "shifted", "delta": 0.1, "base": [1]}}, "potential"),
    ("bands", {"potential": {"kind": "tabulated", "x_lo": 0.0, "dx": 0.5, "period": 1.0,
                             "values": [0.0, 1.0, 0.0], "tail": "flat"}}, "potential"),
    ("transform", {"potential": _LAME1, "order": 3,
                   "seeds": [{"epsilon": 1.2}, {"epsilon": 1.4}]}, "'order'"),
    ("transform", {"potential": _LAME1, "order": 1, "seed": "bloch"}, "'epsilon'"),
    ("bands", {"potential": _LAME1, "e_min": "x", "e_max": 3.0}, "'e_min'"),
    ("bands", {"potential": _LAME1, "e_min": 3.0, "e_max": 3.0}, "'e_min'"),
    ("invariance", {"potential": _LAME1, "epsilon": "x"}, "'epsilon'"),
    ("states", {"potential": _LAME1, "epsilon": -1.0, "c_plus": "x"}, "'c_plus'"),
])
def test_malformed_config_value_exit_2(tmp_path, capsys, command, doc, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err


def test_missing_potential_exit_2(tmp_path):
    assert run(["invariance", "--epsilon", "1.0", "--out", str(tmp_path)]) == 2


def test_midband_energy_exit_3(tmp_path):
    assert (
        run(["invariance", "--lame-n", "1", "--epsilon", "0.75", "--out", str(tmp_path)])
        == 3
    )


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
    args = [
        "bands", "--lame-n", "1", "--lame-m", "0.5",
        "--emin", "0", "--emax", "3", "--sweep-points", "64",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert read(out1 / "discriminant.csv") == read(out2 / "discriminant.csv")
    assert read(out1 / "edges.json") == read(out2 / "edges.json")


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
