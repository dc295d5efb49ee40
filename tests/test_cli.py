"""End-to-end command line checks, run in process through main(argv)."""

import csv
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from revtori import integrators, lienard, newton, persistence
from revtori.cli import main
from revtori.errors import PersistenceError
from revtori.newton import CONVERGENCE_COLUMNS, CONVERGENCE_FORMAT, TorusEmbedding

from conftest import GOLDEN


def run_json(capsys, argv):
    code = main(argv + ["--json-summary"])
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture(scope="module")
def kam_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("kamrun")
    code = main(["kam", "run", "--out", str(root),
                 "--set", "M=2", "--set", "eps0=1e-3"])
    assert code == 0
    return root / "kam-flow"


# Invariance-check settings that test nothing (dt = 0), never finish
# (tol = 0, dt = NaN) or fail deep in numpy (samples <= 0); each exits 2.
_BAD_VERIFICATION = ["verify_samples=0", "verify_samples=-2", "verify_tol=0",
                     "verify_tol=-1", "verify_tol=NaN", "verify_dt=0",
                     "verify_dt=NaN", "verify_dt=Infinity"]


class TestDioph:
    def test_golden_certifies(self, capsys):
        code, data = run_json(capsys, ["dioph"])
        assert code == 0
        assert data["omega"][0] == pytest.approx(GOLDEN, abs=1e-15)
        assert data["kappa"] > 0
        assert data["tau"] == pytest.approx(1.0001)

    def test_explicit_components(self, capsys):
        code, data = run_json(capsys, ["dioph", "--set",
                                       f"omega={GOLDEN:.16f}"])
        assert code == 0
        assert data["kappa"] > 0

    def test_two_dimensional_family(self, capsys):
        code, data = run_json(capsys, ["dioph", "--set", "omega=sqrt_prime",
                                       "--set", "d=2", "--set", "K_max=400"])
        assert code == 0
        assert len(data["omega"]) == 2

    def test_resonant_frequency_is_parameter_error(self, capsys):
        assert main(["dioph", "--set", "omega=0.5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_family(self):
        assert main(["dioph", "--set", "omega=banana"]) == 2

    def test_malformed_omega(self):
        assert main(["dioph", "--set", 'omega=[1.0,"x"]']) == 2

    @pytest.mark.parametrize("d, omega", [(3, "[0.6180339887498949]"), (1, "[0.1, 0.2]")])
    def test_omega_list_must_have_d_components(self, capsys, d, omega):
        assert main(["dioph", "--set", f"d={d}", "--set", f"omega={omega}"]) == 2
        assert "'omega'" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau_exits_2(self, capsys, tau):
        assert main(["dioph", "--set", f"tau={tau}"]) == 2
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_2(self, monkeypatch, capsys, threads):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
            monkeypatch.setenv(var, "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert main(["dioph", "--threads", threads]) == 2
        assert "--threads" in capsys.readouterr().err
        assert os.environ["OMP_NUM_THREADS"] == "3"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert "MKL_NUM_THREADS" not in os.environ

    def test_threads_pin_every_pool(self, monkeypatch):
        pools = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
        for var in pools:
            monkeypatch.setenv(var, "3")
        assert main(["dioph", "--threads", "2"]) == 0
        assert [os.environ[var] for var in pools] == ["2"] * 4
        # without the flag, set variables stand and unset ones get one thread
        for var in pools[1:]:
            monkeypatch.delenv(var)
        assert main(["dioph"]) == 0
        assert [os.environ[var] for var in pools] == ["2", "1", "1", "1"]


class TestSmoothTest:
    def test_rate_fits_the_declared_regularity(self, capsys):
        code, data = run_json(capsys, ["smooth-test", "--set", "ell_star=3.1",
                                       "--set", "n_modes=256"])
        assert code == 0
        assert data["relative_gap"] < 0.25

    def test_seeded_output_is_reproducible(self, capsys):
        argv = ["smooth-test", "--set", "n_modes=128", "--seed", "5",
                "--json-summary"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("flags", [
        ["--set", "s_min=0"], ["--set", "s_max=-0.5"], ["--set", "n_scales=0"],
        ["--set", "n_scales=1"], ["--set", "n_modes=0"], ["--set", "ell_star=nan"],
        ["--set", "ell_star=inf"],
        # no interval of scales to fit a rate over
        ["--set", "s_min=1", "--set", "s_max=1"], ["--set", "s_min=0.3", "--set", "s_max=0.3"],
        # one mode is kept whole at every scale: all errors are 0
        ["--set", "n_modes=1"],
    ])
    def test_bad_inputs_exit_2(self, capsys, flags):
        assert main(["smooth-test", "--set", "n_modes=64", *flags]) == 2
        assert "error:" in capsys.readouterr().err


class TestHomsolve:
    def test_flow_residuals(self, capsys):
        code, data = run_json(capsys, ["homsolve", "--set", "mode=flow"])
        assert code == 0
        assert data["residual_u"] < 1e-12
        assert data["residual_v"] < 1e-12
        assert data["min_divisor"] > 0

    def test_map_summary(self, capsys):
        code, data = run_json(capsys, ["homsolve", "--set", "mode=map",
                                       "--set", "eps=1e-4"])
        assert code == 0
        assert np.isfinite(data["sup_u"]) and data["sup_u"] > 0
        assert data["min_divisor"] > 0
        assert data["residual_u"] < 1e-12
        assert data["residual_v"] < 1e-12

    def test_modes_report_the_same_keys(self, capsys):
        _, flow = run_json(capsys, ["homsolve", "--set", "mode=flow"])
        _, mapping = run_json(capsys, ["homsolve", "--set", "mode=map"])
        assert list(flow) == list(mapping)
        assert flow["sup_mean_correction"] == 0.0
        assert mapping["sup_mean_correction"] > 0.0

    @pytest.mark.parametrize("flags", [
        ["--set", "n_modes=-1"], ["--set", "mode=map", "--set", "g_amp=0.1"],
        ["--set", "eps=nan"], ["--set", "eps=inf"],
        ["--set", "mode=map", "--set", "eps=nan"], ["--set", "tau=nan"],
        ["--set", "r=nan"], ["--set", "r=inf"],
        ["--set", "mode=map", "--set", "r=nan"],
        ["--set", "q_y=0", "--set", "r=nan"],
    ])
    def test_bad_inputs_exit_2(self, capsys, flags):
        assert main(["homsolve", *flags]) == 2
        assert "error:" in capsys.readouterr().err


class TestKamRun:
    def test_run_directory_layout(self, kam_run):
        assert (kam_run / "manifest.json").is_file()
        assert (kam_run / "embedding.json").is_file()
        assert (kam_run / "convergence.csv").is_file()
        man = persistence.load_manifest(kam_run / "manifest.json")
        assert man.config["M"] == 2
        for filename, digest in man.outputs.items():
            assert persistence.sha256_file(kam_run / filename) == digest
        header = (kam_run / "convergence.csv").read_text().splitlines()[0]
        assert tuple(header.split(",")) == CONVERGENCE_COLUMNS

    def test_convergence_table_schema(self, kam_run):
        man = persistence.load_manifest(kam_run / "manifest.json")
        assert man.formats == {"convergence.csv": CONVERGENCE_FORMAT}
        assert CONVERGENCE_FORMAT == "convergence/2"
        with open(kam_run / "convergence.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == list(CONVERGENCE_COLUMNS)
        # version 1 columns keep their positions; version 2 appends
        assert CONVERGENCE_COLUMNS[:6] == ("m", "sup_f", "sup_g", "min_divisor",
                                           "inversion_iters", "invariance_residual")
        assert len(rows) == 3  # two steps and the closing row
        for row in rows[:2]:
            assert int(row["n_fit"]) > 0 and int(row["taylor_order"]) >= 1
            for col in ("osc_f", "osc_g", "c_f", "c_g", "composition_residual",
                        "y_excursion"):
                assert np.isfinite(float(row[col]))
        closing = rows[2]
        assert closing["n_fit"] == "0" and closing["taylor_order"] == "0"
        assert closing["composition_residual"] == "nan"

    def test_verify_accepts_fresh_run(self, kam_run, capsys):
        code, data = run_json(capsys, ["verify", str(kam_run)])
        assert code == 0
        assert data["digests_ok"] is True
        assert data["invariance_residual"] < 1e-6

    def test_verify_catches_tampering(self, kam_run, tmp_path, capsys):
        stale = tmp_path / "stale"
        shutil.copytree(kam_run, stale)
        with open(stale / "convergence.csv", "a", encoding="utf-8") as fh:
            fh.write("\n")
        assert main(["verify", str(stale)]) == 4
        assert "digests changed" in capsys.readouterr().err

    def test_verify_accepts_indented_run_directory(self, kam_run, tmp_path, capsys):
        # run directories written with indent=2 JSON keep verifying
        old = tmp_path / "indented"
        shutil.copytree(kam_run, old)

        def write_indented(name, data):
            text = json.dumps(data, sort_keys=True, indent=2) + "\n"
            (old / name).write_text(text, encoding="ascii")

        write_indented("embedding.json", persistence.load_json(old / "embedding.json"))
        manifest = persistence.load_json(old / "manifest.json")
        manifest["outputs"]["embedding.json"] = persistence.sha256_file(old / "embedding.json")
        write_indented("manifest.json", manifest)
        code, data = run_json(capsys, ["verify", str(old)])
        assert code == 0
        assert data["digests_ok"] is True
        _, fresh = run_json(capsys, ["verify", str(kam_run)])
        assert data["invariance_residual"] == fresh["invariance_residual"]

    def test_verify_missing_run(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent")]) == 4

    def test_map_mode_runs(self, tmp_path, capsys):
        code, data = run_json(capsys, [
            "kam", "run", "--out", str(tmp_path), "--set", "mode=map",
            "--set", "M=2", "--set", "eps0=1e-3"])
        assert code == 0
        assert data["failed"] is False
        assert data["invariance_residual"] < 1e-8
        run_dir = Path(data["run_dir"])
        code, checked = run_json(capsys, ["verify", str(run_dir)])
        assert code == 0
        assert checked["digests_ok"] is True
        assert checked["invariance_residual"] < 1e-8
        # a map torus is autonomous: one time slot, no time harmonics
        embedding = newton.load_embedding(run_dir / "embedding.json")
        assert embedding.mode == "map"
        assert embedding.xy.N_t == 0
        assert embedding.xy.coeffs.shape[embedding.xy.d] == 1

    def test_map_mode_is_deterministic(self, tmp_path):
        argv = ["kam", "run", "--set", "mode=map", "--set", "M=2",
                "--set", "eps0=1e-3"]
        for sub in ("first", "second"):
            assert main(argv + ["--out", str(tmp_path / sub)]) == 0
        for name in ("manifest.json", "embedding.json", "convergence.csv"):
            first = (tmp_path / "first" / "kam-map" / name).read_bytes()
            assert first == (tmp_path / "second" / "kam-map" / name).read_bytes()

    def test_step_failure_exits_3(self, tmp_path):
        code = main(["kam", "run", "--out", str(tmp_path),
                     "--set", "M=1", "--set", "eps0=1e-3",
                     "--set", "perturbation.eps=0.5"])
        assert code == 3

    def test_verification_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # one extrapolation step cannot cover 100 time units to 1e-12
        monkeypatch.setattr(integrators, "_GBS_MAX_STEPS", 1)
        code = main(["kam", "run", "--out", str(tmp_path), "--set", "M=1",
                     "--set", "eps0=1e-3", "--set", "verify_dt=100"])
        assert code == 3
        assert "verification integration failed: more than 1 steps" in \
            capsys.readouterr().err

    def test_bad_parameters_exit_2(self, tmp_path):
        out = str(tmp_path)
        assert main(["kam", "run", "--out", out, "--set", "mu=0.6"]) == 2
        assert main(["kam", "run", "--out", out, "--set", "mode=banana"]) == 2
        assert main(["kam", "run", "--out", out, "--set", "omega=0.5"]) == 2
        assert main(["kam", "run", "--out", out, "--set", "frobnicate=1"]) == 2
        assert main(["kam", "run", "--out", out, "--set", "nonsense"]) == 2

    def test_tol_is_no_config_key(self, tmp_path, capsys):
        assert main(["kam", "run", "--out", str(tmp_path), "--set", "tol=0"]) == 2
        assert "unknown config key 'tol'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("override", [
        "M=abc", "M=2.5", "M=true", "eps0=abc", "d=x", "K_max=abc", "tau=abc",
        'omega=["x"]', "verify_samples=abc", "perturbation.eps=abc",
        "perturbation=5", "perturbation.eps=NaN", "perturbation.eps=Infinity",
        "mu=-Infinity", "perturbation.k=1.5", "perturbation.l=0.5",
        "name=5", "name.x=1", "name=[1]", "name=.", "name=..",
        "name=../escaped", "name=a/b", "name=TMP/abs",
    ])
    def test_bad_inputs_exit_2(self, tmp_path, capsys, override):
        # TMP stands for tmp_path, so an absolute name that got through
        # would write beside --out, not at the file-system root
        out = tmp_path / "out"
        out.mkdir()
        assert main(["kam", "run", "--out", str(out), "--set",
                     override.replace("TMP", str(tmp_path))]) == 2
        assert "error:" in capsys.readouterr().err
        # nothing under --out, and nothing beside it
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert not any(out.iterdir())

    @pytest.mark.parametrize("override", _BAD_VERIFICATION)
    def test_bad_verification_settings_exit_2(self, tmp_path, capsys, override):
        assert main(["kam", "run", "--out", str(tmp_path), "--set", "M=1",
                     "--set", "eps0=1e-3", "--set", override]) == 2
        assert "verification" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("override", _BAD_VERIFICATION)
    def test_verify_rejects_bad_verification_settings(self, kam_run, tmp_path,
                                                      capsys, override):
        run = tmp_path / "run"
        shutil.copytree(kam_run, run)
        manifest = json.loads((run / "manifest.json").read_text())
        key, value = override.split("=")
        manifest["config"][key] = json.loads(value)
        (run / "manifest.json").write_text(json.dumps(manifest))
        assert main(["verify", str(run)]) == 2
        assert "verification" in capsys.readouterr().err

    def test_perturbation_key_typo_exits_2(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["kam", "run", "--out", out,
                     "--set", "perturbation.epz=1"]) == 2
        assert "'epz'" in capsys.readouterr().err
        assert main(["kam", "run", "--out", out, "--set", "mode=map",
                     "--set", "perturbation.g_amp=0.1"]) == 2
        assert not (tmp_path / "kam-flow").exists()

    def test_config_file_layering(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 1, "eps0": 1e-3,
                                   "perturbation": {"eps": 2e-4}}))
        code, data = run_json(capsys, [
            "kam", "run", "--out", str(tmp_path), "--config", str(cfg),
            "--set", "perturbation.eps=1e-4"])
        assert code == 0 and data["M"] == 1
        man = persistence.load_manifest(
            tmp_path / "kam-flow" / "manifest.json")
        assert man.config["perturbation"]["eps"] == 1e-4  # --set wins

    def test_config_file_validation(self, tmp_path):
        bad_key = tmp_path / "bad_key.json"
        bad_key.write_text(json.dumps({"frobnicate": 1}))
        assert main(["kam", "run", "--out", str(tmp_path),
                     "--config", str(bad_key)]) == 2
        nested_typo = tmp_path / "nested_typo.json"
        nested_typo.write_text(json.dumps(
            {"perturbation": {"kind": "single_mode", "eps": 1e-4,
                              "g_ampl": 0.05}}))
        assert main(["kam", "run", "--out", str(tmp_path),
                     "--config", str(nested_typo)]) == 2
        not_object = tmp_path / "list.json"
        not_object.write_text("[1, 2]")
        assert main(["kam", "run", "--out", str(tmp_path),
                     "--config", str(not_object)]) == 2


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        argv = ["kam", "run", "--set", "M=1", "--set", "eps0=1e-3"]
        for sub in ("a", "b"):
            assert main(argv + ["--out", str(tmp_path / sub)]) == 0
        for name in ("manifest.json", "embedding.json", "convergence.csv"):
            a = (tmp_path / "a" / "kam-flow" / name).read_bytes()
            b = (tmp_path / "b" / "kam-flow" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_repeated_stability_runs_are_byte_identical(self, tmp_path):
        argv = ["lienard", "stability", "--set", "t_max=5"]
        for sub in ("a", "b"):
            assert main(argv + ["--out", str(tmp_path / sub)]) == 0
        for name in ("manifest.json", "stability.csv"):
            a = (tmp_path / "a" / "lienard-stability" / name).read_bytes()
            b = (tmp_path / "b" / "lienard-stability" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
        assert main(["verify", str(tmp_path / "a" / "lienard-stability")]) == 0

    def test_repeated_poincare_runs_are_byte_identical(self, tmp_path, capsys):
        # a value read from an uninitialised buffer would differ between runs
        tables = []
        for sub in ("a", "b"):
            csv_path = tmp_path / f"{sub}.csv"
            assert main(["lienard", "poincare", "--csv", str(csv_path),
                         "--set", "iterates=2"]) == 0
            capsys.readouterr()
            tables.append(csv_path.read_bytes())
        assert tables[0] == tables[1]


class TestShippedConfigs:
    """The demo files under configs/ must stay loadable end to end."""

    CONFIGS = Path(__file__).resolve().parents[1] / "configs"

    def test_kam_demos(self, tmp_path):
        # shrink the iteration so the check stays cheap; the overrides only
        # touch keys the demo files already carry, so strict parsing still
        # sees the full file.
        for name in ("kam_flow.json", "kam_map.json"):
            code = main(["kam", "run", "--config", str(self.CONFIGS / name),
                         "--out", str(tmp_path / name[:-5]),
                         "--set", "M=1", "--set", "eps0=1e-3"])
            assert code == 0, name

    @pytest.mark.parametrize("q_y", [3, 4, 6, 8])
    @pytest.mark.parametrize("name", ["kam_flow.json", "kam_map.json"])
    def test_kam_demos_take_higher_action_orders(self, tmp_path, capsys,
                                                 name, q_y):
        # the action fit scales the nodes to [-1, 1], so higher powers at
        # the demos' small radius do not trip the reality check
        code, data = run_json(capsys, [
            "kam", "run", "--config", str(self.CONFIGS / name),
            "--out", str(tmp_path), "--set", "M=2", "--set", f"q_y={q_y}"])
        assert code == 0
        assert data["invariance_residual"] <= 1e-8

    def test_map_demo_runs_at_d_2(self, tmp_path, capsys):
        # the map turns each axis by its own 2 pi omega_a, so the sampled f
        # is the kick alone on both axes
        code, data = run_json(capsys, [
            "kam", "run", "--config", str(self.CONFIGS / "kam_map.json"),
            "--out", str(tmp_path), "--set", "d=2", "--set", "omega=sqrt_prime",
            "--set", "M=2"])
        assert code == 0
        assert (data["failed"], data["steps_completed"]) == (False, 2)
        assert data["invariance_residual"] <= 1e-8
        code, checked = run_json(capsys, ["verify", data["run_dir"]])
        assert code == 0
        assert checked["invariance_residual"] == data["invariance_residual"]

    @pytest.mark.parametrize("name", ["kam_flow.json", "kam_map.json"])
    def test_kam_demo_json_is_oracle_text(self, tmp_path, name):
        # the full cutoff of a two-step run, whose flow embedding keeps 21 of
        # its 3249 entries; record -> file -> record must give back the same text
        code = main(["kam", "run", "--config", str(self.CONFIGS / name),
                     "--out", str(tmp_path), "--set", "M=2"])
        assert code == 0
        (run_dir,) = tmp_path.iterdir()
        for filename, record in (("embedding.json", TorusEmbedding),
                                 ("manifest.json", persistence.RunManifest)):
            text = (run_dir / filename).read_text(encoding="ascii")
            back = record.from_dict(json.loads(text)).to_dict()
            assert text == persistence.canonical_json(back)

    def test_map_demo_embedding_with_bad_omega_or_r0_is_a_persistence_error(self, tmp_path):
        code = main(["kam", "run", "--config", str(self.CONFIGS / "kam_map.json"),
                     "--out", str(tmp_path), "--set", "M=2"])
        assert code == 0
        (run_dir,) = tmp_path.iterdir()
        for key, value in (("r0", "abc"), ("omega", ["x"]), ("omega", []), ("r0", None)):
            data = persistence.load_json(run_dir / "embedding.json")
            data[key] = value
            path = tmp_path / f"{key}.json"
            persistence.save_json(path, data)
            with pytest.raises(PersistenceError, match=f"{key} = "):
                newton.load_embedding(path)

    def test_flow_demo_embedding_is_small_and_verifies(self, tmp_path, capsys):
        # the embedding keeps each component's coefficients above eps max|c|
        code, run = run_json(capsys, [
            "kam", "run", "--config", str(self.CONFIGS / "kam_flow.json"),
            "--out", str(tmp_path), "--set", "M=2"])
        assert code == 0
        run_dir = Path(run["run_dir"])
        assert (run_dir / "embedding.json").stat().st_size < 8000
        code, data = run_json(capsys, ["verify", str(run_dir)])
        assert code == 0 and data["digests_ok"] is True
        assert data["invariance_residual"] == run["invariance_residual"]

    def test_flow_field_of_wrong_dimension_exits_2(self, tmp_path, capsys):
        # the built-in perturbations are one-dimensional: d = 2 cannot use them
        code = main(["kam", "run", "--config", str(self.CONFIGS / "kam_flow.json"),
                     "--out", str(tmp_path), "--set", "d=2",
                     "--set", 'omega="sqrt_prime"', "--set", "eps0=1e-2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: function returned 1024 values on 512 samples, expected 4 per sample\n"

    def test_stability_demo(self, tmp_path):
        code = main(["lienard", "stability",
                     "--config", str(self.CONFIGS / "lienard_stability.json"),
                     "--out", str(tmp_path), "--set", "t_max=2.0",
                     "--set", "levels=[1.0]", "--set", "phases=[0.0]"])
        assert code == 0

    def test_poincare_demo(self, tmp_path, capsys):
        code, data = run_json(capsys, [
            "lienard", "poincare",
            "--config", str(self.CONFIGS / "lienard_poincare.json"),
            "--out", str(tmp_path), "--set", "n_steps=16",
            "--set", "theta_points=2", "--set", "rho_levels=[0.8]"])
        assert code == 0
        assert data["reversibility_residual"] < 1e-9


class TestLienardCli:
    def test_orbit_summary_and_csv(self, tmp_path, capsys):
        csv = tmp_path / "orbit.csv"
        code, data = run_json(capsys, ["lienard", "orbit", "--set", "n=2",
                                       "--csv", str(csv)])
        assert code == 0
        from test_lienard import closed_form_period
        assert data["period"] == pytest.approx(closed_form_period(2),
                                               abs=1e-10)
        assert data["energy_residual"] < 1e-10
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,x,xdot"
        assert len(lines) == 513
        # the columns are angle_data's values at equispaced angles, bit for bit
        orbit = lienard.compute_reference_orbit(2)
        x0, y0 = orbit.angle_data(2.0 * np.pi * np.arange(512) / 512)
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(table[:, 0], orbit.period * np.arange(512) / 512)
        assert np.array_equal(table[:, 1], x0)
        assert np.array_equal(table[:, 2], y0)

    def test_orbit_bad_n(self):
        assert main(["lienard", "orbit", "--set", "n=0"]) == 2

    @pytest.mark.parametrize("samples", ["0", "-5", "8", "35"])
    def test_orbit_too_few_samples_exits_2(self, capsys, samples):
        # the kept band needs samples // 4 > 8 modes to stay unaliased
        assert main(["lienard", "orbit", "--set", f"samples={samples}"]) == 2
        assert "n_samples" in capsys.readouterr().err
        assert main(["lienard", "orbit", "--set", "samples=36"]) == 0

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_orbit_no_csv_samples_exits_2(self, tmp_path, capsys, samples):
        csv = tmp_path / "orbit.csv"
        argv = ["lienard", "orbit", "--csv", str(csv)]
        assert main([*argv, "--set", f"csv_samples={samples}"]) == 2
        assert "'csv_samples'" in capsys.readouterr().err
        assert not csv.exists()
        # a fraction is refused, not truncated
        assert main([*argv, "--set", "csv_samples=0.5"]) == 2
        assert main([*argv, "--set", "csv_samples=1"]) == 0
        assert len(csv.read_text().splitlines()) == 2

    def test_perturbation_key_typo_exits_2(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["lienard", "poincare", "--out", out,
                     "--set", "perturbation.f_ampz=1"]) == 2
        assert "'f_ampz'" in capsys.readouterr().err
        # phase belongs to rational_cubic_skew only
        assert main(["lienard", "stability", "--out", out,
                     "--set", "perturbation.phase=0.3"]) == 2
        typo = tmp_path / "typo.json"
        typo.write_text(json.dumps(
            {"perturbation": {"kind": "rational_cubic", "f_amp": 0.05,
                              "g_ampl": 0.05}}))
        assert main(["lienard", "stability", "--out", out,
                     "--config", str(typo)]) == 2
        assert "'g_ampl'" in capsys.readouterr().err
        assert not (tmp_path / "lienard-stability").exists()

    @pytest.mark.parametrize("command,override", [
        ("stability", "levels=[]"),
        ("stability", "levels=[0, 1]"),
        ("stability", "phases=[]"),
        ("stability", "t_max=nan"),
        ("stability", "t_max=Infinity"),
        ("stability", "dt=NaN"),
        ("stability", "dt=10"),
        ("stability", "t_ref=nan"),
        ("stability", "n=1.5"),
        ("poincare", "n=1.5"),
        ("stability", "t_max=abc"),
        ("stability", 'levels=["a"]'),
        ("stability", "order=abc"),
        ("stability", "threshold=nan"),
        ("stability", "threshold=0"),
        ("stability", "perturbation.f_amp=abc"),
        ("stability", "perturbation.f_amp=NaN"),
        ("poincare", "perturbation.g_amp=Infinity"),
        ("poincare", "n_steps=abc"),
        ("poincare", 'rho_levels=["a"]'),
        ("poincare", "n_steps=0"),
        ("poincare", "n_steps=-3"),
        ("poincare", "theta_points=0"),
        ("poincare", "rho_levels=[]"),
        ("poincare", "rho_levels=[NaN]"),
        ("poincare", "rho_star=Infinity"),
        ("poincare", "rho_star=NaN"),
        ("stability", "name=7"),
        ("stability", "name=null"),
        ("stability", "name="),
        ("stability", "name=."),
        ("stability", "name=.."),
        ("stability", "name=../escaped"),
        ("stability", "name=a/b"),
        ("stability", "name=TMP/abs"),
        ("stability", "perturbation=3"),
        ("poincare", "perturbation=[1]"),
    ])
    def test_bad_inputs_exit_2(self, tmp_path, capsys, command, override):
        # a short horizon first, so a missed check cannot run for minutes
        short = ["--set", "t_max=1"] if command == "stability" else []
        out = tmp_path / "out"
        out.mkdir()
        assert main(["lienard", command, "--out", str(out), *short, "--set",
                     override.replace("TMP", str(tmp_path))]) == 2
        assert "error:" in capsys.readouterr().err
        # nothing under --out, and nothing beside it
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert not any(out.iterdir())

    @pytest.mark.parametrize("t_max, dt", [("1", "1e-320"), ("1e308", "1e-10")])
    def test_step_count_overflow_exits_2(self, tmp_path, capsys, t_max, dt):
        config = TestShippedConfigs.CONFIGS / "lienard_stability.json"
        assert main(["lienard", "stability", "--config", str(config), "--out",
                     str(tmp_path), "--set", f"t_max={t_max}", "--set", f"dt={dt}"]) == 2
        assert "t_max / dt overflows" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key", ["p", "q"])
    def test_fractional_power_exponent_exits_2(self, tmp_path, capsys, key):
        assert main(["lienard", "stability", "--out", str(tmp_path),
                     "--set", "t_max=1", "--set", "perturbation.kind=power",
                     "--set", f"perturbation.{key}=2.5"]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_poincare_residual_and_iterates(self, tmp_path, capsys):
        csv = tmp_path / "section.csv"
        code, data = run_json(capsys, [
            "lienard", "poincare", "--csv", str(csv), "--set", "iterates=2",
            "--set", "n_steps=64", "--set", "theta_points=4",
            "--set", "rho_levels=[0.8,1.2]"])
        assert code == 0
        assert data["reversibility_residual"] < 1e-9
        assert data["warnings"] == []
        lines = csv.read_text().splitlines()
        assert lines[0] == "sample,iterate,theta,rho,escaped"
        assert len(lines) == 1 + 8 * 3  # 8 samples, iterates 0..2

    def test_poincare_ignores_out(self, tmp_path, capsys):
        # only kam run and lienard stability write a run directory
        out = tmp_path / "runs"
        assert main(["lienard", "poincare", "--out", str(out),
                     "--set", "n_steps=8", "--set", "theta_points=2",
                     "--set", "rho_levels=[1.2]"]) == 0
        assert not out.exists()

    def test_poincare_section_without_kind_is_unforced(self, capsys):
        code, data = run_json(capsys, [
            "lienard", "poincare", "--set", "perturbation={}",
            "--set", "n_steps=8", "--set", "theta_points=2",
            "--set", "rho_levels=[1.2]"])
        assert code == 0
        assert data["perturbation"] == "none"

    def test_poincare_iterates_must_not_be_negative(self, tmp_path, capsys):
        csv = tmp_path / "section.csv"
        short = ["--set", "n_steps=8", "--set", "theta_points=2",
                 "--set", "rho_levels=[1.2]"]
        assert main(["lienard", "poincare", "--set", "iterates=-1",
                     "--csv", str(csv), *short]) == 2
        assert "'iterates'" in capsys.readouterr().err
        assert not csv.exists()
        assert main(["lienard", "poincare", "--set", "iterates=0",
                     "--csv", str(csv), *short]) == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 1 + 2  # the two samples at iterate 0
        assert all(line.split(",")[1] == "0" for line in lines[1:])

    def test_stability_run_directory(self, tmp_path, capsys):
        code, data = run_json(capsys, [
            "lienard", "stability", "--out", str(tmp_path),
            "--set", "t_max=2.0"])
        assert code == 0
        assert data["stable"] is True
        run_dir = tmp_path / "lienard-stability"
        lines = (run_dir / "stability.csv").read_text().splitlines()
        assert lines[0] == ("level,phase,ratio,max_norm,initial_max,"
                            "energy_drift,failed,t_fail")
        assert len(lines) == 21
        assert all(line.endswith(",false,nan") for line in lines[1:])
        man = persistence.load_manifest(run_dir / "manifest.json")
        assert man.command == "lienard stability"


class TestParser:
    # every command that reads a config
    CONFIGURED = [["dioph"], ["smooth-test"], ["homsolve"], ["kam", "run"],
                  ["lienard", "orbit"], ["lienard", "poincare"],
                  ["lienard", "stability"]]

    @pytest.mark.parametrize("command", CONFIGURED, ids=" ".join)
    def test_every_command_reads_its_config(self, tmp_path, capsys, command):
        out = ["--out", str(tmp_path / "out")]
        assert main([*command, *out, "--set", "frobnicate=1"]) == 2
        assert "'frobnicate'" in capsys.readouterr().err
        bad_key = tmp_path / "bad_key.json"
        bad_key.write_text(json.dumps({"frobnicate": 1}))
        assert main([*command, *out, "--config", str(bad_key)]) == 2
        assert "frobnicate" in capsys.readouterr().err
        assert main([*command, *out, "--config", str(tmp_path / "absent.json")]) == 4
        assert "absent.json" in capsys.readouterr().err
        not_json = tmp_path / "not_json.json"
        not_json.write_text('{"M": 1,')
        assert main([*command, *out, "--config", str(not_json)]) == 4
        assert "not_json.json" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_verify_takes_no_config(self, kam_run):
        for option in (["--set", "x=1"], ["--config", "cfg.json"]):
            with pytest.raises(SystemExit) as err:
                main(["verify", str(kam_run), *option])
            assert err.value.code == 2

    def test_repeated_calls_share_nothing_but_the_parser(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                main(["dioph", "--help"])
            assert err.value.code == 0
            assert "K_max" in capsys.readouterr().out
            with pytest.raises(SystemExit) as err:
                main(["dioph", "--frobnicate"])
            assert err.value.code == 2
        code, data = run_json(capsys, ["dioph", "--set", "omega=sqrt_prime", "--set", "d=2",
                                       "--set", "K_max=400"])
        assert (code, len(data["omega"]), data["K_max"]) == (0, 2, 400)
        code, data = run_json(capsys, ["dioph"])  # no --set left over from the last call
        assert (code, len(data["omega"]), data["K_max"]) == (0, 1, 2000)

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_kam_requires_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["kam"])
        assert err.value.code == 2
