import os
import subprocess
import sys
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from pnpcert import (
    Image, accelerated_radius, cli, gaussian_kernel, load_pgm, make_superres, save_pgm,
    solvers, spectral,
)
from pnpcert.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_IO,
    EXIT_OK,
    ConfigError,
    ExperimentConfig,
    main,
    parse_config,
)

from conftest import dense_forward, materialize, run_script, spy, synthetic_image


def write_truth(tmp_path, rows=16, cols=16):
    path = tmp_path / "truth.pgm"
    save_pgm(synthetic_image(rows, cols), path)
    return path


def write_config(tmp_path, **over):
    values = {
        "task": "deblur",
        "image": str(tmp_path / "truth.pgm"),
        "crop": 0,
        "seed": 3,
        "noise_sigma": 0.02,
        "kernel_size": 5,
        "kernel_sigma": 1.0,
        "mask_fraction": 0.3,
        "denoiser": "dsg",
        "patch_radius": 1,
        "window_radius": 2,
        "bandwidth": 0.15,
        "window_shape": "hat",
        "algorithm": "pnp_fista",
        "schedule": "beck",
        "gamma": 0.9,
        "max_iter": 60,
        "out": str(tmp_path / "out"),
    }
    values.update(over)
    lines = [f"{k} = {v}" for k, v in values.items() if v is not None]
    path = tmp_path / "exp.cfg"
    path.write_text("# test configuration\n" + "\n".join(lines) + "\n")
    return path


def read_kv(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def superres_lambda_max(side, kernel_size, kernel_sigma, factor):
    """Largest eigenvalue of A^T A from a dense eigensolve."""
    op = make_superres(side, side, gaussian_kernel(kernel_size, kernel_sigma), factor)
    a = dense_forward(op)
    return float(np.linalg.eigvalsh(a.T @ a)[-1])


class TestParseConfig:
    def test_defaults_and_overrides(self, tmp_path):
        write_truth(tmp_path)
        cfg = parse_config(write_config(tmp_path))
        assert cfg.task == "deblur"
        assert cfg.kernel_size == 5
        assert cfg.stop_tol == 1e-9  # untouched default

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("gamm = 0.9\n")
        with pytest.raises(ConfigError, match="gamm"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("max_iter = soon\n")
        with pytest.raises(ConfigError, match="max_iter"):
            parse_config(path)

    def test_range_validation(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for key, value in [("mask_fraction", 1.5), ("L", 0.5), ("max_iter", 0),
                           ("stop_tol", -1), ("guide_warmup_iters", -1)]:
            path.write_text(f"{key} = {value}\n")
            with pytest.raises(ConfigError, match=f"^{key} must"):
                parse_config(path)

    @pytest.mark.parametrize("line, message", [("schedule = nope", "nope"),
                                               ("bandwidth = 0", "bandwidth")])
    def test_schedule_and_kernel_rejected_when_parsed(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=message):
            parse_config(path)

    @pytest.mark.parametrize("line", ["gamma = inf", "gamma = nan", "stop_tol = -inf"])
    def test_non_finite_float_rejected(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match="finite"):
            parse_config(path)

    @pytest.mark.parametrize("name, key", [
        ("gamma", "gamma"), ("noise_sigma", "noise_sigma"), ("lam", "lambda"), ("L", "L"),
        ("stop_tol", "stop_tol"), ("bandwidth", "bandwidth"),
    ])
    def test_direct_config_rejects_non_finite_floats(self, name, key):
        # --gamma reaches the config through dataclasses.replace, not parse_config
        with pytest.raises(ConfigError, match=f"'{key}' must be finite"):
            ExperimentConfig(**{name: float("inf")})

    def test_lambda_key_maps(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("lambda = 2.5\n")
        assert parse_config(path).lam == 2.5

    def test_comments_and_blanks(self, tmp_path):
        # a comment starts a line or follows whitespace; a '#' inside a value stays
        path = tmp_path / "ok.cfg"
        path.write_text("\n# full line\n  # indented\nseed = 7  # trailing\n"
                        "image = /data/a#b/img.pgm\nout = run#1\t# note\n\n")
        cfg = parse_config(path)
        assert cfg.seed == 7
        assert cfg.image == "/data/a#b/img.pgm"
        assert cfg.out == "run#1"

    @pytest.mark.parametrize("field", fields(ExperimentConfig), ids=lambda f: f.name)
    def test_every_key_parses_to_its_field_type(self, tmp_path, field):
        key = "lambda" if field.name == "lam" else field.name
        text = {"task": "deblur", "image": "img.pgm"}.get(key, field.default)
        path = tmp_path / "one.cfg"
        path.write_text(f"{key} = {text}\n")
        value = getattr(parse_config(path), field.name)
        assert type(value).__name__ == field.type.split(" | ")[0]


class TestRun:
    def test_deblur_artifacts(self, tmp_path, capsys):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        out = tmp_path / "out"
        for name in ("recon.pgm", "recon.npy", "trace.csv", "summary.txt",
                     "guide.pgm", "observed.pgm"):
            assert (out / name).exists()
        summary = dict(
            line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines()
        )
        assert summary["task"] == "deblur"
        assert "psnr_observed" in summary
        assert float(summary["psnr_recon"]) > 0

    def test_summary_lambda_hat_is_exact(self, tmp_path):
        write_truth(tmp_path)
        assert main(["run", "--config", str(write_config(tmp_path))]) == EXIT_OK
        assert read_kv(tmp_path / "out" / "summary.txt")["lambda_hat"] == "1.0"
        cfg_path = write_config(tmp_path, task="superres", sr_factor=2, max_iter=5)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        lam = float(read_kv(tmp_path / "out" / "summary.txt")["lambda_hat"])
        assert lam == pytest.approx(superres_lambda_max(16, 5, 1.0, 2), rel=1e-12)

    def test_superres_factor_one_runs_the_deblur_problem(self, tmp_path):
        # sr_factor = 1 is blur without decimation: the deblur operator and guide
        write_truth(tmp_path)
        for task in ("deblur", "superres"):
            cfg_path = write_config(tmp_path, task=task, sr_factor=1, out=tmp_path / task)
            assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
            assert main(["certify", "--config", str(cfg_path), "--grid", "0.5"]) == EXIT_OK
        recon_deblur, recon_superres = (
            (tmp_path / task / "recon.npy").read_bytes() for task in ("deblur", "superres"))
        assert recon_deblur == recon_superres

    def test_superres_factor_one_summary_is_the_deblur_summary(self, tmp_path):
        # the operator kind, not the task name, decides which observed-image lines appear
        write_truth(tmp_path)
        summaries = {}
        for task in ("deblur", "superres"):
            cfg_path = write_config(tmp_path, task=task, sr_factor=1, out=tmp_path / task)
            assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
            summaries[task] = read_kv(tmp_path / task / "summary.txt")
            assert (tmp_path / task / "observed.pgm").exists()
        assert "psnr_observed" in summaries["superres"]
        assert summaries["superres"].pop("task") == "superres"
        assert summaries["deblur"].pop("task") == "deblur"
        assert summaries["superres"] == summaries["deblur"]

    def test_artifacts_do_not_depend_on_blas_threads(self, tmp_path):
        # n = 12544 puts OpenBLAS's dot product on two threads, and the 12 MB
        # band set puts W's product on two threads as well
        write_truth(tmp_path, 112, 112)
        src = str(Path(__file__).resolve().parents[1] / "src")
        for threads in ("1", "2"):
            cfg_path = write_config(tmp_path, task="inpaint", patch_radius=2, window_radius=5,
                                    max_iter=5, stop_tol=0.0, out=tmp_path / threads)
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "pnpcert", "run", "--config", str(cfg_path)],
                           env=env, check=True, capture_output=True)
        for name in ("trace.csv", "summary.txt", "recon.npy"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_indivisible_superres_is_config_error(self, tmp_path, capsys):
        write_truth(tmp_path, 32, 32)
        cfg_path = write_config(tmp_path, task="superres", sr_factor=2, crop=25)
        for argv in (["run"], ["certify", "--grid", "0.5"]):
            assert main([*argv, "--config", str(cfg_path)]) == EXIT_CONFIG
            assert "25x25 not divisible by factor 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_inpaint_writes_mask(self, tmp_path):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint")
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        assert (tmp_path / "out" / "mask.pgm").exists()

    @pytest.mark.parametrize("algorithm, denoiser",
                             [("pnp_fista", "dsg"), ("scaled_pnp_fista", "nlm")])
    def test_deterministic_artifacts(self, tmp_path, algorithm, denoiser):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, algorithm=algorithm, denoiser=denoiser)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
            assert main(["certify", "--config", str(cfg_path), "--grid", "0.5,0.9",
                         "--out", str(out / "cert")]) == EXIT_OK
        reports = sorted(p.name for p in (out_a / "cert" / "reports").glob("*.txt"))
        assert len(reports) == 2
        for name in ("recon.pgm", "trace.csv", "summary.txt", "cert/certify.csv",
                     *(f"cert/reports/{r}" for r in reports)):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_ref_limit_column(self, tmp_path):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, max_iter=20)
        ref = tmp_path / "ref.npy"
        np.save(ref, np.zeros(256))
        assert main(["run", "--config", str(cfg_path), "--ref-limit", str(ref)]) == EXIT_OK
        first = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1]
        assert first.split(",")[3] != ""

    def test_pgm_reference_limit(self, tmp_path):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, max_iter=20)
        ref = tmp_path / "ref.pgm"
        save_pgm(synthetic_image(16, 16), ref)
        assert main(["run", "--config", str(cfg_path), "--ref-limit", str(ref)]) == EXIT_OK
        last = (tmp_path / "out" / "trace.csv").read_text().splitlines()[-1]
        recon = np.load(tmp_path / "out" / "recon.npy")
        expected = np.linalg.norm(recon - load_pgm(ref).data)
        assert float(last.split(",")[3]) == pytest.approx(expected, rel=1e-12)

    def test_wrong_length_reference_writes_no_out(self, tmp_path, capsys):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, max_iter=20)
        ref = tmp_path / "ref.npy"
        np.save(ref, np.zeros(10))
        assert main(["run", "--config", str(cfg_path), "--ref-limit", str(ref)]) == EXIT_CONFIG
        assert "reference limit has 10 entries, expected 256" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pgm_reference_on_another_grid_writes_no_out(self, tmp_path, capsys):
        # 8x32 has the truth's 256 entries, but a PGM reference is an image on a grid
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, max_iter=20)
        ref = tmp_path / "ref.pgm"
        save_pgm(synthetic_image(8, 32), ref)
        assert main(["run", "--config", str(cfg_path), "--ref-limit", str(ref)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "reference limit is 8x32, expected 16x16" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ref, message", [
        (np.array(["0.5"] * 256), "real numbers"),
        (np.full(256, 0.5 + 0.5j), "real numbers"),
        (np.full(256, np.nan), "finite"),
    ])
    def test_non_real_or_non_finite_reference_writes_no_out(self, tmp_path, capsys, ref,
                                                           message):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, max_iter=20)
        np.save(tmp_path / "ref.npy", ref)
        argv = ["run", "--config", str(cfg_path), "--ref-limit", str(tmp_path / "ref.npy")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_seed_override_equals_config_seed(self, tmp_path):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint", out=tmp_path / "flag")
        assert main(["run", "--config", str(cfg_path), "--seed", "5"]) == EXIT_OK
        cfg_path = write_config(tmp_path, task="inpaint", seed=5, out=tmp_path / "key")
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        for name in ("recon.npy", "trace.csv", "summary.txt", "mask.pgm"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "key" / name).read_bytes()

    def test_malformed_pgm_is_io_error(self, tmp_path, capsys):
        (tmp_path / "truth.pgm").write_text("P6\n1 1\n255\n0\n")
        assert main(["run", "--config", str(write_config(tmp_path))]) == EXIT_IO
        assert capsys.readouterr().err.startswith("file format error:")
        assert not (tmp_path / "out").exists()

    def test_one_row_image_runs_and_certifies(self, tmp_path):
        # no size rule of its own: 8 pixels are enough for every eigensolve
        write_truth(tmp_path, 1, 8)
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        assert main(["certify", "--config", str(cfg_path), "--grid", "0.5"]) == EXIT_OK
        assert (tmp_path / "out" / "certify.csv").read_text().endswith(",true\n")

    def test_single_pixel_scaled_deblur_rejected(self, tmp_path, capsys):
        # lambda_hat of the scaled Gram map is an eigsh solve, which needs n > 1
        write_truth(tmp_path, 1, 1)
        cfg_path = write_config(tmp_path, denoiser="nlm", algorithm="scaled_pnp_fista")
        assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("validation error: ARPACK eigsh needs n > 1 ")
        assert not (tmp_path / "out").exists()

    def test_unknown_key_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("gamm = 0.9\n")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_missing_image_is_io_error(self, tmp_path):
        cfg_path = write_config(tmp_path)  # truth.pgm never written
        assert main(["run", "--config", str(cfg_path)]) == EXIT_IO

    def test_divergent_gamma_exit_code(self, tmp_path, capsys):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint", gamma=5000.0, max_iter=500)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_DIVERGENCE
        assert capsys.readouterr().err.startswith("divergence:")
        assert not (tmp_path / "out").exists()

    def test_infinite_gamma_is_config_error(self, tmp_path):
        # not a divergence: the value never reaches the solver
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint", gamma="inf")
        assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_override_rejected(self, tmp_path, gamma):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint")
        assert main(["run", "--config", str(cfg_path), "--gamma", gamma]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bare.cfg"
        path.write_text("seed = 1\n")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_red_algorithm_runs(self, tmp_path):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, algorithm="red_apg", max_iter=30)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK

    def test_scaled_algorithm_runs(self, tmp_path):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, algorithm="scaled_pnp_fista",
                                denoiser="nlm", max_iter=30)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK

    def test_deblur_64_improves_psnr(self, tmp_path):
        write_truth(tmp_path, 64, 64)
        cfg_path = write_config(tmp_path, crop=64, kernel_size=25, kernel_sigma=1.6,
                                noise_sigma=0.03, max_iter=300, patch_radius=2,
                                window_radius=5, bandwidth=0.1)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        summary = dict(
            line.split("=", 1)
            for line in (tmp_path / "out" / "summary.txt").read_text().splitlines()
        )
        assert float(summary["psnr_recon"]) > float(summary["psnr_observed"])

    def test_init_independence_through_cli(self, tmp_path):
        write_truth(tmp_path)
        inits = ("zeros", "random", "backprojection")
        for init in inits:
            cfg_path = write_config(tmp_path, task="inpaint", init=init,
                                    max_iter=20000, out=str(tmp_path / init))
            assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        a, *others = (np.load(tmp_path / init / "recon.npy") for init in inits)
        for b in others:
            assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 1e-6

    def test_guide_warmup_rebuilds_the_iterated_map(self, tmp_path, monkeypatch):
        from pnpcert import kernel_denoise

        built, stepped = [], []
        build, step = kernel_denoise.build_denoiser, spectral.IterationOperator.step
        monkeypatch.setattr(kernel_denoise, "build_denoiser",
                            lambda *args: built.append(build(*args)) or built[-1])
        monkeypatch.setattr(spectral.IterationOperator, "step",
                            lambda it, x, data: stepped.append(it.denoiser) or step(it, x, data))
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint", guide_warmup_iters=3)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        iterations = int(read_kv(tmp_path / "out" / "summary.txt")["iterations"])
        # the guide's denoiser, then one rebuilt after each warm-up iteration;
        # iteration k + 1 steps with the map on the k-th rebuilt denoiser
        assert len(built) == 1 + 3
        expected = built[:3] + [built[3]] * (iterations - 3)
        assert len(stepped) == iterations > 3
        assert all(a is b for a, b in zip(stepped, expected))

    @pytest.mark.parametrize("algorithm, denoiser", [("red_apg", "dsg"),
                                                     ("scaled_pnp_fista", "nlm")])
    def test_warmup_needs_pnp_fista(self, tmp_path, capsys, algorithm, denoiser):
        # rejected when the config is read, before certify could accept it
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, algorithm=algorithm, denoiser=denoiser,
                                guide_warmup_iters=3)
        for argv in (["run"], ["certify", "--grid", "0.5"]):
            assert main([*argv, "--config", str(cfg_path)]) == EXIT_CONFIG
            assert "only supported with pnp_fista" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_certified_row_implies_convergent_run(self, tmp_path):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint", gamma=0.75,
                                max_iter=20000)
        assert main(["certify", "--config", str(cfg_path), "--grid", "0.75"]) == EXIT_OK
        row = (tmp_path / "out" / "certify.csv").read_text().splitlines()[1]
        assert row.split(",")[5] == "true"
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        summary = dict(
            line.split("=", 1)
            for line in (tmp_path / "out" / "summary.txt").read_text().splitlines()
        )
        assert summary["converged"] == "true"


class TestCertify:
    def test_sweep_csv(self, tmp_path):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint")
        code = main(["certify", "--config", str(cfg_path), "--grid", "0.25,0.75",
                     "--power-tol", "1e-9"])
        assert code == EXIT_OK
        lines = (tmp_path / "out" / "certify.csv").read_text().splitlines()
        assert lines[0] == "task,denoiser_mode,gamma_or_invL,rho_P,rho_R,certified"
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "inpaint"
            assert fields[5] in ("true", "false")
            assert 0.0 <= float(fields[4])
        reports = list((tmp_path / "out" / "reports").glob("*.txt"))
        assert len(reports) == 2
        assert "rho_P=" in reports[0].read_text()

    def test_steps_past_the_bound_are_rated_by_the_lowest_eigenvalue(self, tmp_path, monkeypatch):
        # above gamma = 1, P gains eigenvalues below -1/3 (-0.49 at 1.5, -0.89 at
        # 1.9) while its largest-modulus one stays near 0.983 up to 1.9; there
        # run diverges, so the certificate must fail too
        image = tmp_path / "img64.pgm"
        run_script(monkeypatch, "make_test_image.py", "--rows", "64", "--cols", "64",
                   "--out", str(image))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"task = inpaint\nimage = {image}\ncrop = 32\nseed = 3\n"
                            f"denoiser = dsg\nwindow_shape = hat\nout = {tmp_path / 'out'}\n")
        grid = "0.9,1.2,1.5,1.9,2.5,4.0"
        assert main(["certify", "--config", str(cfg_path), "--grid", grid]) == EXIT_OK
        rows = (tmp_path / "out" / "certify.csv").read_text().splitlines()[1:]
        flags = [row.split(",")[5] for row in rows]
        assert flags == ["true", "true", "false", "false", "false", "false"]
        for name in ("1_5", "1_9", "2_5", "4"):
            kv = read_kv(tmp_path / "out" / "reports" / f"pnp_fista_{name}.txt")
            assert kv["rho_P_converged"] == "true" and float(kv["rho_R"]) > 1.0

    @pytest.mark.parametrize("over, grid, low_solves", [
        ({"algorithm": "pnp_fista"}, "0.5,0.9", 0),
        ({"algorithm": "red_apg"}, "0.5,1.0", 0),
        ({"algorithm": "pnp_fista"}, "1.2", 0),
        ({"algorithm": "pnp_fista", "window_shape": "box"}, "0.5", 0),
        ({"algorithm": "pnp_fista", "window_shape": "box"}, "1.2", 1),
        ({"algorithm": "pnp_fista"}, "1.3", 1),
        ({"algorithm": "red_apg", "window_shape": "box"}, "0.5,1.0", 0),
    ])
    def test_nlm_inpainting_is_rated_by_one_solve(self, tmp_path, monkeypatch, over, grid,
                                                  low_solves):
        # A^T A = Pi_O commutes with D, so P's spectrum is real. Its floor is
        # min(low, 0) for red and pnp fractions f <= 1 (low: the spectrum
        # check's low end, read as 0 when the check passes), and 1 - f above 1
        # with a passing check. The largest-modulus eigenvalue sets the rate
        # unless the floor's rate exceeds it: at 1.3, r(-0.3) = 0.924 against
        # 0.884. Then, and past 1 on a box window, where no floor is known,
        # the smallest-real-part solve still runs
        which, maps = [], []
        monkeypatch.setattr(spectral, "arpack_eigenvalue",
                            spy(spectral.arpack_eigenvalue, 2, which))
        monkeypatch.setattr(spectral, "build_report", spy(spectral.build_report, 1, maps))
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint", denoiser="nlm", **over)
        assert main(["certify", "--config", str(cfg_path), "--grid", grid]) == EXIT_OK
        assert which.count("SR") == low_solves
        rows = (tmp_path / "out" / "certify.csv").read_text().splitlines()[1:]
        reports = [read_kv(p) for p in sorted((tmp_path / "out" / "reports").glob("*.txt"))]
        assert {kv["check_spectrum"] for kv in reports} == {
            "false" if over.get("window_shape") == "box" else "true"}
        if low_solves == 0:
            for row, it in zip(rows, maps):
                rate = max(map(accelerated_radius, np.linalg.eigvals(materialize(it.apply, it.n))))
                assert float(row.split(",")[4]) == pytest.approx(rate, abs=1e-8)

    @pytest.mark.parametrize("algorithm, grid", [("pnp_fista", "0.9"), ("red_apg", "1.0")])
    def test_nlm_inpainting_certifies_within_fifty_restarts(self, tmp_path, monkeypatch,
                                                            algorithm, grid):
        # the rate solve converges within 50 restarts; the smallest-real-part
        # solve, which cannot change the rate here, did not, and gave rho_R = nan
        image = tmp_path / "smoke.pgm"
        run_script(monkeypatch, "make_test_image.py", "--rows", "32", "--cols", "32",
                   "--out", str(image))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"task = inpaint\nimage = {image}\ncrop = 0\ndenoiser = nlm\n"
                            f"window_shape = hat\nalgorithm = {algorithm}\n"
                            f"out = {tmp_path / 'out'}\n")
        code = main(["certify", "--config", str(cfg_path), "--grid", grid,
                     "--power-max-iter", "50"])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "certify.csv").read_text().endswith(",true\n")
        (report,) = (tmp_path / "out" / "reports").glob("*.txt")
        kv = read_kv(report)
        assert kv["rho_P_converged"] == "true" and float(kv["rho_R"]) < 1.0

    @pytest.mark.parametrize("task, over, low_solves", [
        ("deblur", "", 0), ("superres", "", 0), ("inpaint", "", 0),
        ("deblur", "denoiser = nlm\nwindow_shape = hat\n", 1),
    ], ids=["deblur", "superres", "inpaint", "deblur-nlm-hat"])
    def test_default_configs_certify_within_three_restarts(self, tmp_path, monkeypatch, task,
                                                           over, low_solves):
        # the default box window fails the spectrum check, but its low end
        # floors P's real spectrum far inside the rate, so the largest-modulus
        # solve alone rates P; with 3 restarts the smallest-real-part solve did
        # not converge and gave rho_R = nan. nlm pnp on blur has complex
        # eigenvalues and keeps that solve
        which = []
        monkeypatch.setattr(spectral, "arpack_eigenvalue",
                            spy(spectral.arpack_eigenvalue, 2, which))
        image = tmp_path / "smoke.pgm"
        run_script(monkeypatch, "make_test_image.py", "--rows", "32", "--cols", "32",
                   "--out", str(image))
        rows = []
        for cap in ([], ["--power-max-iter", "3"]):
            out = tmp_path / f"out{len(cap)}"
            cfg_path = tmp_path / "exp.cfg"
            cfg_path.write_text(f"task = {task}\nimage = {image}\ncrop = 0\n{over}out = {out}\n")
            which.clear()
            code = main(["certify", "--config", str(cfg_path), "--grid", "0.9", *cap])
            assert code == EXIT_OK
            rows.append((out / "certify.csv").read_text())
        assert which.count("SR") == low_solves
        if low_solves == 0:
            assert rows[1] == rows[0] and rows[1].endswith(",true\n")

    def test_zero_map_certifies(self, tmp_path):
        # every pixel observed: A^T A = I, so at grid value 1 the map is W (I - A^T A) = 0
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint", mask_fraction=1)
        assert main(["certify", "--config", str(cfg_path), "--grid", "0.5,1.0"]) == EXIT_OK
        rows = (tmp_path / "out" / "certify.csv").read_text().splitlines()[1:]
        assert rows[1] == "inpaint,dsg,1.0,0.0,0.0,true"
        kv = read_kv(tmp_path / "out" / "reports" / "pnp_fista_1.txt")
        assert (kv["rho_P"], kv["rho_R"], kv["certified"]) == ("0.0", "0.0", "true")
        assert kv["rho_P_converged"] == "true"

    def test_eigensolver_failure_is_reported(self, tmp_path, monkeypatch):
        import scipy.sparse.linalg as spla

        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("ARPACK error -1: no convergence", [], [])

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint")
        assert main(["certify", "--config", str(cfg_path), "--grid", "0.5"]) == EXIT_OK
        (report,) = (tmp_path / "out" / "reports").glob("*.txt")
        kv = read_kv(report)
        assert kv["check_spectrum"] == "false"
        assert kv["check_fix_simple"] == "false"
        assert kv["check_spectrum_low"] == kv["second_eigenvalue"] == "nan"
        assert kv["check_spectrum_converged"] == "false"

    def test_nlm_sweep_scales_no_band_set_on_both_sides(self, tmp_path, monkeypatch):
        from pnpcert import kernel_denoise

        # two-sided scaling would build D^-1/2 K D^-1/2 beside W; the spectrum
        # check applies it as D^1/2 W D^-1/2 instead
        scaled = []
        scale = kernel_denoise._scale
        monkeypatch.setattr(kernel_denoise, "_scale", lambda K, left, right=None: (
            scaled.append(right is not None) or scale(K, left, right)))
        write_truth(tmp_path, 24, 24)
        cfg_path = write_config(tmp_path, task="inpaint", denoiser="nlm",
                                algorithm="scaled_pnp_fista")
        code = main(["certify", "--config", str(cfg_path), "--grid", "0.3,0.5,0.9",
                     "--power-max-iter", "300"])
        assert code == EXIT_OK
        assert scaled == [False]  # build_nlm's one-sided D^-1 only

    def test_deblur_gamma_interval_is_exact(self, tmp_path):
        # a normalized nonnegative kernel has lambda_max(A^T A) = H(0)^2 = 1
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path)
        assert main(["certify", "--config", str(cfg_path), "--grid", "0.5"]) == EXIT_OK
        (report,) = (tmp_path / "out" / "reports").glob("*.txt")
        assert read_kv(report)["gamma_interval_high"] == "1.0"

    def test_superres_gamma_interval_is_exact(self, tmp_path):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="superres", sr_factor=2)
        assert main(["certify", "--config", str(cfg_path), "--grid", "0.5"]) == EXIT_OK
        (report,) = (tmp_path / "out" / "reports").glob("*.txt")
        high = float(read_kv(report)["gamma_interval_high"])
        assert high == pytest.approx(1.0 / superres_lambda_max(16, 5, 1.0, 2), rel=1e-12)

    def test_guide_warmup_rejected(self, tmp_path, capsys):
        # run rebuilds the map during warm-up, so no frozen map is the one that runs
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, guide_warmup_iters=3)
        assert main(["certify", "--config", str(cfg_path), "--grid", "0.5"]) == EXIT_CONFIG
        assert "guide_warmup_iters" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_grid_rejected(self, tmp_path):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path)
        assert main(["certify", "--config", str(cfg_path), "--grid", " ,"]) == EXIT_CONFIG

    def test_red_grid_validated(self, tmp_path, monkeypatch, capsys):
        import scipy.sparse.linalg as spla

        # the map's constructor rejects 1.5 before the assumption checks and
        # before 0.5's eigensolves; no output directory is left
        checked, solved = [], []
        monkeypatch.setattr(spectral, "check_assumption",
                            spy(spectral.check_assumption, 0, checked))
        for name in ("eigs", "eigsh"):
            monkeypatch.setattr(spla, name, spy(getattr(spla, name), 0, solved))
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, algorithm="red_apg")
        code = main(["certify", "--config", str(cfg_path), "--grid", "0.5,1.5"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "validation error: theta must be in [0, 1]\n"
        assert checked == [] and solved == []
        assert not (tmp_path / "out").exists()

    def test_image_below_arpack_bound_rejected(self, tmp_path, monkeypatch, capsys):
        import scipy.sparse.linalg as spla

        # the assumption solve asks eigsh for 3 eigenvalues, so 3 pixels are
        # too few; it fails before any eigensolve of P
        solved = []
        monkeypatch.setattr(spla, "eigs", spy(spla.eigs, 0, solved))
        write_truth(tmp_path, 1, 3)
        cfg_path = write_config(tmp_path, task="inpaint")
        assert main(["certify", "--config", str(cfg_path), "--grid", "0.5"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "validation error: ARPACK eigsh needs n > 3 for 3 eigenvalue(s), got n = 3\n"
        assert solved == []
        assert not (tmp_path / "out").exists()

    def test_unparsable_grid_value_rejected(self, tmp_path, capsys):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint")
        assert main(["certify", "--config", str(cfg_path), "--grid", "0.5,abc"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: invalid grid value")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid", ["nan,inf", "nan", "0.5,inf"])
    def test_non_finite_grid_rejected(self, tmp_path, grid):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint")
        assert main(["certify", "--config", str(cfg_path), "--grid", grid]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--power-max-iter", "0"), ("--power-max-iter", "-3"),
        ("--power-tol", "nan"), ("--power-tol", "0"), ("--power-tol", "inf"),
        ("--power-tol", "1"),
    ])
    def test_invalid_power_arguments_rejected(self, tmp_path, flag, value):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint")
        code = main(["certify", "--config", str(cfg_path), "--grid", "0.5", flag, value])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_close_grid_values_get_separate_reports(self, tmp_path):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint")
        code = main(["certify", "--config", str(cfg_path), "--grid", "0.5,0.5000001,1",
                     "--power-max-iter", "200"])
        assert code == EXIT_OK
        names = sorted(p.name for p in (tmp_path / "out" / "reports").glob("*.txt"))
        assert names == ["pnp_fista_0_5.txt", "pnp_fista_0_5000001.txt", "pnp_fista_1.txt"]
        rows = (tmp_path / "out" / "certify.csv").read_text().splitlines()[1:]
        for name, row in zip(names, rows):
            kv = read_kv(tmp_path / "out" / "reports" / name)
            assert kv["gamma_or_invL"] == row.split(",")[2]

    @pytest.mark.parametrize("grid", ["0.5,0.5", "0.5,5e-1", "1e-06,1e+06"])
    def test_colliding_grid_values_rejected(self, tmp_path, grid):
        # 1e-06 and 1e+06 would both write reports/pnp_fista_1e_06.txt
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path)
        assert main(["certify", "--config", str(cfg_path), "--grid", grid]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()


class TestSameMap:
    """``run`` iterates bitwise the map ``certify`` certifies at grid value
    gamma, or 1/L for red."""

    @pytest.mark.parametrize("algorithm, denoiser, over", [
        ("pnp_fista", "dsg", {}),
        ("scaled_pnp_fista", "nlm", {}),
        ("red_apg", "dsg", {"lambda": 0.7, "L": 3}),
    ])
    def test_run_iterates_the_certified_map(self, tmp_path, monkeypatch, algorithm,
                                            denoiser, over):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, algorithm=algorithm, denoiser=denoiser,
                                max_iter=3, **over)
        ran, certified = [], []
        monkeypatch.setattr(solvers, algorithm, spy(getattr(solvers, algorithm), 0, ran))
        monkeypatch.setattr(spectral, "build_report", spy(spectral.build_report, 1, certified))
        grid = 1.0 / over["L"] if algorithm == "red_apg" else 0.9
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        assert main(["certify", "--config", str(cfg_path), "--grid", repr(grid)]) == EXIT_OK
        (run_map,), (certified_map,) = ran, certified
        params = attrgetter("kind", "gamma", "mu", "theta")
        assert params(run_map) == params(certified_map)
        assert run_map.kind == {"pnp_fista": "pnp", "scaled_pnp_fista": "scaled_pnp",
                                "red_apg": "red"}[algorithm]


    @pytest.mark.parametrize("task, algorithm, denoiser", [
        ("inpaint", "pnp_fista", "dsg"),
        ("deblur", "scaled_pnp_fista", "nlm"),
        ("deblur", "red_apg", "dsg"),
    ])
    def test_commands_multiply_with_bands_only(self, tmp_path, monkeypatch, task, algorithm,
                                               denoiser):
        from pnpcert.kernel_denoise import KernelDenoiser

        # ``weights`` converts the bands to a new CSR matrix on every access
        reads = []
        monkeypatch.setattr(KernelDenoiser, "weights", property(
            lambda den: reads.append(den) or den.bands.tocsr()))
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task=task, algorithm=algorithm, denoiser=denoiser,
                                max_iter=5)
        for argv in (["run"], ["certify", "--grid", "0.5"],
                     ["schedules", "--schedules", "beck", "--ref-iters", "10"]):
            assert main([*argv, "--config", str(cfg_path)]) == EXIT_OK
        assert reads == []


class TestSchedules:
    def test_two_schedules(self, tmp_path):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint", max_iter=400)
        code = main([
            "schedules", "--config", str(cfg_path),
            "--schedules", "beck,constant(0)", "--ref-iters", "600",
        ])
        assert code == EXIT_OK
        out = tmp_path / "out"
        assert (out / "reference.npy").exists()
        for name in ("schedule_beck.csv", "schedule_constant_0.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "k,alpha,step_norm,dist_to_ref,psnr"
            last = lines[-1].split(",")
            first = lines[1].split(",")
            assert float(last[3]) < float(first[3])  # distance decayed

    def test_zero_ref_iters_rejected(self, tmp_path):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path)
        code = main(["schedules", "--config", str(cfg_path),
                     "--schedules", "beck", "--ref-iters", "0"])
        assert code == EXIT_CONFIG

    def test_divergent_config_leaves_no_out(self, tmp_path, capsys):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint", gamma=5000.0)
        code = main(["schedules", "--config", str(cfg_path),
                     "--schedules", "beck", "--ref-iters", "50"])
        assert code == EXIT_DIVERGENCE
        assert capsys.readouterr().err.startswith("divergence:")
        assert not (tmp_path / "out").exists()

    def test_empty_schedule_list_rejected(self, tmp_path):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path)
        code = main(["schedules", "--config", str(cfg_path),
                     "--schedules", ",", "--ref-iters", "10"])
        assert code == EXIT_CONFIG

    def test_colliding_schedules_rejected_before_the_problem(self, tmp_path, monkeypatch,
                                                             capsys):
        # constant(1e-9) and constant(1.0000001e-9) both label as constant(1e-09)
        built = []
        monkeypatch.setattr(cli, "build_problem", spy(cli.build_problem, 0, built))
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint")
        for specs in ("constant(1e-9),constant(1.0000001e-9)", "beck,beck"):
            code = main(["schedules", "--config", str(cfg_path),
                         "--schedules", specs, "--ref-iters", "10"])
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err == (
                "config error: schedules must be distinct: each names a CSV file\n")
        assert built == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, over, prefix", [
        (["run"], {"schedule": "constant(nan)"}, "config error: "),
        (["schedules", "--schedules", "chambolle(inf)"], {}, "validation error: "),
    ])
    def test_non_finite_schedule_parameter_rejected(self, tmp_path, capsys, argv, over,
                                                    prefix):
        write_truth(tmp_path)
        cfg_path = write_config(tmp_path, task="inpaint", **over)
        assert main([*argv, "--config", str(cfg_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(prefix + "schedule parameters must be finite")
        assert not (tmp_path / "out").exists()


class TestDenoise:
    def test_constant_preserved(self, tmp_path):
        img = Image(np.full(64, 0.5), 8, 8)
        save_pgm(img, tmp_path / "x.pgm")
        save_pgm(img, tmp_path / "g.pgm")
        out = tmp_path / "y.pgm"
        code = main(["denoise", "--image", str(tmp_path / "x.pgm"),
                     "--guide", str(tmp_path / "g.pgm"), "--out", str(out)])
        assert code == EXIT_OK
        back = load_pgm(out)
        assert np.abs(back.data - 0.5).max() <= 1.0 / 510 + 1e-12

    def test_improves_noisy_ramp(self, tmp_path):
        from pnpcert import Rng, gaussian_noise, psnr

        clean = synthetic_image(16, 16)
        noisy_data = clean.data + gaussian_noise(Rng(5), 256, 0.08)
        noisy = Image(np.clip(noisy_data, 0, 1), 16, 16)
        save_pgm(noisy, tmp_path / "x.pgm")
        save_pgm(clean, tmp_path / "g.pgm")
        out = tmp_path / "y.pgm"
        code = main(["denoise", "--image", str(tmp_path / "x.pgm"),
                     "--guide", str(tmp_path / "g.pgm"), "--out", str(out)])
        assert code == EXIT_OK
        denoised = load_pgm(out)
        assert psnr(denoised, clean) > psnr(noisy, clean)

    def test_dimension_mismatch(self, tmp_path):
        save_pgm(Image(np.zeros(64), 8, 8), tmp_path / "x.pgm")
        save_pgm(Image(np.zeros(16), 4, 4), tmp_path / "g.pgm")
        code = main(["denoise", "--image", str(tmp_path / "x.pgm"),
                     "--guide", str(tmp_path / "g.pgm"),
                     "--out", str(tmp_path / "y.pgm")])
        assert code == EXIT_CONFIG

    def test_single_pixel_passes_through(self, tmp_path):
        # one pixel's W is [1]: denoising returns the input
        save_pgm(Image(np.full(1, 0.4), 1, 1), tmp_path / "x.pgm")
        save_pgm(Image(np.zeros(1), 1, 1), tmp_path / "g.pgm")
        code = main(["denoise", "--image", str(tmp_path / "x.pgm"),
                     "--guide", str(tmp_path / "g.pgm"),
                     "--out", str(tmp_path / "y.pgm")])
        assert code == EXIT_OK
        assert (tmp_path / "y.pgm").read_bytes() == (tmp_path / "x.pgm").read_bytes()


class TestCenterCrop:
    def test_crop_applies(self, tmp_path):
        write_truth(tmp_path, 20, 24)
        cfg_path = write_config(tmp_path, crop=16, max_iter=5)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        recon = load_pgm(tmp_path / "out" / "recon.pgm")
        assert (recon.rows, recon.cols) == (16, 16)

    def test_crop_zero_keeps_size(self, tmp_path):
        write_truth(tmp_path, 16, 16)
        cfg_path = write_config(tmp_path, crop=0, max_iter=5)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        recon = load_pgm(tmp_path / "out" / "recon.pgm")
        assert (recon.rows, recon.cols) == (16, 16)
