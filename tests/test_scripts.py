"""Smoke tests: the experiment scripts run end to end on a tiny crop, and
exit as ``pnpcert`` does on a bad option."""

import numpy as np
import pytest

from pnpcert import save_pgm
from pnpcert.cli import EXIT_CONFIG, main

from conftest import run_script, script_exit_code, synthetic_image


def test_certify_sweep(tmp_path, monkeypatch):
    image, out = tmp_path / "img.pgm", tmp_path / "sweep.csv"
    run_script(monkeypatch, "make_test_image.py", "--rows", "32", "--cols", "32",
               "--out", str(image))
    run_script(monkeypatch, "certify_sweep.py", str(image), "--crop", "16",
               "--grid", "0.5,0.9", "--out", str(out))
    header, *rows = out.read_text().splitlines()
    assert header == "algorithm,task,denoiser_mode,gamma_or_invL,rho_P,rho_R,certified"
    assert len(rows) == 8  # 2 tasks x 2 algorithms x 2 grid values
    for row in rows:
        fields = row.split(",")
        assert 0.0 <= float(fields[5]) < 1.0 and fields[6] == "true"


def test_schedule_comparison(tmp_path, monkeypatch):
    image, out = tmp_path / "img.pgm", tmp_path / "sched"
    run_script(monkeypatch, "make_test_image.py", "--rows", "32", "--cols", "32",
               "--out", str(image))
    run_script(monkeypatch, "schedule_comparison.py", str(image), "--crop", "16",
               "--schedules", "beck,constant(0)", "--ref-iters", "400",
               "--max-iter", "400", "--out", str(out))
    assert np.load(out / "reference.npy").shape == (256,)
    for name in ("schedule_beck.csv", "schedule_constant_0.csv"):
        header, *lines = (out / name).read_text().splitlines()
        assert header == "k,alpha,step_norm,dist_to_ref,psnr"
        dist = [float(line.split(",")[3]) for line in lines]
        assert dist[-1] < dist[0]


def test_sweep_rows_are_cli_certify_rows(tmp_path, monkeypatch):
    image, out = tmp_path / "img.pgm", tmp_path / "sweep.csv"
    run_script(monkeypatch, "make_test_image.py", "--rows", "32", "--cols", "32",
               "--out", str(image))
    run_script(monkeypatch, "certify_sweep.py", str(image), "--crop", "16",
               "--grid", "0.5", "--out", str(out))
    sweep = out.read_text().splitlines()[1:]
    cli_rows = []
    for task in ("inpaint", "deblur"):
        for algorithm in ("pnp_fista", "red_apg"):
            cfg = tmp_path / f"{task}_{algorithm}.cfg"
            cfg.write_text(f"task = {task}\nimage = {image}\ncrop = 16\nkernel_size = 9\n"
                           f"kernel_sigma = 2.0\nwindow_shape = hat\nalgorithm = {algorithm}\n"
                           f"out = {tmp_path / cfg.stem}\n")
            assert main(["certify", "--config", str(cfg), "--grid", "0.5",
                         "--power-tol", "1e-9"]) == 0
            row = (tmp_path / cfg.stem / "certify.csv").read_text().splitlines()[1]
            cli_rows.append(f"{algorithm},{row}")
    assert sweep == cli_rows


@pytest.mark.parametrize("script, argv, message", [
    ("certify_sweep.py", ["--grid", "nan"], "config error: grid values must be positive"),
    ("certify_sweep.py", ["--grid", "0.5,0.5"], "config error: grid values must be distinct"),
    ("schedule_comparison.py", ["--gamma", "inf"], "config error: 'gamma' must be finite"),
])
def test_bad_option_exits_like_the_cli(tmp_path, monkeypatch, capsys, script, argv, message):
    image = tmp_path / "img.pgm"
    save_pgm(synthetic_image(24, 24), image)
    code = script_exit_code(monkeypatch, script, str(image), "--crop", "16", *argv,
                            "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()  # one line, no traceback
    assert line.startswith(message)
    assert not (tmp_path / "out").exists()
