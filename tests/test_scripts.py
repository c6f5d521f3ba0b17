"""Smoke tests: the experiment scripts run end to end on a tiny crop."""

import numpy as np

from conftest import run_script


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
