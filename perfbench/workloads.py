"""The benchmark's workloads: CLI commands on configs generated from a seed.

Every workload runs the ``pnpcert`` CLI on one synthetic test image of a
stated side. A cycle runs each instance's command once; the seed reaches the
program only as the config ``seed``, which draws the inpainting mask and the
measurement noise. Iteration counts are fixed (``stop_tol = 0`` for runs,
``--power-max-iter`` for certify) so that every seed does the same amount of
work and run-to-run differences come from the program's speed, not from
how quickly one seed's iterates happen to settle.

Correctness references (checked by ``worker.py``):

* ``psnr_ref`` -- reconstruction PSNR (dB) the fixed-iteration run reaches:
  the lowest seen over seeds 0-15 when the benchmark was defined, rounded
  down to 0.1 dB. A run more than ``PSNR_TOL_DB`` below it fails.
* ``certified`` -- the ``certified`` column of ``certify.csv``, per grid value.
* ``rho_tol`` -- largest allowed distance between ``rho_P`` and an
  independent ARPACK value of the same spectral radius (``oracle.py``).
  It is the accuracy of the capped power iteration: twice the largest error
  seen over seeds 0-15 (seeds whose top eigenvalues nearly coincide converge
  slowest). A more accurate eigensolver lands closer and still passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PSNR_TOL_DB = 0.5

COMMON = {
    "crop": 0,
    "noise_sigma": 0.03,
    "denoiser": "dsg",
    "window_shape": "hat",
}


@dataclass(frozen=True)
class Instance:
    config: dict
    psnr_ref: float | None = None          # run only


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    side: int
    command: str                           # "run" | "certify"
    instances: tuple[Instance, ...]
    args: tuple[str, ...] = ()
    certified: tuple[bool, ...] = ()       # certify only, one per grid value
    rho_tol: float = 0.0                   # certify only
    shared: dict = field(default_factory=dict)

    def config_text(self, instance: Instance, image: str, seed: int, out: str) -> str:
        keys = {**COMMON, **self.shared, **instance.config,
                "image": image, "seed": seed, "out": out}
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


WORKLOADS = {w.name: w for w in [
    Workload(
        name="recon-blur-red-64",
        why="run red_apg on deblur and x2 superres: roll-based grams in the CG prox "
            "and lambda_hat dominate; spectral is idle",
        side=64,
        command="run",
        shared={"algorithm": "red_apg", "max_iter": 60, "stop_tol": 0.0},
        instances=(
            Instance({"task": "deblur"}, psnr_ref=30.0),
            Instance({"task": "superres", "sr_factor": 2}, psnr_ref=23.6),
        ),
    ),
    Workload(
        name="recon-inpaint-pnp-256",
        why="run pnp_fista inpaint at 256^2 for 100 iterations: kernel assembly, "
            "matvecs with a 93 MB W, and RNG dominate; A is a mask, so fwdops is idle",
        side=256,
        command="run",
        shared={"algorithm": "pnp_fista", "max_iter": 100, "stop_tol": 0.0},
        instances=(Instance({"task": "inpaint"}, psnr_ref=33.6),),
    ),
    Workload(
        name="certify-inpaint-pnp-72",
        why="certify pnp inpaint at n > DENSE_CAP: power steps of W and the capped "
            "assumption loop, once per grid value, take nearly all the time",
        side=72,
        command="certify",
        shared={"algorithm": "pnp_fista"},
        instances=(Instance({"task": "inpaint"}),),
        args=("--grid", "0.5,0.9", "--power-max-iter", "400"),
        certified=(True, True),
        rho_tol=6e-3,
    ),
    Workload(
        name="certify-deblur-red-48",
        why="certify red deblur at n <= DENSE_CAP: a CG solve inside every power "
            "step and a dense eigvalsh check per grid value",
        side=48,
        command="certify",
        shared={"algorithm": "red_apg"},
        instances=(Instance({"task": "deblur"}),),
        args=("--grid", "0.5,1.0", "--power-max-iter", "100"),
        certified=(True, True),
        rho_tol=0.05,
    ),
]}
