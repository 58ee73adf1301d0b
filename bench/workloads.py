"""Seeded inputs and the command lists of the three benchmark workloads.

Every input the program receives is made here from the workload seed: grid
CSVs written into the run's input directory, and sampler specs whose
parameters are drawn from the same seed.  The same seed gives byte-identical
files and identical argument lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracles import EXPECTED_VERDICTS

BOX = (-8.0, 8.0)
GRANDIZER_1D = "gaussian:0,3"
GRANDIZER_2D = "gaussian:0,0,3"


@dataclass(frozen=True)
class Command:
    """One CLI invocation: a label (its output directory) and its argv."""

    label: str
    argv: tuple[str, ...]


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, salt])


def random_smooth(cells: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Cell centers on BOX and complex values of a random smooth field.

    A sum of 24 Fourier modes with 1/k amplitudes under a Gaussian envelope,
    so that window norms vary over several orders of magnitude across the box.
    """
    lo, up = BOX
    h = (up - lo) / cells
    x = lo + (np.arange(cells) + 0.5) * h
    k = np.arange(1, 25)
    omega = 2.0 * np.pi * k / (up - lo)
    phase = omega[:, None] * x[None, :]
    re = (rng.normal(size=(24, 1)) / k[:, None] * np.cos(phase + rng.uniform(0, 2 * np.pi, (24, 1)))).sum(0)
    im = (rng.normal(size=(24, 1)) / k[:, None] * np.sin(phase + rng.uniform(0, 2 * np.pi, (24, 1)))).sum(0)
    envelope = np.exp(-0.5 * (x / rng.uniform(2.0, 4.0)) ** 2)
    return x, (1.0 + 0.5 * re + 0.25j * im) * envelope


def write_grid(path: Path, x: np.ndarray, values: np.ndarray) -> None:
    """The package's grid CSV layout (index,x0,re,im), 17 significant digits."""
    lines = ["index,x0,re,im"]
    lines += [f"{i},{xi:.17g},{v.real:.17g},{v.imag:.17g}" for i, (xi, v) in enumerate(zip(x, values))]
    path.write_text("\n".join(lines) + "\n")


def _gaussian_spec(rng: np.random.Generator, ndim: int) -> str:
    centers = [f"{c:.6f}" for c in rng.uniform(-2.0, 2.0, ndim)]
    return "gaussian:" + ",".join(centers + [f"{rng.uniform(0.5, 2.0):.6f}"])


def make_inputs(workload: str, seed: int, inputs: Path) -> list[Command]:
    """Write the workload's seeded input files and return its commands."""
    inputs.mkdir(parents=True, exist_ok=True)
    box1 = f"{BOX[0]:g},{BOX[1]:g}"
    box2 = f"{box1},{box1}"
    if workload == "battery":
        # The checks of ``verify --all``, one command each, so that each is
        # timed on its own: the corpus they share costs about a millisecond.
        return [
            Command(name, ("verify", "--check", name, "--seed", str(seed % 2**32), "--cells", "256"))
            for name in EXPECTED_VERDICTS
        ]
    if workload == "dense-windows":
        a_csv, c_csv = inputs / "smooth_2048.csv", inputs / "smooth_4096.csv"
        write_grid(a_csv, *random_smooth(2048, _rng(seed, 1)))
        write_grid(c_csv, *random_smooth(4096, _rng(seed, 3)))
        f2 = _gaussian_spec(_rng(seed, 2), 2)
        return [
            Command("grand_1d", (
                "amalgam", "--f", str(a_csv), "--local", "grand", "--global", "grand",
                "--p", "2", "--q", "2", "--a", GRANDIZER_1D, "--b", GRANDIZER_1D,
                "--window-side", "16", "--window-stride", "1", "--box", box1, "--cells", "2048",
            )),
            Command("grand_2d", (
                "amalgam", "--f", f2, "--local", "grand", "--global", "grand",
                "--p", "2", "--q", "2", "--a", GRANDIZER_2D, "--b", GRANDIZER_2D,
                "--window-side", "8", "--window-stride", "4", "--box", box2, "--cells", "128",
            )),
            Command("classical_1d", (
                "amalgam", "--f", str(c_csv), "--local", "classical", "--global", "classical",
                "--p", "2", "--q", "2", "--a", GRANDIZER_1D, "--b", GRANDIZER_1D,
                "--window-side", "16", "--window-stride", "1", "--box", box1, "--cells", "4096",
            )),
        ]
    if workload == "long-signal":
        b_csv = inputs / "smooth_16384.csv"
        write_grid(b_csv, *random_smooth(16384, _rng(seed, 5)))
        return [
            Command("grand_long", (
                "grand", "--f", _gaussian_spec(_rng(seed, 4), 1), "--a", GRANDIZER_1D,
                "--p", "2", "--box", box1, "--cells", str(2**20),
            )),
            Command("maximal_1d", (
                "maximal", "--f", str(b_csv), "--radii", "full", "--probe", "2,4,6",
                "--box", box1, "--cells", "16384",
            )),
            Command("maximal_2d", (
                "maximal", "--f", _gaussian_spec(_rng(seed, 6), 2), "--radii", "full",
                "--box", box2, "--cells", "256",
            )),
            # A small amalgam command, so that the amalgam oracle runs on this
            # workload too: 256 windows, a tenth of the pass.
            Command("amalgam_2d", (
                "amalgam", "--f", _gaussian_spec(_rng(seed, 7), 2), "--local", "grand", "--global", "grand",
                "--p", "2", "--q", "2", "--a", GRANDIZER_2D, "--b", GRANDIZER_2D,
                "--window-side", "8", "--window-stride", "4", "--box", box2, "--cells", "64",
            )),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("battery", "dense-windows", "long-signal")
