"""The phase diagrams of the paper configs, pinned byte for byte.

The SHA-256 digests below are those of ``phase_diagram.csv`` and
``phase_boundaries.json`` as the per-point sweep and the one-edge-at-a-time
bisection wrote them, before the sweep worked on whole arrays; the batched
route must reproduce them exactly.  They hold for numpy 2.4.6 and the libm of
glibc 2.36 on x86-64: another numpy (its SIMD tanh) or another libm (exp, log)
may move last bits, and then these digests, while the numbers stay right.
"""

import hashlib
import json
from pathlib import Path

import pytest

from entbath.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: config -> (phase_diagram.csv digest, phase_boundaries.json digest, stationary points)
PINNED = {
    "fig2_left": ("47a18df9b4d46fd390edb45b98ad18d5f8e4bb78cc50d602bb1dd7791272bdc3",
                  "0a1bb350e8a7dbbd4620d69e9e8ba5d097660b74853165b56c9fc2f111455670", 214),
    "fig5": ("798cd65e31dac3d90935562d57c4ca5cf20289618dfa9ed38b69ae82f35ad62d",
             "225618e6e9fb70b9b581b2f391f6e306408b30fe6c8cb81ece2ea070247f7b2d", 244),
    "fig4": ("9f7029b6783b5e6dc5f928d20f994724c80df9816c6eca629c7d60692cc6c0d7",
             "0438c25fd767d3f60a111c5f9bb93e81163c3f498e4133a5fedfa25377eba9c3", 219),
    "fig2_right": ("e0428a660f6322193b737a59bca2d496a1b9e97c22047b15b7fb3a40fa242080",
                   "51e8b0094a399d78b376fe14936f07d0051eaeb19c574059f6da487550191db4", 124),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_paper_phase_diagram_is_unchanged(tmp_path, name):
    csv_digest, boundaries_digest, points = PINNED[name]
    out = tmp_path / name
    assert main(["phase-diagram", "--config", str(CONFIGS / f"{name}.cfg"), "--out", str(out)]) == 0
    assert sha256(out / "phase_diagram.csv") == csv_digest
    assert sha256(out / "phase_boundaries.json") == boundaries_digest
    # each grid (T, C12) and each distinct bisection midpoint evaluated once
    info = json.loads((out / "run_info.json").read_text())
    assert info["stationary"]["points"] == points
