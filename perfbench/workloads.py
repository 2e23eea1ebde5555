"""Task lists of the four benchmark workloads, generated from a seed.

Stdlib only: the parent process builds inputs before any worker imports
numpy. Every task is one ``supres`` CLI invocation; measure tasks carry the
measure document the benchmark writes to a file for the program to read.
The seed moves atom positions, separations, signs and solver seeds; the
sizes of each workload are fixed, so every seed costs about the same.
"""

from __future__ import annotations

import math
import random

# SeparationTooSmall is raised when (sqrt(3) + 9/4) * log|S| / (separation * n)
# reaches 1 (certificate.system_norm_bounds); separations are drawn above it.
_SEP_CONST = math.sqrt(3.0) + 9.0 / 4.0
_SEP_MARGIN = 1.05

# (n, |S|, signs). |S| sits on both sides of ~7, where the crude Lipschitz
# slack of verify_bounded passes 1: the larger half is expected to be
# refused (exit 2) at the parent commit although sup|eta| stays near 0.13.
CERTIFY_GRID = (
    (1024, 1, "phase"), (1024, 32, "alt"),
    (1448, 3, "alt"), (2048, 2, "phase"), (2048, 16, "phase"),
    (2896, 5, "phase"), (4096, 4, "alt"), (4096, 12, "phase"),
    (8192, 3, "phase"), (8192, 10, "alt"), (16384, 12, "phase"),
)

# n -> |S| values, from one atom up to the separation limit of that n. The
# pass is kept short (about 3 s) so that a run repeats it several times and
# its median shrugs off bursts of load on a shared host. n = 512 is left out:
# its single (4n+1)^2 eigh takes about 16 s on one thread, and the same dense
# path dominates at n = 256.
GRAM_GRID = ((128, 1, "phase"), (128, 4, "alt"), (128, 8, "phase"), (128, 12, "alt"),
             (256, 20, "phase"))

# Each task solves K/4, K/2 and K. The step count of power iteration moves
# by about 10% with the start vector, so the larger sizes run on several
# solver seeds; otherwise one seed would set a whole pass. K stops at 4096 so
# that a run repeats the list: one --K 16384 task alone takes about 10 s.
SPECTRUM_KS = (400, 1024, 2048, 2048, 2048, 4096, 4096)
AUDIT_NS = (16, 32, 64)

TINY = {
    "certify-scan": ((256, 1, "phase"), (256, 3, "alt"), (512, 12, "phase")),
    "gram-sos": ((32, 1, "phase"), (32, 3, "alt"), (48, 5, "phase")),
    "spectrum-sweep": (40, 100),
    "audit-quad": (8, 12),
}


def min_separation(n: int, size: int) -> float:
    """Smallest wrap-around separation solve_certificate accepts, times the margin."""
    if size < 2:
        return 0.0
    return _SEP_MARGIN * _SEP_CONST * math.log(size) / n


def max_atoms(n: int) -> int:
    """Largest |S| whose minimum separation still fits |S| atoms on the circle."""
    size = 1
    while (size + 1) * min_separation(n, size + 1) < 1.0:
        size += 1
    return size


def random_measure(rng: random.Random, n: int, size: int, signs: str) -> dict:
    """Measure document with separation drawn log-uniformly between the
    SeparationTooSmall bound (times a 5% margin) and even spacing.

    One gap is set to the drawn separation exactly, so the measure sits at
    the drawn distance from the bound; the other gaps share what is left.
    """
    if size > max_atoms(n):
        raise ValueError(f"{size} atoms do not fit at n={n}")
    if size == 1:
        positions = [rng.random()]
    else:
        lo = min_separation(n, size)
        hi = 1.0 / size
        sep = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        weights = [0.0] + [rng.expovariate(1.0) for _ in range(size - 1)]
        total = sum(weights)
        free = 1.0 - size * sep
        gaps = [sep + free * w / total for w in weights]
        rng.shuffle(gaps)
        start = rng.random()
        positions, acc = [], start
        for g in gaps:
            positions.append(acc % 1.0)
            acc += g
    atoms = []
    for j, p in enumerate(positions):
        if signs == "alt":
            sign = [1.0 if j % 2 == 0 else -1.0, 0.0]
        else:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            sign = [math.cos(phi), math.sin(phi)]
        atoms.append({"position": p, "sign": sign})
    return {"n": n, "atoms": atoms}


def _measure_tasks(kind: str, grid, rng: random.Random) -> list[dict]:
    tasks = []
    for i, (n, size, signs) in enumerate(grid):
        tasks.append({
            "id": f"{kind}-{i:02d}-n{n}-s{size}",
            "kind": kind,
            "argv": [kind, "--measure", None],
            "measure": random_measure(rng, n, size, signs),
            "expect": {"n": n, "atom_count": size},
        })
    return tasks


def _spectrum_tasks(ks, rng: random.Random) -> list[dict]:
    tasks = []
    for i, K in enumerate(ks):
        s = rng.randrange(2**31)
        tasks.append({
            "id": f"spectrum-{i:02d}-K{K}",
            "kind": "spectrum",
            "argv": ["spectrum", "--K", str(K), "--seed", str(s)],
            "expect": {"K": K},
        })
    return tasks


def _audit_tasks(ns, rng: random.Random) -> list[dict]:
    tasks = [{
        "id": f"audit-n{n}",
        "kind": "audit",
        "argv": ["audit", "--n", str(n), "--seed", str(rng.randrange(2**31))],
        "expect": {"n": n},
    } for n in ns]
    tasks.append({"id": "constants", "kind": "constants", "argv": ["constants"],
                  "expect": {}})
    return tasks


def build(workload: str, seed: int, tiny: bool = False) -> dict:
    """Return {"modules", "warmup", "tasks", "probe"} for one workload and seed.

    ``probe`` names the host-speed kernel shaped like the workload's hot path
    (see worker.Probe).

    ``tiny`` swaps in small sizes for the benchmark's own smoke tests.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify-scan":
        grid = TINY[workload] if tiny else CERTIFY_GRID
        tasks = _measure_tasks("certify", grid, rng)
        warmup = _measure_tasks("certify", ((1024, 2, "phase"),), rng)[0]
        modules, probe = ["supres.certificate"], "elementwise"
    elif workload == "gram-sos":
        grid = TINY[workload] if tiny else GRAM_GRID
        tasks = _measure_tasks("gram", grid, rng)
        warmup = _measure_tasks("gram", ((64, 2, "phase"),), rng)[0]
        modules, probe = ["supres.gram"], "dense"
    elif workload == "spectrum-sweep":
        tasks = _spectrum_tasks(TINY[workload] if tiny else SPECTRUM_KS, rng)
        warmup = _spectrum_tasks((40,), rng)[0]
        modules, probe = ["supres.spectrum"], "fft"
    elif workload == "audit-quad":
        tasks = _audit_tasks(TINY[workload] if tiny else AUDIT_NS, rng)
        warmup = _audit_tasks((8,), rng)[0]
        warmup["argv"] += ["--samples", "11"]
        modules, probe = ["supres.bound_audit", "supres.constants"], "quad"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"modules": ["supres.cli"] + modules, "warmup": warmup, "tasks": tasks,
            "probe": probe}


WORKLOADS = ("certify-scan", "gram-sos", "spectrum-sweep", "audit-quad")
