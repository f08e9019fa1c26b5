"""The three benchmark workloads and the configuration files they run.

Every workload derives from the bundled flagship configuration
(``src/blfstep/configs/paper_sec6.json``), read as a plain JSON file so
that this module needs neither numpy nor the package:

- ``flagship``: the bundled file itself, unchanged.
- ``wide_rbf``: the flagship with ``rbf.l = 4096`` (the default 64 x 64
  lattice) and ``horizon = 4``, so the approximator dominates.
- ``sweep``: ``SWEEP_SCENARIOS`` scenarios drawn from the seed, each a
  flagship with a random input coefficient, disturbance amplitudes and
  reference amplitude, ``horizon = 2`` and ``decimation = 1``.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

NAMES = ("flagship", "wide_rbf", "sweep")
FLAGSHIP_CONFIG = Path("src") / "blfstep" / "configs" / "paper_sec6.json"

# One sweep pass runs this many scenarios; half have a negative beta.
SWEEP_SCENARIOS = 8


def flagship_doc(root: Path) -> dict:
    return json.loads((root / FLAGSHIP_CONFIG).read_text(encoding="utf-8"))


def wide_rbf_doc(base: dict) -> dict:
    doc = copy.deepcopy(base)
    doc["rbf"] = {"l": 4096}
    doc["horizon"] = 4.0
    return doc


def sweep_docs(base: dict, seed: int, count: int = SWEEP_SCENARIOS) -> list:
    """Scenarios for one seed.

    |beta| ~ U[0.5, 2]; the signs are a seeded shuffle of equally many
    + and -, so every seed runs the same mix of completed (beta > 0)
    and aborted (beta < 0) runs and the pass cost does not depend on
    how many negative signs a seed happens to draw. Each disturbance
    amplitude ~ U[0, 0.3] and the reference amplitude ~ U[0.5, 1],
    drawn independently.
    """
    rng = random.Random(seed)
    signs = [1.0, -1.0] * (count // 2) + [1.0] * (count % 2)
    rng.shuffle(signs)
    docs = []
    for sign in signs:
        doc = copy.deepcopy(base)
        doc["plant"]["beta"] = sign * rng.uniform(0.5, 2.0)
        for dist in doc["plant"]["disturbances"]:
            dist["amplitude"] = rng.uniform(0.0, 0.3)
        doc["reference"]["amplitude"] = rng.uniform(0.5, 1.0)
        doc["horizon"] = 2.0
        doc["decimation"] = 1
        docs.append(doc)
    return docs


def write_configs(root: Path, workload: str, seed: int, out_dir: Path) -> list:
    """Config file paths for a workload, writing generated ones to out_dir."""
    if workload == "flagship":
        return [root / FLAGSHIP_CONFIG]
    base = flagship_doc(root)
    if workload == "wide_rbf":
        docs = [wide_rbf_doc(base)]
    elif workload == "sweep":
        docs = sweep_docs(base, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    paths = []
    for i, doc in enumerate(docs):
        path = out_dir / f"config-{i:02d}.json"
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        paths.append(path)
    return paths


def expected_rows(doc: dict) -> int:
    """CSV rows (without header) a completed run of doc records: every
    decimation-th accepted step plus the final one."""
    step = doc.get("step", 1e-3)
    decimation = doc.get("decimation", 10)
    steps = int(round(doc.get("horizon", 20.0) / step))
    return steps // decimation + 1 + (1 if steps % decimation else 0)
