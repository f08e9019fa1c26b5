"""Interleaved in-process timing of two checkouts' flagship run().

    python3 tools/ab_run.py PARENT_SRC CHANGE_SRC [--horizon 3] [--pairs 30]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Both packages are imported into this one process, under distinct names,
and each pair times one ``run()`` of the bundled ``paper_sec6.json`` cut
to ``--horizon`` seconds on each side by CPU time (``time.process_time``),
the parent first in even pairs and the change first in odd ones. One
untimed run per side warms both up first.

Prints each side's median, the median of the per-pair ratios
change / parent, and the number of pairs in which the change took less
time. Standard library and numpy only; writes nothing (no bytecode
either). Quicker to read than ``tools/bench_pairs.py``, which starts a
fresh interpreter per run: a host whose speed drifts over minutes moves
both sides of a pair alike here.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

SIDES = ("parent", "change")


def load_package(src: Path, name: str):
    """The blfstep package under src, imported as the module `name`; its
    relative imports resolve to submodules of `name`."""
    init = src / "blfstep" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no package at {init.parent}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def timed_run(package, config) -> float:
    start = time.process_time()
    package.run(config)
    return time.process_time() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--horizon", type=float, default=3.0)
    parser.add_argument("--pairs", type=int, default=30)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.horizon > 0:
        parser.error("--pairs must be >= 1 and --horizon > 0")

    runs = {}
    for side, src in zip(SIDES, (args.parent_src, args.change_src)):
        package = load_package(src.resolve(), f"blfstep_{side}")
        config = package.load_config_file(str(src / "blfstep" / "configs" / "paper_sec6.json"))
        runs[side] = (package, dataclasses.replace(config, horizon=args.horizon))
        timed_run(*runs[side])  # warm-up

    times = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
            times[side].append(timed_run(*runs[side]))

    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    better = sum(c < p for p, c in zip(times["parent"], times["change"]))
    for side in SIDES:
        print(f"{side:>6}: median {statistics.median(times[side]):.4f} s CPU "
              f"over {args.pairs} runs of a {args.horizon:g} s flagship")
    print(f"median pair ratio change/parent: {statistics.median(ratios):.4f}")
    print(f"change better in {better} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
