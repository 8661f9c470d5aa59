"""Compare the command-line outputs of two source trees, byte for byte.

Usage::

    python tests/compare_trees.py PARENT CHANGE

Each tree is the root of a checkout; its package is run from its ``src/``.
For seeds 0 to 9 the script runs ``simulate``, ``classify``, ``pairing``,
``encode`` and ``disorder-scan`` on the configs of
``perfbench.workloads.cli_configs(seed)``, and ``validate-oracle --seed
seed`` on that seed's ``simulate`` config: 60 runs in each tree, each a
fresh ``python -m regdeph.cli`` process with BLAS on one thread.  It names
every exit code, stdout, stderr and written file that differs and exits 1
if any does, 0 if all 60 runs are identical.

The configs come from this checkout's ``perfbench/``, which is only read.
Byte identity holds per machine and BLAS kernel, so run both trees here,
on one machine.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = range(10)
COMMANDS = ("simulate", "classify", "pairing", "encode", "disorder-scan")
TIMEOUT_S = 300


def _runs(config_dir: Path):
    """``(name, argv)`` of every run; writes each seed's configs into ``config_dir``."""
    sys.path.insert(0, str(PERFBENCH))
    from workloads import cli_configs

    for seed in SEEDS:
        for command, text in cli_configs(seed).items():
            (config_dir / f"{command}-{seed}.ini").write_text(text)
        for command in COMMANDS:
            config = config_dir / f"{command}-{seed}.ini"
            yield f"{command}-{seed}", [command, "--config", str(config)]
        yield f"validate-oracle-{seed}", ["validate-oracle", "--config",
                                          str(config_dir / f"simulate-{seed}.ini"),
                                          "--seed", str(seed)]


def _run(tree: Path, work: Path, name: str, argv: list[str]) -> dict[str, bytes]:
    """Exit code, stdout, stderr and every written file of one run, by name."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # the same relative output directory in both trees, so stdout may name it
    out = Path("out") / name
    proc = subprocess.run([sys.executable, "-m", "regdeph.cli", *argv, "--output", str(out),
                           "--quiet"], cwd=work, env=env, capture_output=True,
                          timeout=TIMEOUT_S)
    result = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
              "stderr": proc.stderr}
    if (work / out).is_dir():
        for path in sorted((work / out).rglob("*")):
            if path.is_file():
                result[str(path.relative_to(work / out))] = path.read_bytes()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the first checkout")
    parser.add_argument("change", type=Path, help="root of the second checkout")
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "regdeph").is_dir():
            parser.error(f"{tree} has no src/regdeph")
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        work = [tmp / "parent", tmp / "change"]
        for path in (tmp / "configs", *work):
            path.mkdir()
        runs = list(_runs(tmp / "configs"))
        for name, argv in runs:
            parent, change = (_run(tree, w, name, argv) for tree, w in zip(trees, work))
            names = [key for key in dict.fromkeys([*parent, *change])
                     if parent.get(key) != change.get(key)]
            for key in names:
                print(f"{name}: {key} differs")
            differ += bool(names)
    print(f"{len(runs) - differ} of {len(runs)} runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
