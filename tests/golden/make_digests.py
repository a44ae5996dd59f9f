"""Golden artifact digests: run every golden config and hash what it writes.

The golden configs are each command's defaults and every config of the
benchmark's workloads (``perfbench/workloads.py``).  Each runs in process
through ``tbsim.cli.main`` at seeds 1, 7, 77 and 1234, except the full-size
``lock`` and ``feedforward`` configs, which run at seed 1 only (their
tenth-size twins run the same code at every seed); ``switch-trace`` takes no
seed and runs once.  Every artifact and ``manifest.json`` gets one line
``<sha256>  <label>/<seed>/<file>``, the layout ``sha256sum -c`` reads.  The
file opens with ``#`` lines, which ``sha256sum -c`` skips, naming what the
bytes depend on beyond the source: the numpy version (its ``Generator``
streams may change between releases), the Python version (``repr(float)``)
and the platform (the libm behind ``math.cos``).

Run from the repository root to write ``artifacts-<version>.sha256`` for the
current ``tbsim.__version__`` next to this script:

    PYTHONPATH=src python tests/golden/make_digests.py

A change that moves a random stream or an artifact's format bumps the
version and adds a new file; a digest that changes at an unchanged version
is a defect.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import platform
import sys
import tempfile
from pathlib import Path

import numpy

from tbsim import __version__, cli

GOLDEN = Path(__file__).resolve().parent
WORKLOADS = GOLDEN.parents[1] / "perfbench" / "workloads.py"
SEEDS = (1, 7, 77, 1234)
ONE_SEED = {"lock": (1,), "feedforward": (1,)}
DIGEST_FILE = GOLDEN / f"artifacts-{__version__}.sha256"


def _workloads():
    spec = importlib.util.spec_from_file_location("golden_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass resolves annotations there
    spec.loader.exec_module(module)
    return module


def runs() -> list[tuple[str, str | None, str, str]]:
    """(label, seed, command, config text) of every golden run, in order."""
    workloads = _workloads()
    configs = {f"default-{command}": (command, "") for command in cli._RUNNERS}
    configs.update({label: (command, workloads.config_text(values))
                    for label, (command, values) in workloads.CONFIGS.items()})
    out = []
    for label, (command, text) in configs.items():
        seeds = (None,) if command in cli._SEEDLESS else ONE_SEED.get(label, SEEDS)
        out += [(label, None if seed is None else str(seed), command, text) for seed in seeds]
    return out


def _main(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"tbsim {' '.join(argv)} exited {code}")


def run_all(work: Path) -> dict[str, Path]:
    """Run every golden config under ``work``; map ``<label>/<seed>`` to its
    output directory (seed ``-`` for a seedless command)."""
    work.mkdir(parents=True, exist_ok=True)
    dirs = {}
    for label, seed, command, text in runs():
        key = f"{label}/{seed or '-'}"
        cfg = work / f"{label}.cfg"
        cfg.write_text(text)
        argv = [command, "--config", str(cfg), "--out", str(work / key)]
        _main(argv if seed is None else argv + ["--seed", seed])
        dirs[key] = work / key
    return dirs


def replay(out_dir: Path, into: Path) -> None:
    """Replay the manifest in ``out_dir`` into ``into``."""
    _main(["replay", "--manifest", str(out_dir / "manifest.json"), "--out", str(into)])


def digest_lines(dirs: dict[str, Path]) -> list[str]:
    """One ``sha256sum`` line per file of each run, runs in order, files by name."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {key}/{path.name}"
            for key, out_dir in dirs.items() for path in sorted(out_dir.iterdir())]


def header_lines() -> list[str]:
    """The ``#`` lines naming the numpy, Python and platform of this process."""
    system = " ".join([platform.system(), platform.machine(), *platform.libc_ver()])
    return [f"# numpy {numpy.__version__}", f"# python {platform.python_version()}",
            f"# platform {system.strip()}"]


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        lines = digest_lines(run_all(Path(work)))
    DIGEST_FILE.write_text("\n".join(header_lines() + lines) + "\n")
    print(f"wrote {len(lines)} digests to {DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
