"""Every golden config reproduces its committed artifact digests, and replay
reproduces every artifact byte for byte.

The digests of the current version are ``tests/golden/artifacts-<version>.sha256``,
written by ``tests/golden/make_digests.py``; see that script for the configs
and seeds it covers.  The file's ``#`` lines name the numpy, Python and
platform it was made under; a failure names them beside those of this run.
"""

import importlib.util
from pathlib import Path

import tbsim

GOLDEN = Path(__file__).resolve().parent / "golden"


def _make_digests():
    spec = importlib.util.spec_from_file_location("make_digests", GOLDEN / "make_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifacts_match_golden_digests_and_replay_byte_identically(tmp_path):
    lines = (GOLDEN / f"artifacts-{tbsim.__version__}.sha256").read_text().splitlines()
    recorded = [line for line in lines if line.startswith("#")]
    golden = [line for line in lines if not line.startswith("#")]
    digests = _make_digests()
    versions = f"recorded under {recorded}, running under {digests.header_lines()}"
    dirs = digests.run_all(tmp_path / "runs")
    got = digests.digest_lines(dirs)
    assert [g.split()[1] for g in got] == [w.split()[1] for w in golden]
    moved = [w.split()[1] for g, w in zip(got, golden) if g != w]
    assert moved == [], f"{len(moved)} artifacts differ from their golden digests; {versions}"

    replays = {}
    for key, out_dir in dirs.items():
        replays[key] = tmp_path / "replays" / key
        digests.replay(out_dir, replays[key])
    assert digests.digest_lines(replays) == golden, versions
