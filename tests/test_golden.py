"""Golden output digests: every output of a few small fixed runs, byte for byte.

The runs go through `anomix.cli.main` in an empty working directory, with relative
paths, so the `config_hash` of `score` and `evaluate`, which record `--model` and
`--data` as given, does not depend on where they ran. `golden.json` maps the SHA-256
of every output file, and each manifest's `config_hash`, to the file's path.
Manifests are not hashed whole: they hold wall-clock times.

Another BLAS kernel or numpy build may change a score's last bits (see the `scorer`
docstring), so `golden.json` also records where it was taken, and the test skips
on any other environment. A change that moves output bytes on purpose regenerates
the file, from the repository root, with

    PYTHONPATH=src python -m tests.test_golden

and names each moved output in CHANGES.md.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from anomix.cli import main
from anomix.data import CASE_KINDS
from anomix.losses import ABLATION_MODES

GOLDEN = Path(__file__).with_name("golden.json")
TRAIN = ["--data", "synth-toy/toy.csv", "--label-col", "label"]
SCORE = ["--model", "train-full/model.json", "--data", "train-full/test_split.csv",
         "--label-col", "label"]
RUNS = (
    *(["synth", "--kind", kind, "--n", "2000", "--seed", "0", "--out", f"synth-{kind}"]
      for kind in ("toy", *CASE_KINDS)),
    *(["train", *TRAIN, "--labeled-anomalies", "10", "--epochs", "3", "--ablation", mode,
       "--out", f"train-{mode}"] for mode in ABLATION_MODES),
    ["score", *SCORE, "--out", "score"],
    ["evaluate", *SCORE, "--out", "evaluate"],
    # Budget 400 exceeds the toy file's training anomalies: that cell records its error.
    ["sweep", *TRAIN, "--epochs", "2", "--contamination", "0", "0.1",
     "--labeled-anomalies", "5", "400", "--out", "sweep"],
)


def _openblas_core():
    """The kernel a DYNAMIC_ARCH OpenBLAS picked for this CPU when it loaded, or None
    where numpy bundles no scipy-openblas. show_config names the build's kernel."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def environment():
    """numpy's version, the machine, the BLAS numpy links, its kernel and numpy's SIMD
    extensions; None where `np.show_config` cannot return them (numpy before 1.25)."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        simd = config["SIMD Extensions"]["found"]
    except (TypeError, KeyError):
        return None
    return {"numpy": np.__version__, "machine": platform.machine(), "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "openblas_configuration": blas.get("openblas configuration"),
            "openblas_core": _openblas_core(), "simd_found": simd}


def golden_outputs() -> dict:
    """Run RUNS in the working directory, which starts empty, and return each output
    file's SHA-256 and each manifest's config_hash, keyed by path."""
    for argv in RUNS:
        assert main(argv) == 0, argv
    digests = {}
    for path in sorted(Path().rglob("*")):
        if path.name.endswith("_manifest.json"):
            digests[f"{path.as_posix()}#config_hash"] = json.loads(path.read_text())["config_hash"]
        elif path.is_file():
            digests[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_every_output_has_its_golden_bytes(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    here = environment()
    if here != golden["environment"]:
        pytest.skip(f"digests taken on {golden['environment']}; this is "
                    f"{here or 'an environment np.show_config cannot describe'}")
    monkeypatch.chdir(tmp_path)
    digests = golden_outputs()
    moved = sorted(name for name in digests.keys() | golden["digests"].keys()
                   if digests.get(name) != golden["digests"].get(name))
    assert not moved, f"outputs moved from tests/golden.json: {moved}"


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        os.chdir(scratch)
        try:
            outputs = golden_outputs()
        finally:
            os.chdir(home)
    GOLDEN.write_text(json.dumps({"environment": environment(), "digests": outputs},
                                 indent=1, sort_keys=True) + "\n")
    print(f"{len(outputs)} digests written to {GOLDEN}")
