"""Golden-output tripwire: the whole synth -> filter -> track -> eval pipeline
must reproduce these output bytes exactly, on a small seeded crossing
sequence with include/exclude dumps and on a dense crowd of near-identical
objects without dumps, where few track/detection pairs pass the IoU gate.
A refactor that claims to change nothing is checked here; a change that
means to alter an output updates the pinned digests and says why."""

import contextlib
import hashlib
import io

import numpy as np

from macsort.cli import main
from macsort.mot_io import read_embeddings, write_embeddings
from macsort.synth import ScenarioSpec, write_spec

SPEC = ScenarioSpec(
    seed=21, n_objects=8, n_frames=60, motion="crossing", appearance_homogeneity=0.6,
    detection_noise_px=1.0, miss_rate=0.1, clutter_rate=0.3, embedding_dim=16,
    occlusion_windows=[(2, 15, 24), (5, 30, 33)], speed_px=3.0,
)

GOLDEN = {
    "gt.txt": "c3b2a69f6a7671e6e841e1a18e25c4216034f47a2488f1bdde81ce68ab41465d",
    "general.txt": "813e7b4da57ac0862183e60cb92d2acdac44892919fe870cbb5e875c739b1e0d",
    "general.emb": "af54e29f97c636292108b0e4010d92d1438c660623e715ee8668b5009e1b2022",
    "filtered.txt": "a0ca0a6fea8f39ddd8d9164f12b3251da416600d9d625c75c8a676558a1000d5",
    "filtered.emb": "18b51f2d0bbda8fcb74a213204be43ee38f28a74a843e1089d629a6ed964ad16",
    "results.txt": "e2bf06914bdad20e9f52cdbad987d89fda4d991b6ab27d7d4b8cedacf4fe195d",
    "results.txt.metrics.json": "a28a40a8cc109061855d90afed4ae0bde2b7f3a12ad89554ae399fed388a6d6a",
}


CROWD_SPEC = ScenarioSpec(
    seed=7, n_objects=40, n_frames=20, motion="circular", appearance_homogeneity=0.95,
    detection_noise_px=1.0, miss_rate=0.05, clutter_rate=0.1, embedding_dim=16,
)

CROWD_GOLDEN = {
    "gt.txt": "b0c3ed03be3b3896776252ff8a471fb7ec1d53113db5ecb35a1ef5c79ca18809",
    "general.txt": "679c8c109f67d60a7b9c8c74db814fe08952d4adba5b3aa3c96e9e262fe0a773",
    "general.emb": "0280888d0df67b56abfd5e5dfb75847808f81c16f2489952f60f8e47364789f5",
    "filtered.txt": "d701940de882090bc04ede025b769ee67854a32c812ff36a1ba32293733e10a8",
    "filtered.emb": "cf6c086fb6e9ad5cc3d5ff96569497db259f65e7dc86aeb014792ffba27071ec",
    "results.txt": "98bd521d2cf8e6e2bd1cc45152d5943d277ac81b60a42c073e8076632c0c6035",
    "results.txt.metrics.json": "1f9574aebd5f68e2a98271aa89a78ffdfdabd09a5b69f3090b87892bc90e3920",
}


def _prompt_dump(seq, stem, rows):
    """Copy the chosen lines of general.txt, byte for byte, with their
    sidecar rows, as prompt file ``stem``."""
    lines = (seq / "general.txt").read_bytes().splitlines(keepends=True)
    (seq / f"{stem}.txt").write_bytes(b"".join(lines[i] for i in rows))
    write_embeddings(read_embeddings(seq / "general.emb")[rows], seq / f"{stem}.emb")


def _digests(seq, names):
    return {name: hashlib.sha256((seq / name).read_bytes()).hexdigest() for name in names}


def _run(tmp_path, spec, dumps):
    """Digests of the pinned inputs and outputs of the pipeline on ``spec``,
    with include/exclude dumps cut from general.txt when ``dumps``."""
    spec_path = tmp_path / "golden.spec"
    write_spec(spec, spec_path)
    seq = tmp_path / "seq"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", str(spec_path), str(seq)]) == 0
        if dumps:
            n = len((seq / "general.txt").read_bytes().splitlines())
            _prompt_dump(seq, "include", np.arange(0, n, 3))
            _prompt_dump(seq, "exclude", np.arange(1, n, 7))
        assert main(["filter", str(seq)]) == 0
        assert main(["track", str(seq)]) == 0
        assert main(["eval", str(seq / "gt.txt"), str(seq / "results.txt")]) == 0
    return _digests(seq, GOLDEN)


def test_pipeline_outputs_are_pinned(tmp_path):
    assert _run(tmp_path, SPEC, dumps=True) == GOLDEN


def test_dense_crowd_outputs_are_pinned(tmp_path):
    assert _run(tmp_path, CROWD_SPEC, dumps=False) == CROWD_GOLDEN
