"""Golden-output tripwire: the whole synth -> filter -> track -> eval pipeline
on one small seeded sequence with include/exclude dumps must reproduce these
output bytes exactly. A refactor that claims to change nothing is checked
here; a change that means to alter an output updates the pinned digests and
says why."""

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


def _prompt_dump(seq, stem, rows):
    """Copy the chosen lines of general.txt, byte for byte, with their
    sidecar rows, as prompt file ``stem``."""
    lines = (seq / "general.txt").read_bytes().splitlines(keepends=True)
    (seq / f"{stem}.txt").write_bytes(b"".join(lines[i] for i in rows))
    write_embeddings(read_embeddings(seq / "general.emb")[rows], seq / f"{stem}.emb")


def _digests(seq, names):
    return {name: hashlib.sha256((seq / name).read_bytes()).hexdigest() for name in names}


def test_pipeline_outputs_are_pinned(tmp_path):
    spec_path = tmp_path / "golden.spec"
    write_spec(SPEC, spec_path)
    seq = tmp_path / "seq"
    inputs = ("gt.txt", "general.txt", "general.emb")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", str(spec_path), str(seq)]) == 0
        assert _digests(seq, inputs) == {name: GOLDEN[name] for name in inputs}
        n = len((seq / "general.txt").read_bytes().splitlines())
        _prompt_dump(seq, "include", np.arange(0, n, 3))
        _prompt_dump(seq, "exclude", np.arange(1, n, 7))
        assert main(["filter", str(seq)]) == 0
        assert main(["track", str(seq)]) == 0
        assert main(["eval", str(seq / "gt.txt"), str(seq / "results.txt")]) == 0
    assert _digests(seq, GOLDEN) == GOLDEN
