"""Checkpoint format v2: one-pass envelopes with a binary array sidecar.

``CheckpointStore.save`` serializes the payload once; every ``np.ndarray``
leaf goes to ``checkpoint-NNNNNNNN.bin`` and the envelope carries both
hashes.  These tests pin the crash-safety contract of that layout — a
rotten, torn or missing sidecar makes its checkpoint corrupt and recovery
falls back past it, pruning keeps whole pairs — and the refusal of
checkpoints written by another format version.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.controller import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointStore,
    CheckpointVersionError,
    ControllerConfig,
    PainterController,
    synthetic_deltas,
)
from repro.core.orchestrator import OrchestratorConfig
from repro.scenario import tiny_scenario
from repro.telemetry import METRICS

V1_DIR = Path(__file__).parent / "data" / "checkpoint_v1"
REPO = Path(__file__).resolve().parents[1]


def array_payload(tag: int):
    return {
        "tag": tag,
        "plane": {
            "keys": np.arange(tag, tag + 5, dtype=np.uint64),
            "bytes": np.linspace(0.5, 2.5, 5),
        },
        "rows": [np.array([[1, 2], [3, 4]], dtype=np.int32) + tag],
    }


def assert_payloads_equal(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        # Bit-exact, so -0.0 and NaN payloads count too.
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys()
        for key in want:
            assert_payloads_equal(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert isinstance(got, list) and len(got) == len(want)
        for a, b in zip(got, want):
            assert_payloads_equal(a, b)
    else:
        assert got == want


def names(directory: Path):
    return sorted(p.name for p in directory.iterdir())


class TestSidecarFormat:
    def test_arrays_round_trip_through_the_sidecar(self, tmp_path):
        store = CheckpointStore(tmp_path)
        payload = {
            "u64": np.array([0, 2**64 - 1, 7], dtype=np.uint64),
            "f64": np.array([np.inf, -0.0, 1e-300, np.nan]),
            "grid": np.arange(12, dtype=np.int16).reshape(3, 4),
            "strided": np.arange(10, dtype=np.int64)[::3],
            "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
            "scalar": np.array(5, dtype=np.int64),
            "empty": np.zeros((0, 3), dtype=np.float32),
            "flags": np.array([True, False, True]),
            "big_endian": np.array([1, 256], dtype=">u4"),
            "plain": {"n": 1, "s": "x", "f": 0.1},
        }
        path = store.save(3, payload)
        assert names(tmp_path) == ["checkpoint-00000003.bin", "checkpoint-00000003.json"]
        loaded = store.load(path)
        assert loaded.seq == 3
        assert_payloads_equal(loaded.payload, payload)
        assert np.isnan(loaded.payload["f64"][3])
        # Restored arrays are the caller's to mutate.
        loaded.payload["grid"][0, 0] = 99
        assert loaded.payload["grid"].flags.writeable

    def test_envelope_references_the_sidecar(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(0, array_payload(1))
        envelope = json.loads(path.read_text())
        assert envelope["version"] == CHECKPOINT_VERSION == 2
        sidecar = store.sidecar_for(path)
        assert envelope["sidecar"]["bytes"] == sidecar.stat().st_size
        ref = envelope["payload"]["plane"]["keys"]["__ndarray__"]
        assert ref["dtype"] == "<u8" and ref["shape"] == [5]
        # Compact, canonical, payload last: no pretty-printing pass.
        text = path.read_text()
        assert "\n" not in text and text.endswith("}}")
        assert text.index('"payload":') > text.index('"version":')

    def test_array_free_payload_writes_one_file(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(0, {"cursor": 1, "nested": {"a": [1, 2]}})
        assert names(tmp_path) == [path.name]
        assert "sidecar" not in json.loads(path.read_text())

    def test_payload_is_serialized_once(self, tmp_path, monkeypatch):
        import repro.controller.checkpoint as checkpoint_module

        payload = array_payload(2)
        real_dumps = json.dumps
        dumped = []

        def counting_dumps(obj, *args, **kwargs):
            dumped.append(obj is payload)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(checkpoint_module.json, "dumps", counting_dumps)
        CheckpointStore(tmp_path).save(0, payload)
        assert dumped.count(True) == 1

    def test_unserializable_leaves_are_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(TypeError):
            store.save(0, {"objects": np.array([object()], dtype=object)})
        with pytest.raises(TypeError):
            store.save(0, {"scalar": np.int64(1)})
        assert store.list_paths() == []


class TestSidecarCorruption:
    @pytest.fixture
    def store(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=10)
        store.save(0, array_payload(0))
        store.save(1, array_payload(1))
        store.save(2, array_payload(2))
        return store

    def assert_falls_back(self, store, caplog):
        corrupt = METRICS.counter("controller.corrupt_checkpoints").value
        with caplog.at_level("WARNING", logger="repro.controller.checkpoint"):
            latest = store.latest()
        assert latest.seq == 1
        assert_payloads_equal(latest.payload, array_payload(1))
        assert "skipping corrupt checkpoint" in caplog.text
        assert "checkpoint-00000002.bin" in caplog.text
        assert METRICS.counter("controller.corrupt_checkpoints").value == corrupt + 1
        with pytest.raises(CheckpointError):
            store.load(store.path_for(2))

    def test_flipped_sidecar_byte_falls_back(self, store, caplog):
        sidecar = store.sidecar_for(store.path_for(2))
        blob = bytearray(sidecar.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        sidecar.write_bytes(bytes(blob))
        self.assert_falls_back(store, caplog)

    def test_truncated_sidecar_falls_back(self, store, caplog):
        sidecar = store.sidecar_for(store.path_for(2))
        sidecar.write_bytes(sidecar.read_bytes()[:-3])
        self.assert_falls_back(store, caplog)

    def test_missing_sidecar_falls_back(self, store, caplog):
        store.sidecar_for(store.path_for(2)).unlink()
        self.assert_falls_back(store, caplog)

    def test_payload_hash_covers_the_bytes_on_disk(self, store):
        # Same JSON value, different bytes: still a hash failure.
        path = store.path_for(2)
        path.write_text(path.read_text().replace('"tag":2', '"tag":2.0'))
        assert store.latest().seq == 1

    def test_reference_past_the_sidecar_is_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(0, {"a": np.arange(4, dtype=np.int64)})
        text = path.read_text()
        envelope = json.loads(text)
        forged = text.replace('"offset":0', '"offset":8')
        payload_text = forged[forged.index(',"payload":') + 11:-1]
        forged = forged.replace(
            envelope["sha256"], hashlib.sha256(payload_text.encode()).hexdigest()
        )
        path.write_text(forged)
        with pytest.raises(CheckpointError, match="past the end"):
            store.load(path)


class TestPruning:
    def test_prune_keeps_whole_pairs_and_no_litter(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        # A crash mid-write leaves a temp file; one between the sidecar
        # and the envelope leaves an orphan sidecar.
        (tmp_path / ".checkpoint-00000001.bin.x1y2.tmp").write_bytes(b"torn")
        (tmp_path / "checkpoint-00000001.bin").write_bytes(b"orphan")
        for seq in range(5):
            payload = array_payload(seq) if seq != 3 else {"no": "arrays"}
            store.save(seq, payload)
        assert names(tmp_path) == [
            "checkpoint-00000003.json",
            "checkpoint-00000004.bin",
            "checkpoint-00000004.json",
        ]
        store.save(5, array_payload(5))
        assert names(tmp_path) == [
            "checkpoint-00000004.bin",
            "checkpoint-00000004.json",
            "checkpoint-00000005.bin",
            "checkpoint-00000005.json",
        ]
        for path in store.list_paths():
            store.load(path)

    def test_failed_sidecar_write_leaves_the_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        import repro.io as rio

        store = CheckpointStore(tmp_path)
        store.save(0, array_payload(0))
        before = names(tmp_path)
        monkeypatch.setattr(
            rio.os, "fsync", lambda fd: (_ for _ in ()).throw(OSError("disk"))
        )
        with pytest.raises(OSError):
            store.save(1, array_payload(1))
        monkeypatch.undo()
        assert names(tmp_path) == before
        assert store.latest().seq == 0


class TestVersionRefusal:
    """A real version-1 checkpoint (written by the pre-sidecar format)."""

    @pytest.fixture
    def v1_dir(self, tmp_path):
        target = tmp_path / "cp"
        shutil.copytree(V1_DIR, target)
        return target

    def test_load_and_latest_refuse_instead_of_skipping(self, v1_dir):
        store = CheckpointStore(v1_dir)
        (path,) = store.list_paths()
        assert json.loads(path.read_text())["version"] == 1
        with pytest.raises(CheckpointVersionError, match="version 1 checkpoint"):
            store.load(path)
        with pytest.raises(CheckpointVersionError, match="move the checkpoint"):
            store.latest()

    def test_controller_refuses_and_touches_nothing(self, v1_dir):
        before = {p.name: p.read_bytes() for p in v1_dir.iterdir()}
        scenario = tiny_scenario(seed=3)
        controller = PainterController(
            scenario,
            OrchestratorConfig(prefix_budget=4),
            ControllerConfig(checkpoint_dir=v1_dir, checkpoint_keep=1),
            synthetic_deltas(scenario, iterations=5, seed=7),
        )
        with pytest.raises(CheckpointVersionError):
            try:
                controller.run()
            finally:
                controller.close()
        # The journal was not restarted and no checkpoint was pruned.
        assert {p.name: p.read_bytes() for p in v1_dir.iterdir()} == before

    def test_cli_exits_with_guidance(self, v1_dir):
        journal = (v1_dir / "journal.jsonl").read_bytes()
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "controller", "--preset", "tiny",
                "--seed", "3", "--budget", "4", "--synthetic", "5",
                "--delta-seed", "7", "--checkpoint-dir", str(v1_dir),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO / "src")},
            cwd=REPO,
        )
        assert proc.returncode == 2
        assert "version 1 checkpoint" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert (v1_dir / "journal.jsonl").read_bytes() == journal
