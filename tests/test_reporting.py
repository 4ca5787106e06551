import hashlib
import json
import tracemalloc

import pytest

from workatlas.cli import EXIT_OK, main
from workatlas.reporting import DIGEST_CHUNK, sha256_file


class TestStreamedDigest:
    @pytest.mark.parametrize("size", [
        0, DIGEST_CHUNK - 1, DIGEST_CHUNK, DIGEST_CHUNK + 1, 3 * DIGEST_CHUNK + 7,
    ])
    def test_equals_digest_of_the_bytes(self, tmp_path, size):
        data = bytes((i * 31 + 7) % 256 for i in range(size))
        path = tmp_path / "input.bin"
        path.write_bytes(data)
        assert sha256_file(path) == hashlib.sha256(data).hexdigest()

    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        path = tmp_path / "large.bin"
        block = bytes(range(256)) * 4096  # 1 MiB
        with open(path, "wb") as fh:
            for _ in range(16):
                fh.write(block)
        expected = hashlib.sha256(block * 16).hexdigest()
        tracemalloc.start()
        try:
            digest = sha256_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest == expected
        assert peak < 1024 * 1024


def test_manifest_input_digests_are_digests_of_the_files(tmp_path, capsys):
    code = main(["report", "--fixtures", "--seed", "42", "--permutations", "20",
                 "--out", str(tmp_path), "--run-id", "r"])
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "r" / "manifest.json").read_text(encoding="utf-8"))
    config = manifest["config"]
    assert {"examples", "domain_taxonomy", "workflows"} <= set(manifest["inputs"])
    for key, digest in manifest["inputs"].items():
        with open(config[key], "rb") as fh:
            assert digest == hashlib.sha256(fh.read()).hexdigest(), key
