"""Damaged ``.dtgc``/``.dtgm`` files: every truncation and a byte flip at
every 7th offset must be rejected with ``FormatError``, and a sample of them
must make ``dtg probe`` exit 3 with an error line, not a traceback."""

import json

import pytest

from dtg.binio import FormatError
from dtg.cli import main
from dtg.corpus import CorpusSpec, generate_corpus, load_corpus, save_corpus
from dtg.model import build_head, build_student, load_student, save_student

CLI_SAMPLE = 97  # every 97th damaged file also goes through the CLI


def damaged(blob: bytes):
    """(description, bytes) for every truncation and every 7th-byte flip."""
    for n in range(len(blob)):
        yield f"truncated to {n} bytes", blob[:n]
    for i in range(0, len(blob), 7):
        flipped = bytearray(blob)
        flipped[i] ^= 0xFF
        yield f"byte {i} flipped", bytes(flipped)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("faults")
    save_corpus(generate_corpus(CorpusSpec(2, 3, 4, 8, 4, seed=3)), root / "corpus.dtgc")
    save_student(root / "model.dtgm", build_student(8, 6, 4, seed=1), build_head(4, 2, seed=2))
    return root


@pytest.mark.parametrize("name, load", [("corpus.dtgc", load_corpus),
                                        ("model.dtgm", load_student)])
def test_every_damaged_file_raises_format_error(files, tmp_path, name, load):
    good = (files / name).read_bytes()
    load(files / name)
    path = tmp_path / name
    for what, blob in damaged(good):
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            load(path)
            pytest.fail(f"{name} {what} loaded")


@pytest.mark.parametrize("name", ["corpus.dtgc", "model.dtgm"])
def test_damaged_files_make_probe_exit_3(files, tmp_path, capsys, name):
    good = (files / name).read_bytes()
    path = tmp_path / name
    path.write_bytes(good)
    inputs = {"corpus.dtgc": files / "corpus.dtgc", "model.dtgm": files / "model.dtgm", name: path}
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"seed": 0, "corpus": str(inputs["corpus.dtgc"]),
                                  "train": {"d": 4, "h": 6}, "out_dir": str(tmp_path / "out")}))
    argv = ["probe", "--config", str(config), "--checkpoint", str(inputs["model.dtgm"]),
            "--quiet"]
    assert main(argv) == 0
    for what, blob in list(damaged(good))[::CLI_SAMPLE]:
        path.write_bytes(blob)
        assert main(argv) == 3, what
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, what
