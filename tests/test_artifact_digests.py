"""Every run and CLI artifact of ``scripts/artifact_digests.py`` keeps its bits.

``artifact_digests.txt`` holds the script's lines, one ``<case> <sha256>``
per training run and per CLI artifact.  A change that alters some of them
on purpose rewrites the file and names each changed line in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

from conftest import platform_note

ROOT = Path(__file__).resolve().parents[1]


def test_artifact_digests_are_the_recorded_lines():
    want = (ROOT / "tests" / "artifact_digests.txt").read_text().splitlines()
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "artifact_digests.py")],
                         capture_output=True, text=True, check=True)
    got = run.stdout.splitlines()
    assert [line.split()[0] for line in got] == [line.split()[0] for line in want]
    changed = [g.split()[0] for g, w in zip(got, want) if g != w]
    assert not changed, (f"{len(changed)} of {len(want)} digests changed: {changed}; "
                         f"{platform_note()}")
