"""tools/scan_digest.py on two of its cases."""

import importlib.util
import re
from pathlib import Path

from nuqmc import discrepancy

_PATH = Path(__file__).resolve().parent.parent / "tools" / "scan_digest.py"
_spec = importlib.util.spec_from_file_location("scan_digest", _PATH)
scan_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scan_digest)


def test_two_cases_digest_stably_and_restore_the_block_size():
    names = ["bracket-d1-free-power-b1", "exact-d2-tied-atoms-b7"]  # in print order
    lines = scan_digest.digest_lines(names)
    assert [line.split()[0] for line in lines] == names
    assert all(re.fullmatch(r"\S+ [0-9a-f]{16}", line) for line in lines)
    assert scan_digest.digest_lines(names) == lines
    assert discrepancy._BLOCK_CELLS == 1 << 16


def test_build_and_round_lines_hash_the_result_and_the_certificate_apart():
    names = ["build-d1-power-N64", "round-d1-N1024"]  # in print order
    lines = scan_digest.digest_lines(names)
    assert all(re.fullmatch(r"\S+ [0-9a-f]{16} [0-9a-f]{16}", line) for line in lines)
    assert [line.split()[0] for line in lines] == names
