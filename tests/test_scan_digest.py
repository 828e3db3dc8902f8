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


def test_grid_lines_read_alike_at_every_block_size():
    # the sort keys are built in stretches of the block size, and the grid
    # does not depend on where the stretches are cut
    names = [f"grid-d2-{cloud}-b{cells}" for cloud in ("clash", "edge") for cells in scan_digest.BLOCK_SIZES]
    lines = scan_digest.digest_lines(names)
    assert [line.split()[0] for line in lines] == names
    assert len({line.split()[1] for line in lines[:3]}) == len({line.split()[1] for line in lines[3:]}) == 1
    assert discrepancy._BLOCK_CELLS == 1 << 16


def test_mass_and_region_lines_digest_stably():
    # every zero-volume line hashes eight refusals with the same message
    names = ["mass-d2-extension-empty", "mass-d3-edge-tops"] + [f"region-d{d}-zero" for d in (1, 2, 3)]
    lines = scan_digest.digest_lines(names)
    assert [line.split()[0] for line in lines] == names
    assert all(re.fullmatch(r"\S+ [0-9a-f]{16}", line) for line in lines)
    assert scan_digest.digest_lines(names) == lines
    assert len({line.split()[1] for line in lines[2:]}) == 1
