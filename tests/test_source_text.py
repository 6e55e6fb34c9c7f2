"""Source-text guards on the package.

``np.cross`` and ``np.polyval`` spend tens of microseconds a call on their
array handling, several times the arithmetic of one 3-vector or one scalar
polynomial.  The package computes those with ``geometry.cross3`` and the
scalar Horner loop of ``numerics._polish`` instead (bit for bit the same);
batches of vectors go through ``constraints._cross``.  These tests read
``src/fold3d/*.py`` as text, without importing anything, and fail when
either call comes back.
"""

import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fold3d").glob("*.py"))
SLOW_CALL = re.compile(r"\bnp\s*\.\s*(cross|polyval)\s*\(")


def test_sources_found():
    assert {"geometry.py", "numerics.py", "constraints.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_np_cross_or_polyval_call(path):
    calls = [
        f"{path.name}:{number}: {line.strip()}"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if SLOW_CALL.search(line)
    ]
    assert not calls, "\n".join(calls)


def test_guard_tells_a_call_from_a_mention():
    assert SLOW_CALL.search("    v = np.cross(n, u)")
    assert SLOW_CALL.search("p = float(np.polyval(coeffs, x))")
    assert not SLOW_CALL.search('    differences np.cross forms, column by column')
    assert not SLOW_CALL.search("    v = cross3(n, u)")
