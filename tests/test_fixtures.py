"""Pinned CLI outputs: every config under ``tests/fixtures/`` against its checked-in result.

``fixtures/<command>.ini`` runs as ``regdeph <command>`` in-process.  Its
expected files are in ``fixtures/<command>/``, which a command that writes none
(``pairing``) does not have, and its stdout, with the output directory written
as ``{out}``, in ``fixtures/<command>.stdout``.  After a
change meant to move an output, rewrite them all with

    PYTHONPATH=src python tests/test_fixtures.py

Byte identity holds only per machine and BLAS kernel, so the comparison is by
rule: file names, exit codes, text and integers exactly, and every other
number within one unit of its last printed digit, with two exceptions:

* an expected number below ``ROUNDOFF`` in magnitude is a roundoff
  diagnostic, such as a residual or a leakage that is zero but for rounding,
  and compares to that absolute floor;
* a double printed in full, as Python's ``repr`` prints it (``FULL_DIGITS``
  or more significant digits in either printing), compares within ``ULPS``
  units in the last place of the expected double, since one unit of its last
  printed digit is finer than the double's own spacing.

Printings of one value may differ in length (``0.2`` and ``0.200000000001`` at
12 digits), so the finer of the two last digits sets the unit.
"""
import contextlib
import io
import math
import re
import shutil
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from regdeph.cli import EXIT_OK, main

FIXTURES = Path(__file__).parent / "fixtures"
CONFIGS = sorted(FIXTURES.glob("*.ini"))
ROUNDOFF = Decimal("1e-15")
FULL_DIGITS = 16
ULPS = 4
# a number standing alone: not part of a word, a version string or a hex digest
_NUMBER = re.compile(r"(?<![\w.+-])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?![\w.])")
_INTEGER = re.compile(r"[-+]?\d+")


def run_fixture(config: Path, out: Path) -> str:
    """Run the config's command into ``out``; return its stdout with ``out`` as ``{out}``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([config.stem, "--config", str(config), "--output", str(out)])
    assert code == EXIT_OK, f"{config.name} exited {code}"
    return buf.getvalue().replace(str(out), "{out}")


def _unit(number: str) -> Decimal:
    """One unit of the last printed digit of ``number``."""
    value = Decimal(number)
    return Decimal(1).scaleb(value.as_tuple().exponent)


def _numbers_match(want: str, got: str) -> bool:
    if _INTEGER.fullmatch(want) and _INTEGER.fullmatch(got):
        return int(want) == int(got)
    expected, value = Decimal(want), Decimal(got)
    if abs(expected) < ROUNDOFF:
        return abs(expected - value) <= ROUNDOFF
    if max(len(expected.as_tuple().digits), len(value.as_tuple().digits)) >= FULL_DIGITS:
        return abs(float(expected) - float(value)) <= ULPS * math.ulp(float(expected))
    return abs(expected - value) <= min(_unit(want), _unit(got))


def assert_text_matches(want: str, got: str, where: str):
    want_lines, got_lines = want.splitlines(), got.splitlines()
    assert len(got_lines) == len(want_lines), f"{where}: {len(got_lines)} lines, want {len(want_lines)}"
    for n, (w, g) in enumerate(zip(want_lines, got_lines), 1):
        # split() with one group alternates text and numbers, the numbers at odd places
        w_parts, g_parts = _NUMBER.split(w), _NUMBER.split(g)
        ok = len(w_parts) == len(g_parts) and all(
            (a == b) if k % 2 == 0 else _numbers_match(a, b)
            for k, (a, b) in enumerate(zip(w_parts, g_parts)))
        assert ok, f"{where}, line {n}:\n  want {w}\n  got  {g}"


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_cli_output_matches_fixture(config, tmp_path):
    out = tmp_path / "out"
    stdout = run_fixture(config, out)
    expected = FIXTURES / config.stem
    # a command that writes no files has no directory of them, as git keeps no empty one
    want = sorted(expected.iterdir()) if expected.is_dir() else []
    assert sorted(p.name for p in out.iterdir()) == [p.name for p in want]
    assert_text_matches(config.with_suffix(".stdout").read_text(), stdout, "stdout")
    for path in want:
        assert_text_matches(path.read_text(), (out / path.name).read_text(), path.name)


@pytest.mark.parametrize("want, got, same", [
    ("0.193066439365", "0.193066439366", True),
    ("0.193066439365", "0.193066439367", False),
    ("0.2", "0.200000000001", True),
    ("0.2", "0.200000000002", False),
    ("3.21029276477e-18", "0", True),
    # a repr one unit in the last place away, as under NPY_DISABLE_CPU_FEATURES, and one
    # 17 units away, which the 1e-15 floor let through when it applied to every number
    ("0.26725140776444434", "0.2672514077644443", True),
    ("0.26725140776444434", "0.2672514077644453", False),
    ("6", "7", False),
    ("4294967301", "4294967302", False),
])
def test_number_rule(want, got, same):
    assert _numbers_match(want, got) is same


def test_text_around_numbers_is_exact():
    assert_text_matches("# regdeph 0.1.0\nd = 0.9", "# regdeph 0.1.0\nd = 0.9", "same")
    for want, got in [("# regdeph 0.1.0", "# regdeph 0.1.1"), ("sha256 = 7655fc", "sha256 = 7656fc"),
                      ("a,1.5", "a;1.5"), ("1,2", "1,2,3")]:
        with pytest.raises(AssertionError):
            assert_text_matches(want, got, "changed")


if __name__ == "__main__":
    for config in CONFIGS:
        expected = FIXTURES / config.stem
        shutil.rmtree(expected, ignore_errors=True)
        config.with_suffix(".stdout").write_text(run_fixture(config, expected))
        if not any(expected.iterdir()):
            expected.rmdir()
        print(f"regenerated {expected}", file=sys.stderr)
