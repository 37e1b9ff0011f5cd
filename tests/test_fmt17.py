"""The numpy kernel of ``qcert._fmt17`` against ``cli._fill``, the "%"-fill it stands in for.

Each check lays complex items out as ``cli._format_items`` does, once with
the kernel and once with ``_fill``, and compares the text byte for byte.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SETTINGS
from qcert import _fmt17, cli
from qcert.cli import dumps
from test_json_io import ref_dumps, ref_pair_lists

needs_kernel = pytest.mark.skipif(not _fmt17.EXACT, reason="no 64-bit long double here")

PER_CLASS = 200_000


def both_texts(values, level: int = 1, start: int = 0, shape: tuple[int, ...] = ()):
    """The kernel's and ``_fill``'s text of ``values`` as complex items of ``shape``.

    The items are laid out at ``level``; ``start`` 1 puts one item before
    them, so the range opens with a separator, not the array's bracket.
    """
    flat = np.asarray(values, dtype=float)
    per_item = 2 * int(np.prod(shape))
    flat = np.concatenate([flat, np.full(-len(flat) % per_item, 0.5)])
    items = flat.view(complex).reshape(-1, *shape)
    items = np.concatenate([items[:start], items])
    texts = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_KERNEL_FLOATS", 0)
        for exact in (True, False):
            patch.setattr(_fmt17, "EXACT", exact)
            texts.append(cli._format_items(items, level, start, len(items)))
    return texts


def random_bits(rng) -> np.ndarray:
    values = rng.integers(0, 2**64, PER_CLASS + PER_CLASS // 1000, dtype=np.uint64).view(float)
    return values[np.isfinite(values)][:PER_CLASS]


def log_uniform(rng) -> np.ndarray:
    return 10.0 ** rng.uniform(-17, 17, PER_CLASS) * rng.choice([-1.0, 1.0], PER_CLASS)


def tie_band(rng) -> np.ndarray:
    # Doubles of 2^49 + k/8 are exact halves at their 17th digit.
    return 2.0 ** 49 + rng.integers(0, 2**23, PER_CLASS) / 8


def powers_of_ten(rng) -> np.ndarray:
    # Each power 10^e and the doubles up to 6 250 ulps on either side of it
    # (one ulp is one step of the bit pattern), with either sign.
    bits = (10.0 ** np.arange(-13, 3)).view(np.int64)
    values = (bits[:, None] + np.arange(-6250, 6251)).view(float).ravel()
    return values * np.resize([1.0, -1.0], len(values))


def zeros_and_extremes(rng) -> np.ndarray:
    count = PER_CLASS // 4
    subnormals = rng.integers(1, 2**52, count, dtype=np.uint64).view(float)
    integers = rng.integers(-10**17, 10**17, count).astype(float)
    small = rng.integers(-1000, 1000, count).astype(float)
    return np.concatenate([
        np.resize([0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324], count),
        subnormals * rng.choice([-1.0, 1.0], count), integers, small])


def decimal_ties(rng) -> np.ndarray:
    # The doubles nearest 17-digit halfway points, and their neighbours: the
    # scaled products whose fraction is near one half, which format() spells.
    digits = rng.integers(10**16, 10**17, PER_CLASS // 4)
    ties = (digits + 0.5) / 10.0 ** rng.integers(17, 28, len(digits))
    return np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, 1), -ties])


CLASSES = [random_bits, log_uniform, tie_band, powers_of_ten, zeros_and_extremes, decimal_ties]


@needs_kernel
@pytest.mark.parametrize("values", CLASSES, ids=lambda f: f.__name__)
def test_kernel_text_is_the_fill_text(values):
    flat = values(np.random.default_rng(17))
    assert len(flat) >= PER_CLASS
    kernel, fill = both_texts(flat)
    assert kernel == fill


@needs_kernel
@pytest.mark.parametrize("level", [0, 1, 3])
@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("shape", [(), (3,), (2, 2)], ids=["vector", "matrix", "deeper"])
def test_layouts(level, start, shape):
    flat = log_uniform(np.random.default_rng(level))[:4800]
    flat[::97] = -0.0
    kernel, fill = both_texts(flat, level, start, shape)
    assert kernel == fill


def test_no_double_in_the_domain_carries_to_a_power_of_ten():
    # The kernel sends q = 10^17 to format(): no double below 10^-10 ... 10
    # is close enough to it to round up to it at 17 digits.
    for k in range(-10, 2):
        x = float(Fraction(10) ** k)
        while Fraction(x) >= Fraction(10) ** k:  # the largest double below 10^k
            x = math.nextafter(x, 0)
        assert round(Fraction(x) * Fraction(10) ** (17 - k)) < 10 ** 17


@needs_kernel
@SETTINGS
@given(st.lists(st.floats(width=64, allow_nan=False, allow_infinity=False), min_size=1))
def test_any_finite_doubles(values):
    kernel, fill = both_texts(values)
    assert kernel == fill


def test_no_long_double_keeps_fill(monkeypatch):
    class DoubleOnly:  # np.finfo(np.longdouble) where a long double is a double
        nmant = 52

    monkeypatch.setattr(np, "finfo", lambda dtype: DoubleOnly)
    assert not _fmt17._exact_longdouble()
    monkeypatch.undo()
    assert _fmt17._exact_longdouble() == _fmt17.EXACT

    monkeypatch.setattr(_fmt17, "EXACT", False)
    monkeypatch.setattr(_fmt17, "fill", None)  # a call would raise
    rng = np.random.default_rng(3)
    vector = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    vector[7] = complex(-0.0, 1e-300)
    assert dumps({"vector": vector}) == ref_dumps({"vector": ref_pair_lists(vector)})

