"""The ``%.17g`` text of many doubles at once, for the JSON writer.

``fill(opening, joint, item, values)`` returns, byte for byte, what
``cli._fill`` returns for the layout ``opening + item + (joint + item) *
(len(values) - 1)``: ``item`` is one item's layout, with ``"%.17g"`` where
each of its numbers goes, and ``values`` the complex items in order. A
negative zero prints as ``-0.0``.

Exactness rule. A double x with 1e-11 <= |x| < 10 has a decimal exponent e in
[-11, 0], so its 17 significant digits are the integer q = round(|x| *
10^(16 - e)), with 10^16 <= q < 10^17: q = 10^17 would need a double within
5e-18 (relative) below a power of ten, and 10^-10 to 10 have none. Every
power 10^k, k <= 27, is exact in a 64-bit significand, and the product,
below 2^57, is then within 2^-7 of |x| * 10^(16 - e) in any rounding mode. So
q is the product truncated, plus one where the fraction left exceeds one
half; a product whose fraction is within 2^-7 of one half could round either
way, and goes to ``format()``. So does every value outside that domain but
zero, in one batched call; zeros print as ``0`` and ``-0.0``. No FPU rounding
mode enters: the product's truncation and fraction are exact.

The digits are spelled through a table of the 10 000 four-digit groups, and
each number's separator and text fill a fixed-width slot padded with NUL
bytes, which one ``bytes.translate`` removes. ``EXACT`` is whether this
platform's long double has the 64-bit significand the rule needs; where it
does not, the caller keeps ``cli._fill``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# A number's text is seven words of four bytes, a column a number does not
# use holding NUL: sign and "0.0" (a fixed-point number below 1: "%g" writes
# exponents -4 to -1 so, with -1 - e zeros after the point), "00", the first
# digit and the decimal point, four groups of four digits, and the exponent of
# scientific notation. The first word's table is indexed by 2 * row + sign,
# the second's by 20 * row + 2 * first digit + (digits follow), where row is
# e - _E_MIN; the groups' by group + 10 000 * (a nonzero group follows).
_E_MIN = -11  # the smallest decimal exponent of the fast domain; the largest is 0
_WORDS = 7
_ROWS = np.arange(_E_MIN, 1)
_FIXED = (_ROWS >= -4) & (_ROWS < 0)
_PREFIX = np.zeros((len(_ROWS), 5), np.uint8)
_PREFIX[_FIXED, :2] = np.frombuffer(b"0.", np.uint8)
_PREFIX[:, 2:] = ord("0") * (_FIXED[:, None] & (np.arange(3) < -1 - _ROWS[:, None]))

_FIRST = np.zeros((len(_ROWS), 2, 4), np.uint8)
_FIRST[:, 1, 0] = ord("-")
_FIRST[:, :, 1:] = _PREFIX[:, None, :3]
_FIRST = _FIRST.view(np.uint32).ravel()

_SECOND = np.zeros((len(_ROWS), 10, 2, 4), np.uint8)
_SECOND[..., :2] = _PREFIX[:, None, None, 3:]
_SECOND[..., 2] = ord("0") + np.arange(10)[:, None]
_SECOND[:, :, 1, 3] = np.where(_FIXED, 0, ord("."))[:, None]
_SECOND = _SECOND.view(np.uint32).ravel()

# Group abcd is _DIGITS[1, a, b, c, d]; in _DIGITS[0], a group that no nonzero
# group follows, it ends at its last nonzero digit.
_DIGITS = np.zeros((2, 10, 10, 10, 10, 4), np.uint8)
_TEN = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_follows = np.zeros(1, bool)
for _k in (3, 2, 1, 0):
    _column = _TEN.reshape((10,) + (1,) * (3 - _k))
    _DIGITS[1, ..., _k] = _column
    _follows = _follows | (_column != ord("0"))
    _DIGITS[0, ..., _k] = _column * _follows
del _TEN, _follows, _k, _column
_DIGITS = _DIGITS.view(np.uint32).ravel()

_EXPONENT = np.zeros((len(_ROWS), 4), np.uint8)
_EXPONENT[:, :2] = np.frombuffer(b"e-", np.uint8)
_EXPONENT[:, 2] = ord("0") + -_ROWS // 10
_EXPONENT[:, 3] = ord("0") + -_ROWS % 10
_EXPONENT[_ROWS >= -4] = 0
_EXPONENT = _EXPONENT.view(np.uint32).ravel()

_NEGATIVE_ZERO = np.frombuffer(b"-\0\0\0\0\x000.0".ljust(4 * _WORDS, b"\0"), np.uint32)

# 10^0 to 10^27, each exact where the long double has a 64-bit significand.
_POWERS = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))
_PRODUCT_ERROR = 2.0 ** -7  # the product's error bound below 2^57


def _exact_longdouble() -> bool:
    """Whether long double arithmetic here has the 64-bit significand the rule needs."""
    if np.finfo(np.longdouble).nmant < 63:
        return False
    big, small = np.longdouble(2.0 ** 56), np.longdouble(_PRODUCT_ERROR)
    return bool((big + small) - big == small) and int(_POWERS[-1]) == 10 ** 27


EXACT = _exact_longdouble()


def _spell(flat: np.ndarray, out: np.ndarray) -> None:
    """The NUL-padded ``%.17g`` text of each double of ``flat``, as words, into ``out``.

    ``out`` has shape ``(..., 7)``; its leading axes hold ``flat``'s numbers in order.
    Each temporary is dropped once spent: this working set sets the writer's peak memory.
    """
    mag = np.abs(flat)
    fast = (mag >= 1e-11) & (mag < 10) | (mag == 0)
    mag[~(fast & (mag > 0))] = 1.0  # any other value is spelled as 1 for now
    e = np.floor(np.log10(mag)).astype(np.intp)
    np.clip(e, _E_MIN, 0, out=e)
    product = mag.astype(np.longdouble)
    product *= _POWERS[16 - e]
    q = product.astype(np.int64)
    # log10 can put e one off near a power of ten.
    off = (q >= 10 ** 17).astype(np.intp) - (q < 10 ** 16)
    moved = np.flatnonzero(off)
    if moved.size:
        e[moved] += off[moved]
        fast[moved] &= (e[moved] >= _E_MIN) & (e[moved] <= 0)
        np.clip(e, _E_MIN, 0, out=e)
        product[moved] = mag[moved].astype(np.longdouble) * _POWERS[16 - e[moved]]
        q[moved] = product[moved].astype(np.int64)
    del mag, off
    # Exact: the product and its truncation are within 1 of each other.
    product -= q.astype(np.longdouble)
    fraction = product.astype(float)
    del product
    fast &= np.abs(fraction - 0.5) >= _PRODUCT_ERROR
    q += fraction > 0.5
    del fraction
    fast &= q < 10 ** 17  # a carry to 10^17: no double in the domain rounds so
    q[~fast | (flat == 0)] = 0  # zero digits for a zero, and for a value spelled later

    high, low = np.divmod(q, 10 ** 8)
    del q
    lead, high = np.divmod(high, 10 ** 8)
    groups = [*np.divmod(high, 10_000), *np.divmod(low, 10_000)]
    del high, low
    row = e - _E_MIN
    shape = out.shape[:-1]
    follows = np.zeros(len(flat), np.intp)
    for k in (3, 2, 1, 0):
        out[..., 2 + k] = _DIGITS[groups[k] + 10_000 * follows].reshape(shape)
        follows |= groups[k] != 0
    out[..., 0] = _FIRST[2 * row + np.signbit(flat)].reshape(shape)
    out[..., 1] = _SECOND[20 * row + 2 * lead + follows].reshape(shape)
    out[..., 6] = _EXPONENT[row].reshape(shape)

    negative_zero = np.flatnonzero(np.signbit(flat) & (flat == 0))
    if negative_zero.size:
        out[np.unravel_index(negative_zero, shape)] = _NEGATIVE_ZERO
    slow = np.flatnonzero(~fast)
    if slow.size:
        words = ("%.17g\n" * slow.size % tuple(flat[slow].tolist())).split()
        out[np.unravel_index(slow, shape)] = np.array(words, f"S{4 * _WORDS}").view(
            np.uint32).reshape(-1, _WORDS)


@lru_cache(maxsize=64)
def _slots(opening: str, joint: str, item: str) -> tuple[np.ndarray, np.ndarray, str]:
    """The words of an item's separators, and the text after the last number.

    Each item starts with a head, the separator before its first number: the
    first item's is ``opening`` and the layout's first piece, every other
    item's closes the item before it too. Each number then has a slot, the
    separator before it (empty for the first) and its text. The heads, and
    the separators, are padded with NUL to one whole number of words.
    """
    pieces = item.split("%.17g")

    def words(texts: list[str]) -> np.ndarray:
        width = -(-max(map(len, texts)) // 4) * 4
        return np.frombuffer(b"".join(t.encode().ljust(width, b"\0") for t in texts),
                             np.uint32).reshape(len(texts), -1)

    heads = words([opening + pieces[0], pieces[-1] + joint + pieces[0]])
    return heads, words(["", *pieces[1:-1]]), pieces[-1]


def fill(opening: str, joint: str, item: str, values: np.ndarray) -> str:
    """``opening + item + (joint + item) * (len(values) - 1)`` with the parts of ``values``.

    ``values`` holds finite complex items; ``item`` has ``"%.17g"`` for each of an item's numbers.
    """
    heads, seps, tail = _slots(opening, joint, item)
    count, head = len(values), heads.shape[1]
    per_item, sep = seps.shape
    size = 4 * count * (head + per_item * (sep + _WORDS))
    buffer = np.empty(size + len(tail), np.uint8)  # the rows, then the text after them
    buffer[size:] = np.frombuffer(tail.encode(), np.uint8)
    rows = buffer[:size].view(np.uint32).reshape(count, -1)
    rows[:, :head] = heads[1]
    rows[0, :head] = heads[0]
    slots = rows[:, head:].reshape(count, per_item, sep + _WORDS)
    slots[:, :, :sep] = seps
    _spell(values.reshape(-1).view(float), slots[:, :, sep:])
    data = buffer.tobytes()
    del buffer, rows, slots
    return data.translate(None, b"\0").decode("ascii")
