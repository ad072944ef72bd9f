"""numpy's C text reader as the bulk loader calls it, ``datamat._read_tokens``,
against Python's ``int`` and ``float``.  A block the bulk parse accepts equals
its line-by-line parse only while the reader converts every field it takes
as ``int`` and ``float`` do, and refuses every token that is not one index,
one colon and one value, so these pin the library's behaviour at the numpy
versions the tests run on."""

import numpy as np
import pytest

from spdc.datamat import _read_tokens


def float_strings(seed):
    """A few thousand float texts: random finite bit patterns and subnormals
    written as ``repr``, ``%.6g`` and ``%.25e``, and hand-picked spellings."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, 1500, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    subnormals = rng.integers(1, 2**52, 300, dtype=np.uint64).view(np.float64)
    texts = [fmt.format(float(x)) for x in np.concatenate((values, subnormals))
             for fmt in ("{!r}", "{:.6g}", "{:.25e}")]
    return texts + [
        ".5", "5.", "1E5", "+2", "-0", "0e0", "-0.0", "1e-400", "1e400", "-1e400",
        "inf", "-Infinity", "2.2250738585072011e-308", "4.9406564584124654e-324",
        "2.4703282292062328e-324", "9007199254740993", "0.1000000000000000055511151231257827",
        "1.7976931348623157e308", "1.7976931348623159e308", "1" * 400, "0." + "9" * 400,
    ]


def int_strings(seed):
    rng = np.random.default_rng(seed)
    texts = [str(int(x)) for x in rng.integers(-2**63, 2**63, 1000, endpoint=False)]
    return texts + ["0", "-0", "+5", "007", "-007", str(2**63 - 1), str(-2**63)]


@pytest.mark.parametrize("seed", [0, 1])
def test_float_fields_are_float_bit_for_bit(seed):
    texts = float_strings(seed)
    got = _read_tokens([f"1:{t}" for t in texts])
    want = np.array([float(t) for t in texts])
    assert np.array(got["v"]).view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("seed", [0, 1])
def test_int_fields_are_int(seed):
    texts = int_strings(seed)
    got = _read_tokens([f"{t}:1" for t in texts])
    assert got["i"].tolist() == [int(t) for t in texts]


def test_one_token_reads_as_a_one_entry_array():
    got = _read_tokens(["3:2.5"])
    assert got.shape == (1,) and (got["i"][0], got["v"][0]) == (3, 2.5)


# no colon, two, an empty side, a hexadecimal or NUL-ended value, underscores,
# non-ASCII digits, an index beyond int64 or written as a float (numpy < 2
# reads "1.5" as 1 and only warns)
REFUSED = ("15", "1:5:6", "1:", ":5", ":", "1:0x10", "1:5\x00", "1:1_0", "1_0:5",
           "٣:5", "1:٣", "99999999999999999999:1", "1.5:3", "1e2:3")


@pytest.mark.parametrize("token", REFUSED)
def test_refused_tokens(token):
    for tokens in ([token], ["1:2", token], [token, "1:2"]):
        with pytest.raises((ValueError, DeprecationWarning)):
            _read_tokens(tokens)
