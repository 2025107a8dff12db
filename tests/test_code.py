"""Tests for the polar transform, code construction, and mask plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsc import (
    CodeSpec,
    bec_reliabilities,
    component_inputs,
    construct_frozen_mask,
    encode,
    encode_batch,
    extract_data,
    load_mask,
    save_mask,
)
from polarsc.code import _bit_reversal, _polar_transform

# pairs that are not 0/1 bits: a uint8 cast would wrap 256 to 0, truncate 0.5
# and 1.5, and overflow on -1
NON_BITS = [np.array([256, 0]), [-1, 0], [0.5, 1], [1.5, 0], [0, 2]]
NON_BIT_IDS = ["256", "-1", "0.5", "1.5", "2"]


def kernel_matrix(n):
    """Independent transform oracle: Kronecker power of [[1,0],[1,1]] with
    bit-reversed output columns."""
    f = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    g = np.array([[1]], dtype=np.uint8)
    while g.shape[0] < n:
        g = np.kron(f, g)
    bits = int(np.log2(n))
    rev = [int(format(j, f"0{bits}b")[::-1], 2) for j in range(n)]
    return g[:, rev] if bits else g


def oracle_encode(u):
    u = np.asarray(u, dtype=np.uint8)
    return (u @ kernel_matrix(len(u))) % 2


def bytewise_transform(bits):
    """The transform one byte per bit: bit-reversal, then first half ^= second
    half at every scale on the last axis of a copy."""
    n = bits.shape[-1]
    x = np.ascontiguousarray(bits[..., _bit_reversal(n)])
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            x[..., start : start + h] ^= x[..., start + h : start + 2 * h]
        h *= 2
    return x


def bhattacharyya_by_index(n, index, design_erasure=0.5):
    """Per-index oracle: apply the erasure transforms along the bits of the
    index, most significant first (first decoder split = first transform)."""
    z = design_erasure
    bits = int(np.log2(n))
    for shift in range(bits - 1, -1, -1):
        if (index >> shift) & 1:
            z = z * z
        else:
            z = 2 * z - z * z
    return z


class TestEncode:
    def test_zero_fixed_point(self):
        assert np.array_equal(encode([0, 0, 0, 0]), [0, 0, 0, 0])

    def test_single_one_spreads_everywhere(self):
        # partial sums of (0,0,0,1): all four expressions evaluate to 1
        assert np.array_equal(encode([0, 0, 0, 1]), [1, 1, 1, 1])

    def test_partial_sum_expressions_n4(self):
        # the four partial sums of decisions (u0^u1^u2^u3, u1^u3, u2^u3, u3),
        # placed by the pair-combining structure: even outputs p^q, odd outputs q
        for u in np.ndindex(2, 2, 2, 2):
            u0, u1, u2, u3 = u
            p = [u0 ^ u1, u1]
            q = [u2 ^ u3, u3]
            expected = [p[0] ^ q[0], q[0], p[1] ^ q[1], q[1]]
            assert expected[0] == u0 ^ u1 ^ u2 ^ u3
            assert {expected[1], expected[2]} == {u1 ^ u3, u2 ^ u3}
            assert expected[3] == u3
            assert np.array_equal(encode(list(u)), expected)

    def test_frozen_example_value(self):
        # oracle-computed under the conventions above
        assert np.array_equal(encode([1, 0, 1, 1]), [1, 0, 1, 1])

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 128, 256, 512])
    def test_matches_matrix_oracle(self, n):
        rng = np.random.default_rng(7)
        for _ in range(16):
            u = rng.integers(0, 2, n, dtype=np.uint8)
            assert np.array_equal(encode(u), oracle_encode(u))

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 128, 256, 512])
    def test_batch_matches_matrix_oracle(self, n):
        u = np.random.default_rng(n).integers(0, 2, (24, n), dtype=np.uint8)
        expected = (u.astype(np.int64) @ kernel_matrix(n)) % 2
        x = encode_batch(u)
        assert np.array_equal(x, expected)
        assert x.flags.c_contiguous  # row-major like its input, for the channel step

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_involution_exhaustive(self, n):
        for bits in np.ndindex(*(2,) * n):
            u = np.array(bits, dtype=np.uint8)
            assert np.array_equal(encode(encode(u)), u)

    @given(exp=st.integers(min_value=0, max_value=10), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_involution_random(self, exp, seed):
        u = np.random.default_rng(seed).integers(0, 2, 2**exp, dtype=np.uint8)
        assert np.array_equal(encode(encode(u)), u)

    @given(exp=st.integers(min_value=0, max_value=8), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, exp, seed):
        rng = np.random.default_rng(seed)
        u = rng.integers(0, 2, 2**exp, dtype=np.uint8)
        w = rng.integers(0, 2, 2**exp, dtype=np.uint8)
        assert np.array_equal(encode(u ^ w), encode(u) ^ encode(w))

    @pytest.mark.parametrize("n", [2**e for e in range(13)])
    def test_word_parallel_transform_matches_a_bytewise_butterfly(self, n):
        rng = np.random.default_rng(n)
        wide = rng.integers(0, 2, (3, 4, 2 * n), dtype=np.uint8)
        before = wide.copy()
        # 1-D, 2-D and 3-D inputs, and a strided one
        for bits in (wide[0, 0, :n], wide[0, :, :n], wide[..., :n], wide[:, ::2, ::2]):
            x = _polar_transform(bits)
            assert x.shape == bits.shape and x.dtype == np.uint8
            assert np.array_equal(x, bytewise_transform(bits))
        assert np.array_equal(wide, before)  # the input is not written

    @pytest.mark.parametrize("bad", [3, 6, 12, 0])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ValueError):
            encode([0] * bad)

    @pytest.mark.parametrize("bits", NON_BITS, ids=NON_BIT_IDS)
    def test_rejects_non_bits(self, bits):
        with pytest.raises(ValueError):
            encode(bits)


class TestConstruction:
    def test_rate_half_length8_frozen_set(self):
        mask = construct_frozen_mask(8, 4, 0.5)
        assert sorted(np.flatnonzero(mask == 0)) == [0, 1, 2, 4]

    def test_no_frozen_when_k_equals_n(self):
        assert np.array_equal(construct_frozen_mask(2, 2, 0.5), [1, 1])

    def test_single_data_bit_lands_on_last_index(self):
        # z recursion from 0.5: (0.9375, 0.5625, 0.4375, 0.0625), min at 3
        mask = construct_frozen_mask(4, 1, 0.5)
        assert np.array_equal(mask, [0, 0, 0, 1])

    def test_reliabilities_match_per_index_oracle(self):
        for n in (2, 4, 8, 16, 64):
            z = bec_reliabilities(n, 0.37)
            for i in range(n):
                assert z[i] == pytest.approx(bhattacharyya_by_index(n, i, 0.37), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_popcount_all_k(self, n):
        for k in range(n + 1):
            assert construct_frozen_mask(n, k).sum() == k

    @pytest.mark.parametrize("n", [8, 64, 256, 1024])
    def test_data_sets_nest_as_k_grows(self, n):
        previous = set()
        for k in range(n + 1):
            current = set(np.flatnonzero(construct_frozen_mask(n, k)))
            assert previous <= current
            previous = current

    def test_deterministic(self):
        a = construct_frozen_mask(256, 128, 0.5)
        b = construct_frozen_mask(256, 128, 0.5)
        assert np.array_equal(a, b)

    def test_ties_freeze_lower_index_first(self):
        # at large n many proxies saturate to exactly 0.0 or 1.0; the data set
        # must prefer the higher index inside a tie group
        n = 1024
        z = bec_reliabilities(n, 0.5)
        zero_ties = np.flatnonzero(z == 0.0)
        if len(zero_ties) > 1:
            k = len(zero_ties) - 1
            data = set(np.flatnonzero(construct_frozen_mask(n, k)))
            assert int(zero_ties[0]) not in data  # lowest tied index frozen first

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            construct_frozen_mask(8, 9)
        with pytest.raises(ValueError):
            construct_frozen_mask(8, -1)
        with pytest.raises(ValueError, match="k must be an integer"):
            construct_frozen_mask(8, 2.5)

    def test_rejects_bad_design(self):
        with pytest.raises(ValueError):
            construct_frozen_mask(8, 4, 0.0)

    @pytest.mark.parametrize("design", [0.0, 1.0, 2.0, -0.5, np.nan])
    def test_reliabilities_reject_a_design_erasure_outside_0_1(self, design):
        with pytest.raises(ValueError, match="design erasure"):
            bec_reliabilities(8, design)

    def test_checks_n_then_k_then_design(self):
        with pytest.raises(ValueError, match="block length"):
            construct_frozen_mask(6, 9, 2.0)
        with pytest.raises(ValueError, match="k must"):
            construct_frozen_mask(8, 9, 2.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: bec_reliabilities(8.0),
            lambda: construct_frozen_mask(8.0, 4),
            lambda: CodeSpec(8.0, [0, 0, 1, 1] * 2),
            lambda: CodeSpec(True, [1]),
        ],
        ids=["bec_reliabilities", "construct_frozen_mask", "CodeSpec", "CodeSpec-bool"],
    )
    def test_rejects_a_float_length(self, call):
        with pytest.raises(ValueError, match="power of two"):
            call()


class TestExtractData:
    def test_single_data_index(self):
        assert np.array_equal(extract_data([1, 0, 1, 1], [0, 0, 0, 1]), [1])

    def test_identity_when_nothing_frozen(self):
        assert np.array_equal(extract_data([0, 1, 1, 0], [1, 1, 1, 1]), [0, 1, 1, 0])

    def test_known_mask_selection(self):
        mask = construct_frozen_mask(8, 4)
        got = extract_data([1, 1, 0, 1, 0, 0, 1, 1], mask)
        assert np.array_equal(got, [1, 0, 1, 1])  # indices 3, 5, 6, 7

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            extract_data([1, 0], [1, 0, 1, 0])


class TestCodeSpec:
    def test_derived_fields(self):
        spec = CodeSpec.construct(8, 4)
        assert spec.k == 4
        assert spec.rate == 0.5
        assert list(spec.data_indices) == [3, 5, 6, 7]

    def test_mask_is_read_only(self):
        spec = CodeSpec.construct(8, 4)
        with pytest.raises(ValueError):
            spec.mask[0] = 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            CodeSpec(8, [1, 0, 1])


# every entry point that takes a bit vector or a mask, called with a length-4
# vector whose first two entries are ``bits``
BIT_ENTRY_POINTS = {
    "extract_data-bits": lambda v, path: extract_data(v, [1, 1, 1, 1]),
    "extract_data-mask": lambda v, path: extract_data([0, 0, 0, 0], v),
    "CodeSpec": lambda v, path: CodeSpec(4, v),
    "save_mask": lambda v, path: save_mask(v, path),
    "component_inputs": lambda v, path: component_inputs([1.0, -2.0, 3.0, 0.5] * 2, v, 4),
}


@pytest.mark.parametrize("bits", NON_BITS, ids=NON_BIT_IDS)
@pytest.mark.parametrize("entry", BIT_ENTRY_POINTS)
def test_entry_points_reject_non_bits(tmp_path, entry, bits):
    path = tmp_path / "mask.txt"
    with pytest.raises(ValueError):
        BIT_ENTRY_POINTS[entry]([*bits, 1, 1], path)
    assert not path.exists()


class TestMaskFile:
    def test_roundtrip(self, tmp_path):
        mask = construct_frozen_mask(16, 9)
        path = tmp_path / "mask.txt"
        save_mask(mask, path)
        assert np.array_equal(load_mask(path), mask)

    def test_file_format(self, tmp_path):
        path = tmp_path / "mask.txt"
        save_mask([0, 1, 1, 0], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "4"
        assert lines[1] == "0 1 1 0"

    def test_rejects_wrong_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4\n0 1 1\n")
        with pytest.raises(ValueError):
            load_mask(path)

    def test_rejects_garbage_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("zz\n0 1\n")
        with pytest.raises(ValueError):
            load_mask(path)

    @pytest.mark.parametrize("value", ["-1", "256", "2"])
    def test_rejects_non_bit_value(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"4\n0 1 {value} 1\n")
        with pytest.raises(ValueError, match="bad.txt"):
            load_mask(path)
