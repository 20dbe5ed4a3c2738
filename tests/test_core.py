import numpy as np
import pytest

from vecperm.core import (
    LayoutError,
    PermutationMap,
    TensorLayout,
    compute_strides,
    from_numpy_convention,
    naive_permute,
    permuted_layout,
    random_elements,
    to_numpy_convention,
)


def coord_oracle(data, layout, pmap):
    """Independent element-by-element oracle: decode destination coordinates,
    route each through the map, fetch from the source offset."""
    n = layout.num_elements
    out_dims = [layout.dims[s] for s in pmap.sigma]
    out = np.empty(n, dtype=data.dtype)
    for i in range(n):
        rem = i
        coords = []
        for d in out_dims:
            coords.append(rem % d)
            rem //= d
        src_coord = [0] * layout.rank
        for pos, s in enumerate(pmap.sigma):
            src_coord[s] = coords[pos]
        src_off = sum(c * st for c, st in zip(src_coord, layout.strides))
        out[i] = data[src_off]
    return out


def rand_case(rng, rank, max_dim=4, elem_width=4):
    dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(rank))
    sigma = tuple(int(x) for x in rng.permutation(rank))
    layout = TensorLayout(dims, elem_width)
    data = rng.integers(0, 2**32 - 1, size=layout.num_elements, dtype=np.uint32).astype(layout.dtype)
    return layout, PermutationMap(sigma), data


class TestStrides:
    def test_3_5_7(self):
        # shape (3,5,7) outer-to-inner has strides (35,7,1)
        assert compute_strides((7, 5, 3)) == (1, 7, 35)

    def test_rank1(self):
        assert compute_strides((5,)) == (1,)

    def test_suffix_products(self):
        # (2,16,8,4) outer-to-inner -> (512,32,4,1)
        assert compute_strides((4, 8, 16, 2)) == (1, 4, 32, 512)

    def test_empty_rejected(self):
        with pytest.raises(LayoutError):
            compute_strides(())

    def test_nonpositive_rejected(self):
        with pytest.raises(LayoutError):
            compute_strides((4, 0, 2))


class TestPermutedLayout:
    def test_formula(self):
        # output dims[j] = input dims[sigma[j]]
        lay = TensorLayout((4, 8, 16, 2))  # outer-to-inner (2,16,8,4)
        out = permuted_layout(lay, PermutationMap((3, 1, 2, 0)))  # (s3..s0)=(0,2,1,3)
        assert out.shape_outer_first() == (4, 16, 8, 2)

    def test_full_reversal_shape(self):
        # reversing all index roles on (2,16,8,4) gives (4,8,16,2)
        lay = TensorLayout((4, 8, 16, 2))
        out = permuted_layout(lay, PermutationMap((3, 2, 1, 0)))
        assert out.shape_outer_first() == (4, 8, 16, 2)

    def test_identity(self):
        lay = TensorLayout((3, 5, 7))
        assert permuted_layout(lay, PermutationMap((0, 1, 2))).dims == lay.dims

    def test_rank_mismatch(self):
        with pytest.raises(LayoutError):
            permuted_layout(TensorLayout((2, 2)), PermutationMap((0, 1, 2)))

    def test_element_count_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lay, pm, _ = rand_case(rng, int(rng.integers(1, 6)))
            assert permuted_layout(lay, pm).num_elements == lay.num_elements

    def test_bit_reversal_bijection(self):
        # (2,2,2) with full role reversal: destination offset i reads source
        # offset bitrev3(i); expected table enumerated by hand below
        lay = TensorLayout((2, 2, 2))
        pm = PermutationMap((2, 1, 0))
        expected = [0, 4, 2, 6, 1, 5, 3, 7]
        assert naive_permute(np.arange(8, dtype=np.uint32), lay, pm).tolist() == expected


class TestNumpyConvention:
    def test_rank4_mixed_map(self):
        # (sigma3..sigma0) = (3,1,0,2) converts to numpy axes (0,2,3,1)
        pm = PermutationMap((2, 0, 1, 3))
        assert to_numpy_convention(pm) == (0, 2, 3, 1)

    def test_identity(self):
        for n in (1, 2, 5):
            pm = PermutationMap(tuple(range(n)))
            assert to_numpy_convention(pm) == tuple(range(n))

    def test_rank2_swap(self):
        pm = PermutationMap((1, 0))
        assert to_numpy_convention(pm) == (1, 0)
        # the 2x3 tensor [[0, 1, 2], [3, 4, 5]] transposes to 3x2, by hand
        out = naive_permute(np.arange(6, dtype=np.uint32), TensorLayout((3, 2)), pm)
        assert out.tolist() == [0, 3, 1, 4, 2, 5]

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            sigma = tuple(int(x) for x in rng.permutation(n))
            pm = PermutationMap(sigma)
            assert from_numpy_convention(to_numpy_convention(pm)).sigma == pm.sigma

    def test_same_bijection_random(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            lay, pm, data = rand_case(rng, int(rng.integers(1, 6)))
            # numpy's axes realize the map the element-by-element oracle routes
            axes = to_numpy_convention(pm)
            via_numpy = np.transpose(data.reshape(lay.shape_outer_first()), axes).reshape(-1)
            assert np.array_equal(via_numpy, coord_oracle(data, lay, pm))


class TestNaivePermute:
    def test_identity(self):
        lay = TensorLayout((3, 5, 2))
        data = np.arange(lay.num_elements, dtype=np.uint32)
        assert np.array_equal(naive_permute(data, lay, PermutationMap((0, 1, 2))), data)

    def test_2x3_transpose(self):
        # shape (2,3) outer-to-inner, transpose; expected enumerated by hand
        lay = TensorLayout((3, 2))
        out = naive_permute(np.arange(6, dtype=np.uint32), lay, PermutationMap((1, 0)))
        assert out.tolist() == [0, 3, 1, 4, 2, 5]

    def test_rank6_all2_vs_coord_oracle(self):
        rng = np.random.default_rng(3)
        lay = TensorLayout((2,) * 6)
        for _ in range(10):
            pm = PermutationMap(tuple(int(x) for x in rng.permutation(6)))
            data = rng.integers(0, 2**32 - 1, size=64, dtype=np.uint32)
            assert np.array_equal(naive_permute(data, lay, pm), coord_oracle(data, lay, pm))

    def test_general_vs_coord_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            lay, pm, data = rand_case(rng, int(rng.integers(1, 5)), max_dim=5)
            assert np.array_equal(naive_permute(data, lay, pm), coord_oracle(data, lay, pm))

    def test_elem_width_8(self):
        rng = np.random.default_rng(5)
        lay = TensorLayout((3, 4, 2), elem_width=8)
        pm = PermutationMap((2, 0, 1))
        data = rng.integers(0, 2**63, size=24, dtype=np.uint64)
        assert np.array_equal(naive_permute(data, lay, pm), coord_oracle(data, lay, pm))

    def test_bytes_input(self):
        lay = TensorLayout((3, 2))
        raw = np.arange(6, dtype=np.uint32).tobytes()
        assert naive_permute(raw, lay, PermutationMap((1, 0))).tolist() == [0, 3, 1, 4, 2, 5]

    def test_size_mismatch(self):
        with pytest.raises(LayoutError):
            naive_permute(np.zeros(5, dtype=np.uint32), TensorLayout((3, 2)), PermutationMap((0, 1)))

    def test_rank_mismatch(self):
        with pytest.raises(LayoutError):
            naive_permute(np.zeros(6, dtype=np.uint32), TensorLayout((3, 2)), PermutationMap((0, 1, 2)))

    def test_identity_result_is_a_copy(self):
        # a caller may write into the reference without touching its input
        lay = TensorLayout((3, 5, 2))
        data = np.arange(lay.num_elements, dtype=np.uint32)
        out = naive_permute(data, lay, PermutationMap((0, 1, 2)))
        assert not np.shares_memory(out, data)

    def test_campaign_reach_vs_coord_oracle(self):
        # what `vecperm check` draws: ranks up to 16, all-2, power-of-two and
        # general extents, size-1 dims, both widths, full-width data; extents
        # drop to 1 until N <= 2**10 so the oracle's Python loop stays fast
        rng = np.random.default_rng(10)
        for rank in range(1, 17):
            for family in ("all2", "pow2", "general"):
                if family == "all2":
                    dims = [2] * rank
                elif family == "pow2":
                    dims = [int(2 ** rng.integers(0, 6)) for _ in range(rank)]
                else:
                    dims = [int(rng.integers(1, 10)) for _ in range(rank)]
                while np.prod(dims) > 1 << 10:
                    dims[int(rng.choice(np.flatnonzero(np.array(dims) > 1)))] = 1
                for elem_width in (4, 8):
                    lay = TensorLayout(tuple(dims), elem_width)
                    pm = PermutationMap(tuple(int(x) for x in rng.permutation(rank)))
                    data = random_elements(rng, lay)
                    want = coord_oracle(data, lay, pm)
                    assert np.array_equal(naive_permute(data, lay, pm), want), (dims, pm.sigma)


class TestRandomElements:
    def test_full_width_with_stable_low_words(self):
        lay4, lay8 = TensorLayout((64,)), TensorLayout((64,), 8)
        low = random_elements(np.random.default_rng(5), lay4)
        wide = random_elements(np.random.default_rng(5), lay8)
        assert low.dtype == np.uint32 and wide.dtype == np.uint64
        assert np.array_equal(wide & 0xFFFFFFFF, low)
        assert (wide >> 32).any()

    def test_high_words_from_own_stream_leave_rng_in_step(self):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        random_elements(a, TensorLayout((64,)))
        random_elements(b, TensorLayout((64,), 8), np.random.default_rng(6))
        assert a.integers(1 << 30) == b.integers(1 << 30)


def inverse(pm):
    """The map undoing ``pm``: ``inverse(pm).sigma[pm.sigma[j]] == j``."""
    return PermutationMap(tuple(int(j) for j in np.argsort(pm.sigma)))


class TestProperties:
    def test_round_trip_inverse(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            lay, pm, data = rand_case(rng, int(rng.integers(1, 6)))
            fwd = naive_permute(data, lay, pm)
            back = naive_permute(fwd, permuted_layout(lay, pm), inverse(pm))
            assert np.array_equal(back, data)

    def test_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            lay, pm1, data = rand_case(rng, int(rng.integers(1, 6)))
            pm2 = PermutationMap(tuple(int(x) for x in rng.permutation(lay.rank)))
            mid = naive_permute(data, lay, pm1)
            two_step = naive_permute(mid, permuted_layout(lay, pm1), pm2)
            # pm1 then pm2: destination position j reads source dim pm1[pm2[j]]
            pm21 = PermutationMap(tuple(pm1.sigma[s] for s in pm2.sigma))
            composed = naive_permute(data, lay, pm21)
            assert np.array_equal(two_step, composed)

    def test_arange_table_is_a_bijection(self):
        # every source element lands in exactly one destination slot
        rng = np.random.default_rng(8)
        for _ in range(10):
            lay, pm, _ = rand_case(rng, int(rng.integers(1, 5)), max_dim=5)
            table = naive_permute(np.arange(lay.num_elements, dtype=np.uint32), lay, pm)
            assert sorted(table.tolist()) == list(range(lay.num_elements))

    def test_invalid_map_rejected(self):
        with pytest.raises(LayoutError):
            PermutationMap((0, 0, 1))
