"""Property-based tests (hypothesis) for the core data-structure invariants.

These cover the properties the rest of the system leans on:

* every error-bounded codec respects its bound and preserves length/dtype for
  arbitrary finite float data;
* the bit-packing round-trips arbitrary unsigned integers;
* chunk partitioning covers the index space exactly once;
* the simulated ring allreduce equals the numpy sum for arbitrary inputs;
* every :class:`SharedLink` stage of every contended topology conserves
  capacity (reservations never overlap, each occupies ``bytes / capacity``)
  — under both contention disciplines: the fair-share fluid model re-expresses
  its segments as reservations, so the same audit applies verbatim;
* fabric routing is deterministic: identically configured topologies resolve
  identical stage paths for identical traffic.

The fair-model-specific invariants (max-min rates, work conservation, exact
symmetric aggregate-equivalence) live in ``test_fair_contention.py``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.api import Cluster
from repro.collectives import CollectiveContext
from repro.compression import PipelinedSZx, SZxCompressor, ZFPCompressor, rounding_margin
from repro.compression.errors import CompressionError, UnsupportedDataError
from repro.mpisim import (
    DragonflyTopology,
    FatTreeTopology,
    Irecv,
    Isend,
    NetworkModel,
    SharedUplinkTopology,
    Waitall,
    capacity_conservation_violations,
    run_simulation,
    trace_reservations,
)
from repro.utils.bitpack import pack_uint_bits, unpack_uint_bits
from repro.utils.chunking import chunk_bounds, split_counts

NET = NetworkModel(latency=1e-6, bandwidth=1e9, eager_threshold=512, inflight_window=1 << 20)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)
float_arrays = hnp.arrays(
    dtype=np.float32, shape=st.integers(min_value=1, max_value=700), elements=finite_floats
)


class TestCodecProperties:
    @given(data=float_arrays, eb_exp=st.integers(min_value=-4, max_value=-1))
    @settings(max_examples=40, deadline=None)
    def test_szx_error_bound_and_shape(self, data, eb_exp):
        eb = 10.0**eb_exp
        codec = SZxCompressor(error_bound=eb)
        recon = codec.roundtrip(data)
        assert recon.shape == data.shape
        assert recon.dtype == data.dtype
        rounding = np.finfo(np.float32).eps * float(np.max(np.abs(data)) if data.size else 0.0)
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= eb + rounding

    @given(data=float_arrays)
    @settings(max_examples=25, deadline=None)
    def test_pipelined_matches_bound(self, data):
        codec = PipelinedSZx(error_bound=1e-2, chunk_elems=64)
        recon = codec.roundtrip(data)
        rounding = np.finfo(np.float32).eps * float(np.max(np.abs(data)) if data.size else 0.0)
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= 1e-2 + rounding

    @given(data=float_arrays)
    @settings(max_examples=25, deadline=None)
    def test_zfp_abs_error_bound(self, data):
        codec = ZFPCompressor(mode="abs", error_bound=1e-2)
        recon = codec.roundtrip(data)
        rounding = np.finfo(np.float32).eps * float(np.max(np.abs(data)) if data.size else 0.0)
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= 1e-2 + rounding

    @given(data=float_arrays, rate=st.sampled_from([4, 8, 16]))
    @settings(max_examples=25, deadline=None)
    def test_zfp_fxr_size_is_data_independent(self, data, rate):
        codec = ZFPCompressor(mode="fxr", rate=rate)
        buf = codec.compress(data)
        blocks = -(-data.size // codec.block_size)
        expected = blocks * (rate * codec.block_size // 8)
        # header + per-block budget, data independent
        assert abs(buf.nbytes - expected) < 64
        assert codec.decompress(buf).size == data.size


def _all_codecs():
    return [
        SZxCompressor(error_bound=1e-3),
        SZxCompressor(error_bound=1e-3, error_mode="rel"),
        ZFPCompressor(mode="abs", error_bound=1e-3),
        ZFPCompressor(mode="fxr", rate=8),
        PipelinedSZx(error_bound=1e-3, chunk_elems=64),
    ]


#: float64 values spanning the denormal range up to modest magnitudes, plus
#: exact zeros — the corners the scenario fuzzer feeds through every codec
corner_floats = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=1e-300, allow_nan=False),
    st.floats(min_value=-1e-300, max_value=-5e-324, allow_nan=False),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
corner_arrays = hnp.arrays(
    dtype=np.float64, shape=st.integers(min_value=0, max_value=400), elements=corner_floats
)


class TestCodecEdgeCorners:
    """Empty / all-zero / denormal-range data must round-trip through every
    codec without ever crashing (or warning) mid-pack; data the payload
    formats cannot represent must raise a typed error instead."""

    @given(data=corner_arrays)
    # an error of exactly eb: 0.25 comes back as 0.249, one float rounding over 1e-3
    @example(data=np.array([0.25, 0.0]))
    @settings(max_examples=30, deadline=None)
    def test_denormal_and_zero_corners_roundtrip(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning mid-pack fails
            for codec in _all_codecs():
                recon = codec.roundtrip(data)
                assert recon.shape == data.shape
                assert recon.dtype == data.dtype
                if codec.error_bounded and data.size:
                    resolve = getattr(codec, "effective_error_bound", None)
                    bound = resolve(data) if resolve is not None else codec.error_bound
                    err = float(np.max(np.abs(recon - data)))
                    assert err <= bound + rounding_margin(data, bound)

    def test_empty_arrays_roundtrip_everywhere(self):
        empty = np.zeros(0, dtype=np.float64)
        for codec in _all_codecs():
            recon = codec.roundtrip(empty)
            assert recon.size == 0 and recon.dtype == empty.dtype

    def test_nan_and_inf_raise_unsupported(self):
        for bad in (np.array([1.0, np.nan]), np.array([np.inf, 0.0])):
            for codec in _all_codecs():
                with pytest.raises(UnsupportedDataError):
                    codec.compress(bad)

    def test_unrepresentable_magnitudes_raise_cleanly(self):
        """Values past a payload format's representable range must raise a
        CompressionError (never emit numpy warnings or pack garbage)."""
        huge = np.full(64, 1e300)
        mixed = np.array([1.7e308, -1.7e308] * 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for codec in _all_codecs():
                for data in (huge, mixed):
                    try:
                        recon = codec.roundtrip(data)
                    except CompressionError:
                        continue  # typed rejection is fine
                    # codecs that accept the data must keep the sign
                    assert np.all(np.sign(recon) == np.sign(data))

    def test_fxr_saturated_magnitudes_keep_their_sign(self):
        """The historical int64 cast wrapped saturated positives negative."""
        codec = ZFPCompressor(mode="fxr", rate=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recon = codec.roundtrip(np.full(64, 1e300))
        assert np.all(recon > 0)


class TestBitPackProperties:
    @given(
        values=st.lists(st.integers(min_value=0, max_value=2**20 - 1), min_size=0, max_size=300),
        extra_bits=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_roundtrip(self, values, extra_bits):
        arr = np.asarray(values, dtype=np.uint64)
        nbits = int(arr.max()).bit_length() + extra_bits if arr.size else extra_bits
        packed = pack_uint_bits(arr, nbits)
        out = unpack_uint_bits(packed, arr.size, nbits)
        np.testing.assert_array_equal(out, arr)


class TestChunkingProperties:
    @given(total=st.integers(min_value=0, max_value=5000), chunk=st.integers(min_value=1, max_value=600))
    @settings(max_examples=80, deadline=None)
    def test_chunk_bounds_partition(self, total, chunk):
        bounds = chunk_bounds(total, chunk)
        assert sum(stop - start for start, stop in bounds) == total
        for (a_start, a_stop), (b_start, _) in zip(bounds, bounds[1:]):
            assert a_stop == b_start
        assert all(stop - start <= chunk for start, stop in bounds)

    @given(total=st.integers(min_value=0, max_value=5000), parts=st.integers(min_value=1, max_value=64))
    @settings(max_examples=80, deadline=None)
    def test_split_counts_partition(self, total, parts):
        counts = split_counts(total, parts)
        assert sum(counts) == total
        assert max(counts) - min(counts) <= 1


def shift_traffic_program(n_ranks, shifts, nbytes):
    """Every rank sends to (rank + shift) and receives from (rank - shift)."""
    payload = np.zeros(max(1, nbytes // 8))

    def program(rank, size):
        for step, shift in enumerate(shifts):
            recv_req = yield Irecv(source=(rank - shift) % size, tag=step)
            send_req = yield Isend(dest=(rank + shift) % size, data=payload, tag=step)
            yield Waitall([recv_req, send_req])
        return rank

    return program


#: identically parameterised factories used by both fabric properties; every
#: preset family with contended stages is represented, under both contention
#: disciplines (the reservation queue and max-min fair processor sharing)
def _topology_factories(ranks_per_node, nics_per_node, routing, oversubscription, contention):
    common = dict(
        ranks_per_node=ranks_per_node,
        nics_per_node=nics_per_node,
        routing=routing,
        rail_policy="stripe" if nics_per_node > 1 else "hash",
        oversubscription=oversubscription,
        contention=contention,
    )
    return {
        "shared_uplink": lambda: SharedUplinkTopology(
            ranks_per_node=ranks_per_node, contention=contention
        ),
        "fat_tree": lambda: FatTreeTopology(k=4, **common),
        "dragonfly": lambda: DragonflyTopology(
            n_groups=3, routers_per_group=2, nodes_per_router=2, **common
        ),
    }


fabric_params = st.fixed_dictionaries(
    dict(
        ranks_per_node=st.sampled_from([1, 2]),
        nics_per_node=st.sampled_from([1, 2]),
        routing=st.sampled_from(["minimal", "adaptive"]),
        oversubscription=st.sampled_from([1.0, 2.0]),
        contention=st.sampled_from(["reservation", "fair"]),
    )
)


class TestFabricProperties:
    @given(
        params=fabric_params,
        name=st.sampled_from(["shared_uplink", "fat_tree", "dragonfly"]),
        n_ranks=st.integers(min_value=2, max_value=10),
        shifts=st.lists(
            st.integers(min_value=1, max_value=9), min_size=1, max_size=3, unique=True
        ),
        kib=st.integers(min_value=1, max_value=2048),
    )
    @settings(max_examples=30, deadline=None)
    def test_capacity_conservation(self, params, name, n_ranks, shifts, kib):
        """Sum of concurrent reservations never exceeds any stage's capacity."""
        shifts = [s % n_ranks for s in shifts if s % n_ranks]
        topology = _topology_factories(**params)[name]()
        with trace_reservations() as events:
            result = run_simulation(
                n_ranks,
                shift_traffic_program(n_ranks, shifts, kib * 1024),
                NET,
                topology=topology,
            )
        assert result.total_time >= 0.0
        assert capacity_conservation_violations(events) == []

    @given(
        params=fabric_params,
        name=st.sampled_from(["fat_tree", "dragonfly"]),
        n_ranks=st.integers(min_value=2, max_value=10),
        pair_seed=st.integers(min_value=0, max_value=2**16),
        n_messages=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_routing_determinism(self, params, name, n_ranks, pair_seed, n_messages):
        """Identical configuration + identical traffic => identical paths."""
        rng = np.random.default_rng(pair_seed)
        pairs = [tuple(rng.integers(0, n_ranks, size=2)) for _ in range(n_messages)]
        make = _topology_factories(**params)[name]

        def resolved_signatures(topology):
            links = [topology.resolve_link(int(s), int(d)) for s, d in pairs]
            by_link = {id(link): sig for sig, link in topology._path_links.items()}
            return [by_link.get(id(link), ("intra",)) for link in links]

        assert resolved_signatures(make()) == resolved_signatures(make())


class TestCollectiveProperties:
    @given(
        n_ranks=st.integers(min_value=1, max_value=6),
        n_elements=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_ring_allreduce_equals_numpy_sum(self, n_ranks, n_elements, seed):
        rng = np.random.default_rng(seed)
        inputs = [rng.standard_normal(n_elements) for _ in range(n_ranks)]
        outcome = Cluster(network=NET).communicator(n_ranks).allreduce(inputs, algorithm="ring")
        expected = np.sum(inputs, axis=0)
        for rank in range(n_ranks):
            np.testing.assert_allclose(outcome.value(rank), expected, rtol=1e-10, atol=1e-12)
