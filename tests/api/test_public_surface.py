"""Public-surface snapshot: ``repro.api.__all__`` is a contract.

Anything added here is something downstream code may depend on forever;
anything removed is a breaking change.  Update the snapshot deliberately,
in the same commit as the surface change.
"""

import dataclasses
import hashlib
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import repro
import repro.api as api
import repro.mpisim.topology as topology
from repro.api.communicator import C_VARIANTS, COMPRESSION_MODES, compression_mode
from repro.ccoll import CCollConfig

EXPECTED_API_ALL = ["Cluster", "Communicator"]

#: the pre-package ``topology.py`` list minus ``trace_reservations`` /
#: ``capacity_conservation_violations``, which live in ``repro.mpisim.audit``
EXPECTED_TOPOLOGY_ALL = [
    "CONTENTION_FAIR",
    "CONTENTION_RESERVATION",
    "DragonflyTopology",
    "FatTreeTopology",
    "FlatTopology",
    "HierarchicalTopology",
    "LinkModel",
    "RAIL_HASH",
    "RAIL_STRIPE",
    "ROUTE_ADAPTIVE",
    "ROUTE_MINIMAL",
    "SharedLink",
    "SharedUplinkTopology",
    "SwitchFabricTopology",
    "Topology",
    "reserve_path",
]

#: ``repro.compression.__all__``: the codec registry is a literal table, with
#: no registration hook
EXPECTED_COMPRESSION_ALL = [
    "CompressedBuffer",
    "CompressionError",
    "Compressor",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CHUNK_ELEMS",
    "DecompressionError",
    "MODE_ABS",
    "MODE_FXR",
    "NullCompressor",
    "PipelinedSZx",
    "SZxCompressor",
    "UnsupportedDataError",
    "ZFPCompressor",
    "available_compressors",
    "check_compressible",
    "make_compressor",
    "rounding_margin",
]

#: ``__all__`` of the layers under the API.  A name that only tests use does
#: not belong in one, so adding a name is a deliberate edit here
EXPECTED_SUBPACKAGE_ALL = {
    "repro.mpisim": [
        "Barrier", "CAT_ALLGATHER", "CAT_COMDECOM", "CAT_MEMCPY", "CAT_OTHERS",
        "CAT_REDUCTION", "CAT_WAIT", "CONTENTION_FAIR", "CONTENTION_MODES",
        "CONTENTION_RESERVATION", "Command", "Compute", "DeadlockError",
        "DragonflyTopology", "Engine", "FairFlow", "FairShareRegistry",
        "FatTreeTopology", "FlatTopology", "HierarchicalTopology",
        "InvalidCommandError", "Irecv", "Isend", "LinkModel", "NetworkModel",
        "PROGRESS_ASYNC", "PROGRESS_ON_POLL", "RAIL_HASH", "RAIL_STRIPE",
        "ROUTE_ADAPTIVE", "ROUTE_MINIMAL", "RankProgramError", "RankResult",
        "RecvRequest", "Request", "RunawayProgramError", "STANDARD_CATEGORIES",
        "SendRequest", "SharedLink", "SharedUplinkTopology", "SimulationError",
        "SimulationResult", "SwitchFabricTopology", "Test", "TimeBreakdown", "Topology",
        "TransferState", "Wait", "Waitall", "audit_fabric",
        "capacity_conservation_violations", "payload_nbytes", "reserve_path",
        "run_simulation", "trace_fair_allocations", "trace_reservations",
    ],
    "repro.faults": [
        "DRAGONFLY_LINK_FAMILIES", "DomainOutage", "FAT_TREE_LINK_FAMILIES",
        "FAULT_MIXES", "FailureDomain", "FaultEvent", "FaultInjector", "FaultSchedule",
        "LinkDegrade", "NODE_LOSS_FACTOR", "NodeLoss", "RailFailure", "SlowRank",
    ],
    "repro.utils": [
        "GB", "KB", "MB", "ensure_1d_float_array", "ensure_in", "ensure_non_negative",
        "ensure_positive", "pack_uint_bits", "resolve_rng", "split_counts",
        "split_displacements", "unpack_uint_bits",
    ],
    "repro.metrics": [
        "CompressionStats", "QualityReport", "aggregate_ratio_stats",
        "compression_ratio", "max_abs_error", "mean_abs_error", "mean_slowdown",
        "nrmse", "psnr", "quality_report", "rmse", "summarize",
    ],
    "repro.datasets": [
        "CESM_FIELDS", "DATASET_SPECS", "DEFAULT_CESM_SHAPE", "DEFAULT_HURRICANE_SHAPE",
        "DEFAULT_RTM_SHAPE", "DatasetSpec", "Field", "HURRICANE_FIELDS",
        "generate_cesm_field", "generate_hurricane_field", "generate_rtm_snapshot",
        "load_field", "message_of_size", "smooth_random_field", "sparse_random_field",
    ],
}

#: the machine-model settings that are module constants, not parameters
DELETED_FABRIC_PARAMETERS = (
    "intra_latency",
    "intra_bandwidth",
    "local_bandwidth",
    "global_bandwidth",
    "valiant_candidates",
)

#: the facade's collective surface — the methods the issue names, frozen
EXPECTED_COLLECTIVES = [
    "allgather",
    "allreduce",
    "alltoall",
    "barrier",
    "bcast",
    "gather",
    "reduce",
    "reduce_scatter",
    "scatter",
]


def test_api_all_snapshot():
    assert sorted(api.__all__) == EXPECTED_API_ALL


def test_topology_all_snapshot():
    assert sorted(topology.__all__) == EXPECTED_TOPOLOGY_ALL
    for name in topology.__all__:
        assert getattr(topology, name) is not None


def test_compression_all_snapshot():
    import repro.compression as compression

    assert sorted(compression.__all__) == EXPECTED_COMPRESSION_ALL


@pytest.mark.parametrize("name", sorted(EXPECTED_SUBPACKAGE_ALL))
def test_subpackage_all_snapshot(name):
    module = importlib.import_module(name)
    assert sorted(module.__all__) == EXPECTED_SUBPACKAGE_ALL[name]
    for entry in module.__all__:
        assert hasattr(module, entry)


def test_the_calibration_is_constants():
    """Only ``codec_speeds`` of the machine model is settable; the rest of the
    calibration (Table I, Figure 7, the fabrics' intra-node and dragonfly
    tiers) is module constants."""
    from repro.harness.common import default_config
    from repro.perfmodel import CostModel

    assert [field.name for field in dataclasses.fields(CostModel)] == ["codec_speeds"]
    assert not hasattr(CostModel, "uniform") and not hasattr(CostModel, "broadwell_omnipath")
    assert list(inspect.signature(CostModel.codec_break_even_bandwidth).parameters) == [
        "self", "codec",
    ]
    assert "pipeline_chunk_elems" not in {field.name for field in dataclasses.fields(CCollConfig)}
    assert "cost" not in inspect.signature(default_config).parameters
    fabrics = (
        topology.HierarchicalTopology,
        topology.SharedUplinkTopology,
        topology.FatTreeTopology,
        topology.DragonflyTopology,
    )
    for fabric in fabrics:
        for name in DELETED_FABRIC_PARAMETERS:
            with pytest.raises(TypeError):
                fabric(**{name: 1.0})


def test_a_codec_is_its_name_and_its_bound():
    """Block and chunk sizes are class constants and SZx's bound is absolute:
    the constructors take the bound (and ZFP its mode and rate), nothing else."""
    from repro.compression import PipelinedSZx, SZxCompressor, ZFPCompressor, make_compressor

    assert list(inspect.signature(SZxCompressor).parameters) == ["error_bound"]
    assert list(inspect.signature(PipelinedSZx).parameters) == ["error_bound"]
    assert list(inspect.signature(ZFPCompressor).parameters) == ["mode", "error_bound", "rate"]
    for name, setting in (
        ("szx", {"block_size": 64}),
        ("szx", {"error_mode": "rel"}),
        ("pipe_szx", {"chunk_elems": 512}),
    ):
        with pytest.raises(TypeError):
            make_compressor(name, **setting)


def test_an_experiment_is_its_scale():
    """Bounds, sizes, implementations, fabrics' NIC rate and taper, policies
    and seeds are module constants: what a runner still takes besides
    ``scale`` is the CLI's ``contention``, the shared
    sweeps' ``rows`` / ``variants`` and the shrink settings of the tests and
    benches."""
    from repro.harness.experiments import (
        allreduce_comparison,
        compressor_tables,
        fabric_contention,
        faults,
        fig5_error_distribution,
        multitenant,
        recovery,
        scatter_bcast,
        stacking,
        stepwise_breakdown,
        theory_bounds,
        topology_scaling,
    )
    from repro.harness.common import load_rtm_message, per_rank_variants

    expected = {
        allreduce_comparison.run_fig11_datasizes: ["scale"],
        allreduce_comparison.run_fig12_scaling: ["scale"],
        allreduce_comparison.run_fig13_fields: ["scale", "size_mb"],
        allreduce_comparison.run_fig14_15_accuracy: ["scale"],
        compressor_tables.characterise: ["scale", "n_files"],
        compressor_tables.run_table1: ["scale", "rows"],
        compressor_tables.run_table2: ["scale", "rows"],
        compressor_tables.run_table3: ["scale", "rows"],
        compressor_tables.run_table6: ["scale"],
        fabric_contention.fabric_factories: ["ranks_per_node", "n_ranks", "contention"],
        fabric_contention.run_fabric_contention: [
            "scale", "sizes_mb", "ranks_per_node", "fabrics", "contention",
        ],
        faults.run_faults: ["scale", "contention"],
        fig5_error_distribution.run_fig5_fig6: ["scale"],
        multitenant.run_multitenant: ["scale", "contention"],
        recovery.run_recovery: ["scale", "contention"],
        scatter_bcast.run_fig16_scatter_bcast: ["scale"],
        stacking.stacking_sweep: ["scale", "virtual_mb", "image_shape"],
        stacking.run_fig17_stacking_perf: ["scale", "rows"],
        stacking.run_fig18_stacking_quality: ["scale", "rows"],
        stepwise_breakdown.stepwise_sweep: ["scale", "variants"],
        stepwise_breakdown.run_fig7_breakdown: ["scale", "rows"],
        stepwise_breakdown.run_fig8_di_vs_nd: ["scale", "rows"],
        stepwise_breakdown.run_fig9_wait_overlap: ["scale", "rows"],
        stepwise_breakdown.run_fig10_stepwise: ["scale", "rows"],
        theory_bounds.run_theory_bounds: ["scale", "trials"],
        topology_scaling.run_topology_scaling: ["scale", "sizes_mb", "ranks_per_node"],
        per_rank_variants: ["data", "n_ranks"],
        load_rtm_message: ["virtual_mb", "settings"],
    }
    for runner, parameters in expected.items():
        assert list(inspect.signature(runner).parameters) == parameters, runner.__name__


def test_settings_no_caller_sets_are_constants():
    """Pipeline segmenting, a generated job's iteration count, the capacity
    audit's slack and an RTM snapshot's source count are module constants."""
    from repro.ccoll.computation import segment_count
    from repro.datasets import generate_rtm_snapshot
    from repro.mpisim.audit import capacity_conservation_violations
    from repro.workload import JobMix

    assert list(inspect.signature(segment_count).parameters) == ["uncompressed_vbytes"]
    assert list(inspect.signature(capacity_conservation_violations).parameters) == ["events"]
    assert "n_sources" not in inspect.signature(generate_rtm_snapshot).parameters
    assert "iterations_range" not in {field.name for field in dataclasses.fields(JobMix)}


def test_api_all_entries_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_communicator_collective_surface():
    methods = [
        name
        for name in dir(api.Communicator)
        if not name.startswith("_") and callable(getattr(api.Communicator, name))
    ]
    assert sorted(set(methods) & set(EXPECTED_COLLECTIVES)) == EXPECTED_COLLECTIVES


def test_one_table_names_every_compression_mode():
    """``compression`` is the only knob that picks a C-Coll variant, and
    ``C_VARIANTS`` lists exactly the methods that take it."""
    compressible = {}
    for name, method in inspect.getmembers(api.Communicator, inspect.isfunction):
        if name.startswith("_"):
            continue
        parameters = inspect.signature(method).parameters
        assert "overlap" not in parameters, name
        if "compression" in parameters:
            compressible[name] = parameters["compression"]
    assert sorted(compressible) == sorted(C_VARIANTS)
    for name, parameter in compressible.items():
        assert parameter.annotation in (str, "str"), name
        assert parameter.default == "off", name
    assert "use_overlap" not in {field.name for field in dataclasses.fields(CCollConfig)}


def test_cluster_takes_c_coll_settings_only_through_config():
    assert list(inspect.signature(api.Cluster.__init__).parameters)[1:] == [
        "network", "topology", "config", "preset",
    ]
    named = inspect.signature(api.Cluster.from_preset).parameters
    assert "cost" not in named and "size_multiplier" not in named
    assert not hasattr(api.Cluster, "cost") and not hasattr(api.Cluster, "size_multiplier")


def test_ccoll_exports_no_alias_table():
    import repro.ccoll as ccoll

    for name in ("VARIANT_ALIASES", "canonical_variant", "ALLREDUCE_VARIANTS"):
        assert name not in ccoll.__all__ and not hasattr(ccoll, name)


def test_a_jobs_codec_results_are_a_tape_not_a_memo():
    """A re-execution replays its tape by a byte compare: no content-addressed memo."""
    import repro.ccoll as ccoll
    import repro.ccoll.adapter as adapter

    assert "CodecMemo" not in ccoll.__all__ and not hasattr(ccoll, "CodecMemo")
    assert not hasattr(adapter, "CodecMemo") and not hasattr(adapter, "hashlib")
    assert not hasattr(adapter.CompressionAdapter, "_key")
    assert [field.name for field in dataclasses.fields(CCollConfig)] == [
        "codec", "error_bound", "rate", "size_multiplier", "cost", "codec_tape",
    ]


@pytest.mark.parametrize("op", sorted(C_VARIANTS))
def test_exactly_its_modes_spellings_are_accepted(op):
    """Every spelling is exact: no case, padding or former alias resolves."""
    from repro.workload import COLLECTIVE_OPS, CollectiveCall

    def check(spelling):
        compression_mode(op, spelling)
        if op in COLLECTIVE_OPS:  # scatter is a session method, not a job step
            CollectiveCall(op=op, compression=spelling)

    accepted = [
        spelling
        for spelling, label in COMPRESSION_MODES.items()
        if label in (*C_VARIANTS[op], "auto")
    ]
    for spelling in accepted:
        check(spelling)
    refused = [spelling for spelling in COMPRESSION_MODES if spelling not in accepted]
    for spelling in (*refused, "cpr-p2p", "Overlap", " ON ", "AD", "Auto"):
        with pytest.raises(ValueError, match=re.escape(" / ".join(map(repr, accepted)))):
            check(spelling)


def test_top_level_reexports_session_api():
    assert repro.Cluster is api.Cluster
    assert repro.Communicator is api.Communicator


# --- the lazy top level: names resolve on first use, from their canonical home ---

#: ``repro.__all__``, in order, and the module each name is defined in
CANONICAL_HOME = {
    "__version__": "repro._version",
    "Cluster": "repro.api.cluster",
    "Communicator": "repro.api.communicator",
    "CCollConfig": "repro.ccoll.config",
    "CostModel": "repro.perfmodel.costmodel",
    "SZxCompressor": "repro.compression.szx",
    "make_compressor": "repro.compression.registry",
    "load_field": "repro.datasets.registry",
    "run_image_stacking": "repro.apps.image_stacking",
    "run_experiment": "repro.harness.runner",
    "default_network": "repro.perfmodel.presets",
    "default_cost_model": "repro.perfmodel.presets",
}

SUBPACKAGES = sorted(
    path.parent.name for path in Path(repro.__file__).parent.glob("*/__init__.py")
)


def test_top_level_all_snapshot():
    assert repro.__all__ == list(CANONICAL_HOME)
    assert len(SUBPACKAGES) == 15


@pytest.mark.parametrize("name", CANONICAL_HOME)
def test_top_level_name_is_the_canonical_object_and_is_cached(name):
    value = getattr(repro, name)
    assert value is getattr(importlib.import_module(CANONICAL_HOME[name]), name)
    assert vars(repro)[name] is value


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_top_level_subpackage_attribute_is_the_module(name):
    assert getattr(repro, name) is importlib.import_module(f"repro.{name}")
    assert vars(repro)[name] is sys.modules[f"repro.{name}"]


def test_dir_lists_all_and_the_subpackages():
    assert set(dir(repro)) >= set(repro.__all__) | set(SUBPACKAGES)


def test_unknown_top_level_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
    assert not hasattr(repro, "no_such_name")


def test_star_import_binds_all_twelve_names_in_a_fresh_interpreter(fresh_python):
    out = fresh_python(
        "from repro import *\n"
        "import repro\n"
        "print(sorted(name for name in repro.__all__ if globals()[name] is getattr(repro, name)))"
    )
    assert out.strip() == repr(sorted(CANONICAL_HOME))


def test_subpackage_attribute_works_after_a_bare_import_in_a_fresh_interpreter(fresh_python):
    out = fresh_python(
        "import sys, repro\n"
        "assert 'repro.harness' not in sys.modules\n"
        "print(repro.harness.list_experiments()[0], repro.workload.WorkloadEngine.__name__)"
    )
    assert out.split() == ["table1", "WorkloadEngine"]


# --- SciPy is imported where it is called; the values are the parent commit's ---


def test_scipy_backed_functions_return_the_pinned_values():
    from repro.analysis.propagation import probability_within, sum_error_interval
    from repro.datasets.base import smooth_random_field

    field = smooth_random_field((24, 40), 2.5, rng=7)
    assert (field.dtype, field.shape) == ("float32", (24, 40))
    assert (
        hashlib.sha256(field.tobytes()).hexdigest()
        == "9e4677ed4263c0e21279761bb236b71bcbe00a0af0410ce99c557a63fddd7466"
    )
    assert probability_within(100, 1e-3 / 3, 20 / 3 * 1e-3).hex() == "0x1.e8b4307d3627ap-1"
    assert probability_within(16, 0.5, 1.25).hex() == "0x1.df42fa9c366c0p-2"
    assert sum_error_interval(64, 1e-2 / 3, 0.99).half_width.hex() == "0x1.1959685d5d163p-4"
