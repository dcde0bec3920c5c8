"""Stock MPI collective algorithms (the uncompressed baselines).

These are the algorithms the paper's evaluation compares against (its "AD" /
"Baseline" bars): ring allgather, ring reduce-scatter, ring allreduce,
binomial-tree broadcast / scatter / gather / reduce, and pairwise all-to-all —
plus the MPICH-style allreduce alternatives (recursive doubling, Rabenseifner,
hierarchical) and the tuning-table selector that picks between them by message
size, rank count and topology.

Four schedules are written once and shared: the ring reduce-scatter
(:mod:`~repro.collectives.reduce_scatter`), the ring allgather
(:mod:`~repro.collectives.allgather`), the binomial broadcast
(:mod:`~repro.collectives.bcast`) and the binomial scatter
(:mod:`~repro.collectives.scatter`).  Each takes what a rank does to every
message as two *hops* (see :mod:`~repro.collectives.context`): the baselines
send as is and copy on arrival, while the C-Coll and CPR-P2P variants in
:mod:`repro.ccoll` run the very same schedules with compressing, forwarding or
decompressing hops.  A compressed collective and its baseline therefore
differ only in what happens at each hop, never in who sends to whom in which
round.
"""

from repro.collectives.allgather import ring_allgather_program
from repro.collectives.allreduce import ring_allreduce_program
from repro.collectives.alltoall import pairwise_alltoall_program
from repro.collectives.barrier import barrier_program
from repro.collectives.bcast import binomial_bcast_program
from repro.collectives.context import (
    CollectiveContext,
    CollectiveOutcome,
    CollectivePlan,
    as_rank_arrays,
)
from repro.collectives.gather import binomial_gather_program
from repro.collectives.hierarchical import (
    hierarchical_allreduce_program,
)
from repro.collectives.rabenseifner import (
    rabenseifner_allreduce_program,
)
from repro.collectives.recursive_doubling import (
    recursive_doubling_allreduce_program,
)
from repro.collectives.reduce import binomial_reduce_program
from repro.collectives.reduce_scatter import (
    partition_chunks,
    ring_reduce_scatter_program,
)
from repro.collectives.scatter import binomial_scatter_program
from repro.collectives.selection import (
    ALGORITHM_PLANNERS,
    select_algorithm,
)

__all__ = [
    "CollectiveContext",
    "CollectiveOutcome",
    "CollectivePlan",
    "as_rank_arrays",
    "barrier_program",
    "partition_chunks",
    "ring_allgather_program",
    "ring_reduce_scatter_program",
    "ring_allreduce_program",
    "recursive_doubling_allreduce_program",
    "rabenseifner_allreduce_program",
    "hierarchical_allreduce_program",
    "ALGORITHM_PLANNERS",
    "select_algorithm",
    "binomial_bcast_program",
    "binomial_scatter_program",
    "binomial_gather_program",
    "binomial_reduce_program",
    "pairwise_alltoall_program",
]
