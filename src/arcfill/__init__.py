"""Exact solvers for degree-constrained arc insertion in directed graphs.

Three completion problems on loop-free simple digraphs, all solved exactly:
raise every vertex into a per-vertex list of allowed (indegree, outdegree)
pairs, hit an exact target degree sequence, or make the degree sequence
k-anonymous, inserting at most a budgeted number of arcs.

Small budgets are decided by bounded search over a representative vertex set
of the input, from a per-problem size floor up, large ones by a
degree-sequence number problem plus max-flow demand realization; kernels and
their trivial-no rules serve ``arcfill kernelize``, and brute-force oracles
back every solver for verification.
"""

from .core import (
    DegreeListFunction,
    DegreePair,
    DegreeSequence,
    Digraph,
    blocks,
    degree_sequence,
    is_satisfied,
    vertex_types,
)
from .flow import (
    DemandVector,
    FlowNetwork,
    PreconditionViolatedError,
    build_network,
    max_flow,
    realize_demands,
    try_realize_demands,
)
from .kernel import (
    KernelResult,
    KernelVerdict,
    TrivialNoReason,
    compute_alpha_set,
    kernelize_dda,
    kernelize_ddconc,
    kernelize_ddseqc,
    lift_solution,
    reduce_trivial_no,
)
from .numprob import (
    Bijection,
    NumberSolution,
    demands_from_solution,
    reduce_partition_to_nda,
    solve_nda,
    solve_nddcc,
    solve_nddsc,
)
from .oracle import (
    InstanceTooLargeError,
    brute_force_graph,
    brute_force_nda,
    brute_force_nddcc,
    brute_force_nddsc,
)
from .problems import (
    AnonymityCompletion,
    ListCompletion,
    ProblemInstance,
    SequenceCompletion,
)
from .search import Solution, build_certificate, solve, solve_bounded, verify_solution

__version__ = "0.1.0"
