"""Exact solvers for the degree-sequence number problems.

These solvers work purely on integer tuple sequences: raise entries
componentwise, spending exactly a prescribed budget per component, so that
per-index allowed lists, a target multiset, or an anonymity requirement is
met.  They decide the sequence relaxations of the corresponding digraph
completion problems and reconstruct witness sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import DegreeListFunction, DegreePair, DegreeSequence
from .flow import DemandVector


class LengthMismatchError(ValueError):
    """Two sequences that must be index-aligned have different lengths."""


class NegativeDemandError(ValueError):
    """A target entry is componentwise below its source entry."""


class OddSumError(ValueError):
    """Partition input does not sum to an even total."""


class ElementTooLargeError(ValueError):
    """Partition input contains an element at least half the total."""


@dataclass(frozen=True)
class NumberSolution:
    """Witness for a number problem: output sequence plus its increments.

    ``target`` is index-aligned with the input sequence and ``demands``
    holds the componentwise differences.
    """

    target: DegreeSequence
    demands: DemandVector


class Bijection(tuple[int, ...]):
    """A permutation of 0..n-1, as the tuple of images."""

    __slots__ = ()

    def __new__(cls, mapping: Iterable[int]):
        self = super().__new__(cls, mapping)
        if sorted(self) != list(range(len(self))):
            raise ValueError("mapping is not a permutation")
        return self

    @property
    def mapping(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Bijection(mapping={self.mapping!r})"


def demands_from_solution(
    sigma: DegreeSequence, target: DegreeSequence
) -> DemandVector:
    """Componentwise increments turning sigma into target."""
    if len(sigma) != len(target):
        raise LengthMismatchError(
            f"sequence lengths differ: {len(sigma)} vs {len(target)}"
        )
    in_demand = []
    out_demand = []
    for i, (src, dst) in enumerate(zip(sigma, target)):
        if not dst.dominates(src):
            raise NegativeDemandError(
                f"entry {i}: target {tuple(dst)} below source {tuple(src)}"
            )
        in_demand.append(dst.indeg - src.indeg)
        out_demand.append(dst.outdeg - src.outdeg)
    return DemandVector(tuple(in_demand), tuple(out_demand))


def solve_nddcc(
    sigma: DegreeSequence, s: int, lists: DegreeListFunction, low: int | None = None
) -> NumberSolution | None:
    """Raise entries into their allowed lists spending b per component.

    b is the smallest budget with ``low <= b <= s`` that admits a solution;
    ``low`` defaults to s, which asks for exactly s.  Dynamic program over
    prefixes, run once with bound s: cell (i, j, l) is reachable when the
    first i entries admit allowed targets whose increments sum to j on the
    first and l on the second component.  Parent pointers record the chosen
    pair per cell for reconstruction.  Increments are nonnegative, so a cell
    with both coordinates at most b only has parents within that bound, and
    the witness at b equals the one a run with bound b would give.
    """
    n = len(sigma)
    if len(lists) != n:
        raise LengthMismatchError(
            f"list function covers {len(lists)} entries, sequence has {n}"
        )
    if s < 0:
        raise ValueError("budget must be nonnegative")
    low = s if low is None else low
    if not 0 <= low <= s:
        raise ValueError(f"lower budget {low} outside 0..{s}")
    reachable: set[tuple[int, int]] = {(0, 0)}
    parents: list[dict[tuple[int, int], DegreePair]] = []
    for i in range(n):
        entry = sigma[i]
        moves = [
            (pair, pair.indeg - entry.indeg, pair.outdeg - entry.outdeg)
            for pair in sorted(lists[i])
            if pair.dominates(entry)
        ]
        level: dict[tuple[int, int], DegreePair] = {}
        for (j, l) in sorted(reachable):
            for pair, dc, dd in moves:
                nj, nl = j + dc, l + dd
                if nj <= s and nl <= s and (nj, nl) not in level:
                    level[(nj, nl)] = pair
        parents.append(level)
        reachable = set(level)
        if not reachable:
            return None
    b = next((b for b in range(low, s + 1) if (b, b) in reachable), None)
    if b is None:
        return None
    target: list[DegreePair] = [DegreePair(0, 0)] * n
    j, l = b, b
    for i in range(n - 1, -1, -1):
        pair = parents[i][(j, l)]
        target[i] = pair
        j -= pair.indeg - sigma[i].indeg
        l -= pair.outdeg - sigma[i].outdeg
    if (j, l) != (0, 0):
        raise AssertionError(f"reconstruction ended at {(j, l)}, not (0, 0)")
    result = DegreeSequence(target)
    return NumberSolution(result, demands_from_solution(sigma, result))


def solve_nddsc(sigma: DegreeSequence, phi: DegreeSequence) -> Bijection | None:
    """Match each entry of sigma to a dominating entry of phi, bijectively.

    Maximum bipartite matching by augmenting paths on the dominance graph;
    the answer is yes exactly when the matching is perfect.  Rows i and i'
    with ``sigma[i] == sigma[i']`` have the same columns, so the dominance
    row is computed once per distinct type of sigma, and within one
    augmenting search all frames of one type share one pass over that row:
    every column a frame has passed is already seen by any later frame, so
    the columns visited, and hence the matching, are those of a search that
    scans each row from its start.
    """
    n = len(sigma)
    if len(phi) != n:
        raise LengthMismatchError(f"sequence lengths differ: {n} vs {len(phi)}")
    rows_of = {
        t: [j for j in range(n) if phi[j].dominates(t)] for t in set(sigma)
    }
    match_right = [-1] * n

    def augment(root: int) -> bool:
        # Depth-first search for an augmenting path, with an explicit stack so
        # long paths cannot overflow the interpreter's recursion limit.  Frame
        # k holds row rows[k] and its type's shared pass over the columns;
        # cols[k] is the column it took to reach frame k + 1.
        seen = [False] * n
        passes = {t: iter(row) for t, row in rows_of.items()}
        rows = [root]
        frames = [passes[sigma[root]]]
        cols: list[int] = []
        while frames:
            for j in frames[-1]:
                if not seen[j]:
                    seen[j] = True
                    break
            else:
                rows.pop()
                frames.pop()
                if cols:
                    cols.pop()
                continue
            cols.append(j)
            if match_right[j] < 0:
                for i, col in zip(rows, cols):
                    match_right[col] = i
                return True
            rows.append(match_right[j])
            frames.append(passes[sigma[match_right[j]]])
        return False

    if not all(augment(i) for i in range(n)):
        return None
    mapping = [0] * n
    for j, i in enumerate(match_right):
        mapping[i] = j
    return Bijection(mapping)


def _plausible_moves(
    source: DegreePair,
    type_counts: list[tuple[DegreePair, int]],
    s: int,
    k: int,
    max_value: int,
) -> list[tuple[DegreePair, int, int]]:
    """Candidate outputs for ``source`` in ascending order, with their costs.

    Each move is (output, in cost, out cost) for one tuple of the source.

    A candidate must dominate the source, stay within ``max_value``, cost at
    most s per component for a single tuple, and have enough affordable
    senders across all input blocks to ever reach k occupants.
    """
    results = []
    for a in range(source.indeg, min(max_value, source.indeg + s) + 1):
        for b in range(source.outdeg, min(max_value, source.outdeg + s) + 1):
            dest = DegreePair(a, b)
            reachable = 0
            for t, count in type_counts:
                if (
                    dest.dominates(t)
                    and a - t.indeg <= s
                    and b - t.outdeg <= s
                ):
                    reachable += count
                    if reachable >= k:
                        break
            if reachable >= k:
                results.append((dest, a - source.indeg, b - source.outdeg))
    return results


def solve_nda(
    sigma: DegreeSequence, s: int, k: int, max_value: int
) -> NumberSolution | None:
    """Spend exactly s per component so every output tuple occurs >= k times.

    Exact depth-first search over block transition counts: input blocks are
    processed in ascending type order and each block's tuples are distributed
    over candidate output types in ascending order, the largest affordable
    count first.  Branches die on budget overruns, on opened output types
    that no remaining block can still afford to fill up to k, on suffix
    capacity (counted from the current item inside a block) that cannot
    absorb the remaining budget, and on mandatory move costs (blocks that
    can never legally stay put) exceeding the remaining budget.  The search
    is one loop over an explicit stack of (block, candidate) slots, so its
    depth is not bound by the interpreter's recursion limit; the slots left
    on the stack at the first hit are the witness's block plan.
    """
    if k < 1:
        raise ValueError("anonymity level must be positive")
    if s < 0:
        raise ValueError("budget must be nonnegative")
    n = len(sigma)
    if max_value < sigma.max_component:
        raise ValueError(
            f"max_value {max_value} below largest input component "
            f"{sigma.max_component}"
        )
    if n == 0:
        if s == 0:
            return NumberSolution(DegreeSequence(()), DemandVector((), ()))
        return None

    type_counts = sorted(sigma.as_multiset().items())
    types = [t for t, _ in type_counts]
    counts = [c for _, c in type_counts]
    num_types = len(types)

    # Per-tuple spending caps and mandatory move costs, used as suffix bounds.
    in_cap = [min(s, max_value - t.indeg) for t in types]
    out_cap = [min(s, max_value - t.outdeg) for t in types]
    suffix_in = [0] * (num_types + 1)
    suffix_out = [0] * (num_types + 1)
    for i in range(num_types - 1, -1, -1):
        suffix_in[i] = suffix_in[i + 1] + counts[i] * in_cap[i]
        suffix_out[i] = suffix_out[i + 1] + counts[i] * out_cap[i]
    if suffix_in[0] < s or suffix_out[0] < s:
        return None

    plausible = [_plausible_moves(t, type_counts, s, k, max_value) for t in types]
    if not all(plausible):
        return None
    suffix_mandatory = [0] * (num_types + 1)
    for i in range(num_types - 1, -1, -1):
        min_cost = min(dc + dd for _, dc, dd in plausible[i])
        suffix_mandatory[i] = suffix_mandatory[i + 1] + counts[i] * min_cost

    inflow: dict[DegreePair, int] = {}

    def enter(type_index: int, rem_in: int, rem_out: int):
        # Checks on entering block type_index, the in-block bound having
        # passed already.  Returns the block's affordable moves as (output
        # type, in cost, out cost), an empty list past the last block when
        # the budget is spent exactly, and None when the branch dies.
        if suffix_mandatory[type_index] > rem_in + rem_out:
            return None
        for dest, count in inflow.items():
            if count < k and not any(
                dest.dominates(types[j])
                and dest.indeg - types[j].indeg <= rem_in
                and dest.outdeg - types[j].outdeg <= rem_out
                for j in range(type_index, num_types)
            ):
                return None
        if type_index == num_types:
            return [] if rem_in == 0 and rem_out == 0 else None
        moves = [
            move
            for move in plausible[type_index]
            if move[1] <= rem_in and move[2] <= rem_out
        ]
        return moves or None

    # Each frame is one (block, candidate) slot: [type_index, moves,
    # cand_index, count, items_left, rem_in, rem_out].  count is what the
    # slot gives moves[cand_index] and is included in inflow; the last three
    # are the block's state before the slot.  A fresh slot (count 0) tries
    # the largest affordable count first; a count that drops to 0 moves the
    # slot on to the next candidate in place.
    moves = enter(0, s, s)
    if moves is None:
        return None
    stack = [[0, moves, 0, 0, counts[0], s, s]]
    while stack:
        frame = stack[-1]
        type_index, moves, cand_index, count, items_left, rem_in, rem_out = frame
        dest, dc, dd = moves[cand_index]
        if count:
            inflow[dest] -= count
            if not inflow[dest]:
                del inflow[dest]
            count -= 1
        else:
            count = items_left
            if dc:
                count = min(count, rem_in // dc)
            if dd:
                count = min(count, rem_out // dd)
        if not count:
            if cand_index + 1 == len(moves):
                stack.pop()
            else:
                frame[2] = cand_index + 1
                frame[3] = 0
            continue
        frame[3] = count
        inflow[dest] = inflow.get(dest, 0) + count
        items_left -= count
        rem_in -= count * dc
        rem_out -= count * dd
        # The block's unplaced items spend at most their cap each, so a
        # budget beyond that plus the later blocks' capacity cannot be met.
        if (
            rem_in > items_left * in_cap[type_index] + suffix_in[type_index + 1]
            or rem_out > items_left * out_cap[type_index] + suffix_out[type_index + 1]
        ):
            continue
        if items_left:
            if cand_index + 1 < len(moves):
                stack.append(
                    [type_index, moves, cand_index + 1, 0, items_left, rem_in, rem_out]
                )
            continue
        type_index += 1
        moves = enter(type_index, rem_in, rem_out)
        if moves == []:
            break
        if moves is not None:
            stack.append([type_index, moves, 0, 0, counts[type_index], rem_in, rem_out])
    else:
        return None

    # Expand the block plan to an index-aligned output.  The frames hold the
    # nonzero counts in ascending (source, dest) order, so within each input
    # block ascending indices take output types in ascending order.
    queues: dict[DegreePair, list[DegreePair]] = {}
    for type_index, moves, cand_index, count, *_ in stack:
        queues.setdefault(types[type_index], []).extend([moves[cand_index][0]] * count)
    outputs = {t: iter(queue) for t, queue in queues.items()}
    result = DegreeSequence([next(outputs[entry]) for entry in sigma])
    return NumberSolution(result, demands_from_solution(sigma, result))


def reduce_partition_to_nda(values) -> tuple[DegreeSequence, int, int]:
    """Build an anonymity number instance from a multiset of positive integers.

    The instance is a yes-instance exactly when some subset of the input sums
    to half the total.  Per element a_i (1-based position i, half-total B)
    the sequence receives one tuple (2B(i+1) - a_i, 0), two tuples
    (2B(i+1), 0), and two tuples (2B(i+1) - a_i, a_i); the budget is B and
    the anonymity level 2.
    """
    values = [int(a) for a in values]
    if not values or any(a <= 0 for a in values):
        raise ValueError("input must be a nonempty multiset of positive integers")
    total = sum(values)
    if total % 2 != 0:
        raise OddSumError(f"values sum to odd total {total}")
    half = total // 2
    too_big = [a for a in values if a > half]
    if too_big:
        raise ElementTooLargeError(
            f"element {too_big[0]} exceeds half the total {half}"
        )
    entries = []
    for position, a in enumerate(values, start=1):
        base = 2 * half * (position + 1)
        entries.append((base - a, 0))
        entries.append((base, 0))
        entries.append((base, 0))
        entries.append((base - a, a))
        entries.append((base - a, a))
    return DegreeSequence(entries), half, 2
