"""Bipartite instances, exact scaling, file I/O, and random generation.

Weights are positive integers and the accuracy parameter is a unit fraction
eps = 1/k, so every quantity the engines touch (scaled weights, prices,
utilities) is an integer multiple of 1/(k * w_max). All comparisons here are
done on cross-multiplied integers; no floats are involved anywhere.
"""

from __future__ import annotations

import gc
import io
import json
import random
import re
from array import array
from bisect import bisect_right
from itertools import islice
from types import SimpleNamespace
from typing import NamedTuple

from .errors import InstanceFormatError

__all__ = [
    "Epsilon",
    "BipartiteInstance",
    "MAX_SIDE",
    "ScaledGraph",
    "scale_and_prune",
    "prune_exponent",
    "ceil_log",
    "load_instance",
    "loads_instance",
    "read_edges",
    "save_instance",
    "dumps_instance",
    "generate_random",
]


class _EpsilonFields(NamedTuple):
    k: int


class Epsilon(_EpsilonFields):
    """Accuracy parameter eps = 1/k for an integer k >= 2."""

    __slots__ = ()

    def __new__(cls, k: int) -> "Epsilon":
        if not isinstance(k, int) or k < 2:
            raise ValueError(f"eps must be 1/k with integer k >= 2, got k={k!r}")
        return super().__new__(cls, k)

    def __str__(self) -> str:
        return f"1/{self.k}"

    @classmethod
    def parse(cls, text: str) -> "Epsilon":
        """Parse the literal form '1/k'."""
        parts = text.strip().split("/")
        if len(parts) != 2 or parts[0].strip() != "1":
            raise ValueError(f"eps must be written as 1/k, got {text!r}")
        try:
            k = int(parts[1])
        except ValueError:
            raise ValueError(f"eps must be written as 1/k, got {text!r}") from None
        return cls(k)


def ceil_log(base: int, num: int, den: int = 1) -> int:
    """Smallest integer t >= 0 with base**t >= num/den, computed exactly."""
    if num <= 0 or den <= 0:
        raise ValueError("ceil_log needs a positive ratio")
    t = 0
    power = den
    while power < num:
        power *= base
        t += 1
    return t


def _first_repeat(n_l: int, edges) -> int | None:
    """Index of the first edge whose pair (i, j) an earlier edge has, or None.

    Every bidder ``i`` must lie in ``range(n_l)``. Each bidder's items go
    into one row, at one pointer per edge, and a row repeats when its set
    is shorter. Only then are the edges of the repeating bidders scanned
    in order for the first repeat.
    """
    rows: list[list[int]] = [[] for _ in range(n_l)]
    for i, j, _ in edges:
        rows[i].append(j)
    repeating = {i for i, row in enumerate(rows) if len(set(row)) != len(row)}
    if not repeating:
        return None
    del rows
    seen: set[tuple[int, int]] = set()
    for k, (i, j, _) in enumerate(edges):
        if i in repeating:
            if (i, j) in seen:
                return k
            seen.add((i, j))
    return None  # unreachable: a repeating row holds a repeat


class _InstanceFields(NamedTuple):
    n_l: int
    n_r: int
    edges: tuple[tuple[int, int, int], ...]
    b_l: tuple[int, ...]
    b_r: tuple[int, ...]


class BipartiteInstance(_InstanceFields):
    """A bipartite graph with integer edge weights and vertex capacities.

    Bidders are 0..n_l-1 on the left, items 0..n_r-1 on the right. Edges keep
    their construction order; that order doubles as the stream order for the
    streaming engines. Capacities default to 1 on both sides and are bounded
    by the size of the opposite side.
    """

    __slots__ = ()

    def __new__(cls, n_l: int, n_r: int, edges: tuple[tuple[int, int, int], ...],
                b_l: tuple[int, ...], b_r: tuple[int, ...]) -> "BipartiteInstance":
        inst = super().__new__(cls, n_l, n_r, edges, b_l, b_r)
        if n_l < 1 or n_r < 1:
            raise ValueError("both sides need at least one vertex")
        if len(b_l) != n_l or len(b_r) != n_r:
            raise ValueError("capacity vectors must cover every vertex")
        for i, b in enumerate(b_l):
            if not 1 <= b <= n_r:
                raise ValueError(f"bidder {i} capacity {b} outside [1, {n_r}]")
        for j, b in enumerate(b_r):
            if not 1 <= b <= n_l:
                raise ValueError(f"item {j} capacity {b} outside [1, {n_l}]")
        error = None
        for k, (i, j, w) in enumerate(edges):
            if type(i) is not int or type(j) is not int:
                error = f"edge ({i}, {j}) has a non-integer endpoint"
            elif not (0 <= i < n_l and 0 <= j < n_r):
                error = f"edge ({i}, {j}) endpoint out of range"
            elif type(w) is not int:
                error = f"edge ({i}, {j}) has non-integer weight {w}"
            elif w < 1:
                error = f"edge ({i}, {j}) has non-positive weight {w}"
            else:
                continue
            edges = edges[:k]
            break
        # the first bad edge is a repeat if one comes before the first
        # edge with a non-integer or out-of-range endpoint or weight
        k = _first_repeat(n_l, edges)
        if k is not None:
            i, j, _ = edges[k]
            raise ValueError(f"duplicate edge ({i}, {j})")
        if error is not None:
            raise ValueError(error)
        return inst

    @classmethod
    def _checked_by_reader(cls, n_l: int, n_r: int, edges, b_l, b_r
                           ) -> "BipartiteInstance":
        """An instance built without the checks of ``__new__``, for fields
        that have already passed every one of them: those ``_parse_lines``
        has checked (every line as it is read, duplicates per bidder once
        the read ends), and the levels of
        ``weight_reduction.run_reduced_mwm``, whose edges are a subset of a
        checked instance's edges, with unit capacities."""
        return tuple.__new__(cls, (n_l, n_r, edges, b_l, b_r))

    @classmethod
    def build(cls, n_l: int, n_r: int, edges, b_l=None, b_r=None) -> "BipartiteInstance":
        """Construct with default unit capacities where none are given."""
        return cls(
            n_l=n_l,
            n_r=n_r,
            edges=tuple((int(i), int(j), int(w)) for i, j, w in edges),
            b_l=tuple(b_l) if b_l is not None else (1,) * n_l,
            b_r=tuple(b_r) if b_r is not None else (1,) * n_r,
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def sum_b_l(self) -> int:
        return sum(self.b_l)

    @property
    def sum_b_r(self) -> int:
        return sum(self.b_r)

    @property
    def w_max(self) -> int:
        if not self.edges:
            raise ValueError("instance has no edges")
        return max(w for _, _, w in self.edges)

    @property
    def w_min(self) -> int:
        if not self.edges:
            raise ValueError("instance has no edges")
        return min(w for _, _, w in self.edges)

    def unit_capacities(self) -> bool:
        return all(b == 1 for b in self.b_l) and all(b == 1 for b in self.b_r)


class ScaledGraph(NamedTuple):
    """An instance rescaled by its maximum weight, with tiny edges pruned.

    Surviving edges keep their original integer weights and order; the
    scaled weight of (i, j, w) is the exact rational w / w_max. The prune
    threshold is eps**prune_exponent, where the exponent comes from the
    pre-prune edge count and weight spread.
    """

    instance: BipartiteInstance
    eps: Epsilon
    w_max: int
    edges: tuple[tuple[int, int, int], ...]
    pruned_count: int
    prune_exponent: int

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def bucket_count(self) -> int:
        """ceil(log_{1/eps} W) over surviving weights; 0 when all equal."""
        w_min = min(w for _, _, w in self.edges)
        return ceil_log(self.eps.k, self.w_max, w_min)


def prune_exponent(k: int, m: int, w_min: int, w_max: int) -> int:
    """ceil(log_{1/eps} min(m, W)) + 1 for W = w_max / w_min, compared exactly."""
    if m * w_min <= w_max:
        return ceil_log(k, m) + 1
    return ceil_log(k, w_max, w_min) + 1


def scale_and_prune(inst: BipartiteInstance, eps: Epsilon) -> ScaledGraph:
    """Divide weights by w_max and drop edges below eps**t.

    t is ceil(log_{1/eps} min(m, W)) + 1 computed from the graph as given.
    Exact arithmetic: an edge survives iff w * k**t >= w_max.
    """
    if not inst.edges:
        raise ValueError("cannot scale an instance with no edges")
    k = eps.k
    w_max = inst.w_max
    m = inst.m
    t = prune_exponent(k, m, inst.w_min, w_max)
    power = k ** t
    survivors = tuple(e for e in inst.edges if e[2] * power >= w_max)
    return ScaledGraph(
        instance=inst,
        eps=eps,
        w_max=w_max,
        edges=survivors,
        pruned_count=m - len(survivors),
        prune_exponent=t,
    )


# ---------------------------------------------------------------------------
# File format. One header line, then edge and optional capacity lines:
#
#   c free-form comment
#   p bm <n_l> <n_r> <m>
#   b l <i> <capacity>        (1-based vertex id)
#   b r <j> <capacity>
#   e <i> <j> <w>             (1-based endpoints, positive integer weight)
#
# Line order of edges is preserved and is the stream order.
# ---------------------------------------------------------------------------

# Largest n_l or n_r a problem line may declare. The reader allocates one
# capacity per vertex at the problem line, so a larger side is a format
# error rather than an allocation the machine cannot make.
MAX_SIDE = 2 ** 22

# Lines that ``_parse_lines`` takes from its input at a time; a group made
# only of canonical edge lines is checked and converted in bulk.
GROUP_LINES = 256
# A newline followed by neither the end of the text nor a canonical edge
# line. Canonical edge lines are what ``save_instance`` writes: "e i j w"
# with single spaces, LF, and positive decimal integers without a leading
# zero.
_NOT_CANONICAL = re.compile(r"\n(?!e [1-9][0-9]* [1-9][0-9]* [1-9][0-9]*\n|\Z)")


def read_edges(lines, header):
    """Yield (line_no, i, j, w), with 0-based endpoints, per edge line.

    Makes every check a single line allows, each error carrying its
    1-based line number, then checks that a problem line was given and
    that it declared the edge count read. Sets ``n_l``, ``n_r`` and ``m``
    on ``header`` at the problem line and the capacity tuples ``b_l`` and
    ``b_r`` once every line is read. Duplicate edges are not detected.
    """
    _start(header)
    for line_no, i, j, w in _check_lines(lines, header):
        yield line_no, i - 1, j - 1, w
    _finish(header)


def _start(header) -> None:
    """Set ``header`` to the state of a read that has seen no line."""
    header.n_l = header.n_r = header.m = header.b_l = header.b_r = None
    header.lines_read = header.edges_read = 0


def _check_lines(lines, header):
    """Yield (line_no, i, j, w), with 1-based endpoints, per edge line.

    ``lines`` continue the ``header.lines_read`` lines read so far, and
    ``header`` holds what those lines set. Each line gets every check a
    single line allows; the counts of lines and edges read are added to
    ``header`` once ``lines`` end.
    """
    n_l, n_r = header.n_l, header.n_r
    b_l, b_r = header.b_l, header.b_r
    count = header.edges_read
    line_no = header.lines_read
    for line_no, raw in enumerate(lines, start=line_no + 1):
        if not raw.isascii():
            raise InstanceFormatError("non-ASCII character", line_no)
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "e":
            if n_l is None:
                raise InstanceFormatError("edge before problem line", line_no)
            if len(fields) != 4:
                raise InstanceFormatError(f"malformed edge line {line!r}", line_no)
            try:
                i, j, w = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise InstanceFormatError(f"malformed edge line {line!r}", line_no) from None
            if not (1 <= i <= n_l and 1 <= j <= n_r):
                raise InstanceFormatError(f"edge endpoint out of range in {line!r}", line_no)
            if w < 1:
                raise InstanceFormatError(f"edge weight must be a positive integer in {line!r}", line_no)
            count += 1
            yield line_no, i, j, w
        elif tag == "p":
            if n_l is not None:
                raise InstanceFormatError("duplicate problem line", line_no)
            if len(fields) != 5 or fields[1] != "bm":
                raise InstanceFormatError(f"malformed problem line {line!r}", line_no)
            try:
                n_l, n_r, declared_m = (int(x) for x in fields[2:5])
            except ValueError:
                raise InstanceFormatError(f"malformed problem line {line!r}", line_no) from None
            if n_l < 1 or n_r < 1 or declared_m < 0:
                raise InstanceFormatError("problem line sizes out of range", line_no)
            if max(n_l, n_r) > MAX_SIDE:
                raise InstanceFormatError(
                    f"problem line side above {MAX_SIDE} vertices", line_no)
            b_l, b_r = [1] * n_l, [1] * n_r
            header.n_l, header.n_r, header.m = n_l, n_r, declared_m
            header.b_l, header.b_r = b_l, b_r
        elif tag == "b":
            if n_l is None:
                raise InstanceFormatError("capacity before problem line", line_no)
            if len(fields) != 4 or fields[1] not in ("l", "r"):
                raise InstanceFormatError(f"malformed capacity line {line!r}", line_no)
            try:
                v, cap = int(fields[2]), int(fields[3])
            except ValueError:
                raise InstanceFormatError(f"malformed capacity line {line!r}", line_no) from None
            caps, limit = (b_l, n_r) if fields[1] == "l" else (b_r, n_l)
            if not 1 <= v <= len(caps):
                raise InstanceFormatError(f"capacity vertex out of range in {line!r}", line_no)
            if not 1 <= cap <= limit:
                raise InstanceFormatError(f"capacity {cap} outside [1, {limit}]", line_no)
            caps[v - 1] = cap
        else:
            raise InstanceFormatError(f"unknown record type {tag!r}", line_no)
    header.lines_read, header.edges_read = line_no, count


def _finish(header) -> None:
    """Check, once every line is read, that a problem line was given and
    that it declared the edge count read; then fix the capacities."""
    if header.n_l is None:
        raise InstanceFormatError("missing problem line")
    if header.m != header.edges_read:
        raise InstanceFormatError(
            f"problem line declares {header.m} edges but {header.edges_read} were given")
    header.b_l, header.b_r = tuple(header.b_l), tuple(header.b_r)


def _canonical_numbers(group, header) -> list[int] | None:
    """The numbers i1, j1, w1, i2, ... of ``group``'s edge lines, when a
    problem line came before the group and every line in it is a
    canonical edge line whose endpoints are in range; otherwise None.

    Each line of ``group`` ends at its one newline, or at the end of the
    input, as a file's lines do. The group is checked by one regex
    search, which looks at the start of each line, and converted by one
    ``json.loads``. A canonical edge line passes every check of
    ``_check_lines``, which would read the same numbers from it.
    """
    if header.n_l is None:
        return None
    text = "".join(group)
    if _NOT_CANONICAL.search("\n" + text):
        return None
    try:
        numbers = json.loads("[" + text[2:-1].replace("\ne ", ",").replace(" ", ",") + "]")
    except ValueError:  # a number above int()'s digit limit
        return None
    if max(numbers[0::3]) > header.n_l or max(numbers[1::3]) > header.n_r:
        return None
    return numbers


def _parse_lines(lines) -> BipartiteInstance:
    """``_read_instance`` with the cyclic collector paused: the read makes
    a tuple per edge and no cycle, so a collection during it would only
    scan the edges read so far. The collector's state is restored after
    the read, also when it raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_instance(lines)
    finally:
        if enabled:
            gc.enable()


def _read_instance(lines) -> BipartiteInstance:
    """Read an instance. ``read_edges``' checks are made line by line;
    duplicate edges are found per bidder once the read ends, at one
    transient pointer per edge.

    The lines come from the input ``GROUP_LINES`` at a time. A group of
    canonical edge lines (``_canonical_numbers``) is checked and
    converted in bulk; any other group goes through ``_check_lines``, the
    line reader of ``read_edges``, which gives every error its message
    and line number. Either way the input is read once, so it may be a
    pipe, and the instance is the same.

    A duplicate is reported at its line, and before any error that the
    line reader raises later, as a check made line by line would. The
    line of each edge comes from the runs of consecutive edge lines: the
    first edge index and line number of each run, 16 bytes a run, and
    one run for a file ``save_instance`` wrote.

    Edges share one int object per vertex id, taken from ``ids``, instead
    of holding two new ints each, which saves 64 bytes per edge for the
    whole run.
    """
    header = SimpleNamespace()
    _start(header)
    edges: list[tuple[int, int, int]] = []
    append = edges.append
    run_edges, run_lines = array("q"), array("q")
    next_line = ids = error = numbers = None

    def start_run(line_no):
        # The first edge starts the first run, so ``ids`` is made once the
        # problem line has set the sides.
        nonlocal ids
        if ids is None:
            ids = list(range(-1, max(header.n_l, header.n_r)))
        run_edges.append(len(edges))
        run_lines.append(line_no)

    lines = iter(lines)
    try:
        while group := list(islice(lines, GROUP_LINES)):
            numbers = _canonical_numbers(group, header)
            if numbers is None:
                for line_no, i, j, w in _check_lines(group, header):
                    if line_no != next_line:
                        start_run(line_no)
                    next_line = line_no + 1
                    append((ids[i], ids[j], w))
                continue
            line_no = header.lines_read + 1
            if line_no != next_line:
                start_run(line_no)
            next_line = line_no + len(group)
            vertex = ids.__getitem__
            edges.extend(zip(map(vertex, numbers[0::3]), map(vertex, numbers[1::3]),
                             numbers[2::3]))
            header.lines_read += len(group)
            header.edges_read += len(group)
        _finish(header)
    except InstanceFormatError as exc:
        error = exc
    del append, numbers  # so that the list and the last group's numbers are freed
    edges = tuple(edges)
    k = _first_repeat(header.n_l, edges) if edges else None
    if k is not None:
        run = bisect_right(run_edges, k) - 1
        i, j, _ = edges[k]
        raise InstanceFormatError(f"duplicate edge ({i + 1}, {j + 1})",
                                  run_lines[run] + k - run_edges[run])
    if error is not None:
        raise error
    return BipartiteInstance._checked_by_reader(
        header.n_l, header.n_r, edges, header.b_l, header.b_r)


def loads_instance(text: str) -> BipartiteInstance:
    """Parse an instance from a string; errors carry 1-based line numbers.

    Lines end at LF, CR or CRLF, as when ``load_instance`` reads a file.
    """
    return _parse_lines(io.StringIO(text, newline=None))


def load_instance(path) -> BipartiteInstance:
    # ASCII: any other byte becomes a lone surrogate, which ``read_edges``
    # rejects with its line number.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return _parse_lines(fh)


def dumps_instance(inst: BipartiteInstance) -> str:
    """Canonical serialization: identical instances yield identical bytes."""
    lines = [f"p bm {inst.n_l} {inst.n_r} {inst.m}"]
    for i, b in enumerate(inst.b_l):
        if b != 1:
            lines.append(f"b l {i + 1} {b}")
    for j, b in enumerate(inst.b_r):
        if b != 1:
            lines.append(f"b r {j + 1} {b}")
    for i, j, w in inst.edges:
        lines.append(f"e {i + 1} {j + 1} {w}")
    return "\n".join(lines) + "\n"


def save_instance(inst: BipartiteInstance, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_instance(inst))


def generate_random(n_l: int, n_r: int, density: float,
                    w_range: tuple[int, int] = (1, 1),
                    b_l_range: tuple[int, int] = (1, 1),
                    b_r_range: tuple[int, int] = (1, 1),
                    seed: int = 0) -> BipartiteInstance:
    """Seed-deterministic random instance.

    Each of the n_l * n_r pairs becomes an edge independently with the given
    probability; weights and capacities are uniform over their ranges
    (capacities clamped to the opposite side's size). A zero-edge draw is
    retried once from the continuing generator state before raising.
    """
    if n_l < 1 or n_r < 1:
        raise ValueError("n_l and n_r must be at least 1")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    if w_range[0] < 1 or w_range[0] > w_range[1]:
        raise ValueError("weight range must satisfy 1 <= lo <= hi")
    for lo, hi in (b_l_range, b_r_range):
        if lo < 1 or lo > hi:
            raise ValueError("capacity range must satisfy 1 <= lo <= hi")
    rng = random.Random(seed)
    draw, randint = rng.random, rng.randint
    w_lo, w_hi = w_range
    edges: list[tuple[int, int, int]] = []
    append = edges.append
    for attempt in range(2):
        for i in range(n_l):
            for j in range(n_r):
                if draw() < density:
                    append((i, j, randint(w_lo, w_hi)))
        if edges:
            break
    if not edges:
        raise ValueError(
            f"no edges drawn for n_l={n_l} n_r={n_r} density={density} seed={seed} after one retry")
    b_l = [min(n_r, rng.randint(b_l_range[0], b_l_range[1])) for _ in range(n_l)]
    b_r = [min(n_l, rng.randint(b_r_range[0], b_r_range[1])) for _ in range(n_r)]
    return BipartiteInstance(n_l=n_l, n_r=n_r, edges=tuple(edges),
                             b_l=tuple(b_l), b_r=tuple(b_r))
