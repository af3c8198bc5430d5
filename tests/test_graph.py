"""Instance model, file format, generation, and scaling."""

import hashlib
import io
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from auctionmatch import graph
from auctionmatch.errors import InstanceFormatError
from auctionmatch.graph import (
    GROUP_LINES,
    MAX_SIDE,
    BipartiteInstance,
    Epsilon,
    _parse_lines,
    ceil_log,
    dumps_instance,
    generate_random,
    load_instance,
    loads_instance,
    read_edges,
    save_instance,
    scale_and_prune,
)


# Small numbers only: a mutated problem line allocates its sizes.
_TOKENS = ("p", "bm", "e", "b", "l", "r", "c", "x", "-1", "0", "1", "2", "3",
           "01", "12", "a", "1.5", "\u00e9", "\t", "")


@st.composite
def _instance_texts(draw):
    n_l, n_r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pairs = draw(st.lists(st.tuples(st.integers(1, n_l), st.integers(1, n_r)),
                          unique=True, max_size=5))
    lines = [f"p bm {n_l} {n_r} {len(pairs)}"]
    lines += [f"b {side} 1 {draw(st.integers(1, 2))}"
              for side in draw(st.lists(st.sampled_from("lr"), max_size=2))]
    lines += [f"e {i} {j} {draw(st.integers(1, 9))}" for i, j in pairs]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(("token", "insert", "delete", "repeat")))
        if op == "insert" or not lines:
            lines.insert(at, " ".join(draw(st.lists(st.sampled_from(_TOKENS),
                                                    max_size=5))))
            continue
        at = min(at, len(lines) - 1)
        if op == "delete":
            del lines[at]
        elif op == "repeat":
            lines.insert(at, lines[at])
        else:
            fields = lines[at].split(" ")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_TOKENS))
            lines[at] = " ".join(fields)
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return newline.join(lines) + newline


def test_epsilon_accepts_unit_fractions():
    assert str(Epsilon(8)) == "1/8"
    assert Epsilon.parse("1/16").k == 16


@pytest.mark.parametrize("bad", ["2/4", "1/1", "0.25", "1/x", "1", "1/-2"])
def test_epsilon_rejects_non_unit_fractions(bad):
    with pytest.raises(ValueError):
        Epsilon.parse(bad)


def test_epsilon_rejects_small_k():
    with pytest.raises(ValueError):
        Epsilon(1)


def test_ceil_log_exact_cases():
    assert ceil_log(2, 1) == 0
    assert ceil_log(2, 2) == 1
    assert ceil_log(2, 3) == 2
    assert ceil_log(4, 16) == 2
    assert ceil_log(4, 17) == 3
    assert ceil_log(8, 1000, 10) == 3  # 8**2 = 64 < 100 <= 512


@pytest.mark.parametrize("args", [(2, 0), (2, -3), (2, 1, 0), (2, 4, -1)])
def test_ceil_log_rejects_non_positive_ratio(args):
    with pytest.raises(ValueError, match="^ceil_log needs a positive ratio$"):
        ceil_log(*args)


def test_edgeless_instance_has_no_weight_extremes():
    inst = BipartiteInstance.build(2, 3, [])
    with pytest.raises(ValueError, match="^instance has no edges$"):
        inst.w_max
    with pytest.raises(ValueError, match="^instance has no edges$"):
        inst.w_min


def test_instance_rejects_bad_shapes():
    with pytest.raises(ValueError):
        BipartiteInstance.build(0, 1, [])
    with pytest.raises(ValueError):
        BipartiteInstance.build(1, 1, [(0, 0, 0)])
    with pytest.raises(ValueError):
        BipartiteInstance.build(1, 1, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError):
        BipartiteInstance.build(1, 2, [(0, 2, 1)])
    with pytest.raises(ValueError):
        BipartiteInstance.build(1, 1, [(0, 0, 1)], b_l=[2])


def test_instance_errors_name_the_first_bad_edge():
    # (0, 2) and (1, 0) are distinct pairs that a duplicate key packed on
    # the wrong side's width (2 here, not n_r = 3) would confuse
    BipartiteInstance.build(2, 3, [(0, 2, 1), (1, 0, 1)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(1, 0\)$"):
        BipartiteInstance.build(2, 3, [(1, 0, 1), (0, 2, 1), (1, 0, 5)])
    with pytest.raises(ValueError, match=r"^edge \(0, 3\) endpoint out of range$"):
        BipartiteInstance.build(2, 3, [(0, 3, 1), (0, 3, 1)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
        BipartiteInstance.build(2, 3, [(1, 2, 1), (0, 0, 1), (1, 2, 1), (0, 3, 1)])
    with pytest.raises(ValueError, match=r"^edge \(1, 1\) has non-positive weight 0$"):
        BipartiteInstance.build(2, 3, [(1, 1, 0)])
    with pytest.raises(ValueError, match=r"^item 2 capacity 3 outside \[1, 2\]$"):
        BipartiteInstance.build(2, 3, [], b_r=[1, 1, 3])


@pytest.mark.parametrize("edge,message", [
    ((0, 0.5, 1), r"^edge \(0, 0\.5\) has a non-integer endpoint$"),
    ((0.0, 1, 1), r"^edge \(0\.0, 1\) has a non-integer endpoint$"),
    ((0, 1, 1.5), r"^edge \(0, 1\) has non-integer weight 1\.5$"),
])
def test_instance_rejects_non_integer_edges(edge, message):
    # built directly, as ``build`` would cast the fields to int first
    def direct(edges):
        return BipartiteInstance(2, 2, tuple(edges), (1, 1), (1, 1))

    with pytest.raises(ValueError, match=message):
        direct([edge])
    with pytest.raises(ValueError, match=message):
        direct([(1, 0, 1), edge, (1, 0, 1)])
    # a duplicate before the bad edge is the one named
    with pytest.raises(ValueError, match=r"^duplicate edge \(1, 0\)$"):
        direct([(1, 0, 1), (1, 0, 2), edge])


def test_roundtrip_preserves_edge_order():
    inst = BipartiteInstance.build(
        3, 2, [(2, 0, 5), (0, 1, 1), (1, 0, 7)], b_l=[1, 2, 1], b_r=[2, 1])
    again = loads_instance(dumps_instance(inst))
    assert again == inst
    assert again.edges == inst.edges


def test_load_save_roundtrip(tmp_path):
    inst = generate_random(6, 5, 0.5, w_range=(1, 30), seed=2)
    path = tmp_path / "g.gr"
    save_instance(inst, path)
    assert load_instance(path) == inst


@pytest.mark.parametrize("params", [
    dict(n_l=6, n_r=9, density=0.9, seed=1),
    dict(n_l=9, n_r=6, density=0.5, w_range=(1, 10 ** 6), seed=2),
    dict(n_l=7, n_r=7, density=0.6, b_l_range=(1, 4), b_r_range=(1, 5), seed=3),
    dict(n_l=300, n_r=280, density=0.02, w_range=(1, 1000), seed=4),
])
def test_loader_reads_back_generated_instances(params):
    inst = generate_random(**params)
    loaded = loads_instance(dumps_instance(inst))
    assert loaded == inst
    # one int object per vertex id, shared by its edges
    endpoints = {id(v) for i, j, _ in loaded.edges for v in (i, j)}
    assert len(endpoints) <= max(inst.n_l, inst.n_r)


def test_duplicate_edge_is_a_format_error_at_its_line():
    text = "c dup\np bm 3 2 3\ne 3 2 4\ne 1 1 1\n\ne 3 2 7\n"
    with pytest.raises(InstanceFormatError) as info:
        loads_instance(text)
    assert str(info.value) == "line 6: duplicate edge (3, 2)"
    assert info.value.line_no == 6


@pytest.mark.parametrize("text,line_no,message", [
    # the first repeat in file order, not in bidder order
    ("p bm 2 2 4\ne 1 1 1\ne 2 2 1\ne 2 2 3\ne 1 1 1\n", 4,
     "duplicate edge (2, 2)"),
    ("p bm 2 2 3\ne 1 1 1\ne 1 1 2\ne 1 x 1\n", 3, "duplicate edge (1, 1)"),
    ("p bm 2 2 5\ne 1 2 1\ne 2 1 1\ne 1 2 3\n", 4, "duplicate edge (1, 2)"),
    ("p bm 2 2 3\ne 1 1 1\ne 1 y 1\ne 1 1 1\n", 3,
     "malformed edge line 'e 1 y 1'"),
    ("c a\np bm 3 3 4\ne 1 1 1\n\nc mid\ne 2 2 1\ne 3 3 1\nc x\n\n\n"
     "e 2 2 5\n", 11, "duplicate edge (2, 2)"),
], ids=["file-order", "before-malformed", "before-count", "after-malformed",
        "comments-between"])
@pytest.mark.parametrize("parse", [
    loads_instance,
    lambda text: _parse_lines(iter(text.splitlines(keepends=True))),
], ids=["string", "one-shot-iterator"])
def test_duplicate_edge_comes_before_any_later_error(parse, text, line_no, message):
    with pytest.raises(InstanceFormatError) as info:
        parse(text)
    assert (info.value.line_no, str(info.value)) == (line_no, f"line {line_no}: {message}")


def _packed_key_parse(lines):
    """A loader that checks each edge for a duplicate as it is read, with
    one packed key per edge in a set: the reference that the per-bidder
    check after the read must agree with."""
    header = SimpleNamespace()
    edges = []
    seen = set()
    for line_no, i, j, w in read_edges(lines, header):
        key = i * header.n_r + j
        if key in seen:
            raise InstanceFormatError(f"duplicate edge ({i + 1}, {j + 1})", line_no)
        seen.add(key)
        edges.append((i, j, w))
    return BipartiteInstance._checked_by_reader(
        header.n_l, header.n_r, tuple(edges), header.b_l, header.b_r)


@st.composite
def _texts_with_repeats(draw):
    # _instance_texts repeats a line only now and then; copy up to two
    # edge lines to later places, so that more texts hold a duplicate
    # edge, before or after another error, and break the runs of edge
    # lines with comment and blank lines
    lines = draw(_instance_texts()).splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 2))):
        edge_lines = [k for k, line in enumerate(lines) if line.startswith("e ")]
        if not edge_lines:
            break
        at = draw(st.sampled_from(edge_lines))
        lines.insert(draw(st.integers(at + 1, len(lines))), lines[at])
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("c\n", "\n"))))
    return "".join(lines)


def _outcome(parse):
    try:
        return parse()
    except InstanceFormatError as exc:
        return exc.line_no, str(exc)


# Groups of two and three lines put group boundaries inside these short
# texts, so that a text's lines are read partly in bulk, partly by the
# line reader, and a duplicate can sit in another group than its first.
_GROUP_SIZES = st.sampled_from((2, 3, GROUP_LINES))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=_texts_with_repeats(), group_lines=_GROUP_SIZES)
def test_loader_agrees_with_packed_key_reference(text, group_lines):
    reference = _outcome(lambda: _packed_key_parse(io.StringIO(text, newline=None)))
    with mock.patch.object(graph, "GROUP_LINES", group_lines):
        assert _outcome(lambda: loads_instance(text)) == reference


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=_instance_texts(), group_lines=_GROUP_SIZES)
def test_load_instance_agrees_with_loads_instance(tmp_path_factory, text, group_lines):
    # the file holds the text's UTF-8 bytes and its LF, CRLF or CR endings
    path = tmp_path_factory.getbasetemp() / "mutated.gr"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(graph, "GROUP_LINES", group_lines):
        assert _outcome(lambda: load_instance(path)) == _outcome(lambda: loads_instance(text))


_HEAD = b"p bm 3 3 4\ne 1 1 5\n"
# (file bytes, the lines of the groups of two that the line reader reads)
_GROUPED_FILES = {
    "canonical": (_HEAD + b"e 2 3 7\ne 3 2 1\ne 1 2 9\n", [1, 2]),
    "comment-in-group": (_HEAD + b"e 2 3 7\nc x\ne 3 2 1\ne 1 2 9\n", [1, 2, 3, 4]),
    "blank-line": (_HEAD + b"e 2 3 7\ne 3 2 1\n\ne 1 2 9\n", [1, 2, 5, 6]),
    "duplicate-bulk-bulk": (_HEAD + b"e 2 3 7\ne 3 2 1\ne 2 3 9\n", [1, 2]),
    "duplicate-bulk-line": (_HEAD + b"e 2 3 7\ne 3 2 1\ne 2  3 9\n", [1, 2, 5]),
    "duplicate-line-bulk": (b"p bm 3 3 4\ne 2 3 7\ne 1 1 5\ne 3 2 1\ne 2 3 9\n", [1, 2]),
    "leading-zero-endpoint": (_HEAD + b"e 01 3 7\ne 3 2 1\ne 1 2 9\n", [1, 2, 3, 4]),
    "leading-zero-weight": (_HEAD + b"e 2 3 7\ne 3 2 01\ne 1 2 9\n", [1, 2, 3, 4]),
    "extra-space": (_HEAD + b"e 2 3 7\ne 3 2 1\ne 1  2 9\n", [1, 2, 5]),
    "trailing-space": (_HEAD + b"e 2 3 7 \ne 3 2 1\ne 1 2 9\n", [1, 2, 3, 4]),
    "tab": (_HEAD + b"e 2 3 7\ne 3\t2 1\ne 1 2 9\n", [1, 2, 3, 4]),
    # read as a text file, every line ends in LF before it is grouped
    "crlf": (_HEAD.replace(b"\n", b"\r\n") + b"e 2 3 7\r\ne 3 2 1\r\ne 1 2 9\r\n", [1, 2]),
    "cr": (_HEAD.replace(b"\n", b"\r") + b"e 2 3 7\re 3 2 1\re 1 2 9\r", [1, 2]),
    "no-final-newline": (_HEAD + b"e 2 3 7\ne 3 2 1\ne 1 2 9", [1, 2, 5]),
    "non-ascii": (_HEAD + b"e 2 3 7\ne 3 2 1\xe9\ne 1 2 9\n", [1, 2, 3, 4]),
    "edge-before-problem-line": (b"c\nc\ne 1 1 5\ne 2 3 7\np bm 3 3 2\n", [1, 2, 3, 4]),
    "bidder-out-of-range": (_HEAD + b"e 2 3 7\ne 4 2 1\ne 1 2 9\n", [1, 2, 3, 4]),
    "item-out-of-range": (_HEAD + b"e 2 4 7\ne 3 2 1\ne 1 2 9\n", [1, 2, 3, 4]),
    "zero-bidder": (_HEAD + b"e 2 3 7\ne 0 2 1\ne 1 2 9\n", [1, 2, 3, 4]),
    "zero-item": (_HEAD + b"e 2 0 7\ne 3 2 1\ne 1 2 9\n", [1, 2, 3, 4]),
    "zero-weight": (_HEAD + b"e 2 3 7\ne 3 2 0\ne 1 2 9\n", [1, 2, 3, 4]),
    # json.loads, like int(), refuses a number of more than 4300 digits
    "weight-above-digit-limit": (
        _HEAD + b"e 2 3 7\ne 3 2 1" + b"0" * 4300 + b"\ne 1 2 9\n", [1, 2, 3, 4]),
    "fewer-edges-than-declared": (_HEAD + b"e 2 3 7\ne 3 2 1\n", [1, 2]),
}


@pytest.mark.parametrize("data,read_by_line", _GROUPED_FILES.values(),
                         ids=_GROUPED_FILES.keys())
def test_grouped_read_agrees_with_line_reader(tmp_path, monkeypatch, data, read_by_line):
    # the same instance or the same error, at the same line, as the line
    # reader alone; only groups that are not all canonical edge lines, or
    # that come before the problem line, are read line by line
    path = tmp_path / "g.gr"
    path.write_bytes(data)
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        reference = _outcome(lambda: _packed_key_parse(fh))
    monkeypatch.setattr(graph, "GROUP_LINES", 2)
    check_lines = graph._check_lines
    line_read = []

    def spy(group, header):
        line_read.extend(range(header.lines_read + 1, header.lines_read + 1 + len(group)))
        return check_lines(group, header)

    monkeypatch.setattr(graph, "_check_lines", spy)
    assert _outcome(lambda: load_instance(path)) == reference
    assert line_read == read_by_line


def test_grouped_read_shares_one_int_per_vertex_id(monkeypatch):
    # the edges of bulk groups and of the line reader's groups hold the
    # same int object for each vertex id
    inst = generate_random(40, 30, 0.2, w_range=(1, 50), seed=6)
    lines = dumps_instance(inst).splitlines(keepends=True)
    for k in range(7, len(lines), 9):
        lines[k] = lines[k].replace(" ", "  ", 1)
    monkeypatch.setattr(graph, "GROUP_LINES", 4)
    loaded = loads_instance("".join(lines))
    assert loaded == inst
    objects: dict[int, set[int]] = {}
    for i, j, _ in loaded.edges:
        for v in (i, j):
            objects.setdefault(v, set()).add(id(v))
    assert all(len(ids) == 1 for ids in objects.values())


def test_load_peaks_little_above_what_it_keeps(tmp_path):
    inst = generate_random(1152, 1024, 8 / 1024, seed=5)
    path = tmp_path / "g.gr"
    save_instance(inst, path)
    load_instance(path)  # first-call caches stay out of the measurement
    tracemalloc.start()
    try:
        loaded = load_instance(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == inst
    # the edge list, the per-bidder rows and the run table cost about 20
    # bytes per edge; one duplicate key per edge in a set would cost 99
    assert (peak - kept) / inst.m < 40


# sha256 of dumps_instance for each seeded configuration, as first drawn;
# a change to the generator's draws changes every instance built from a seed.
GENERATED_DIGESTS = [
    (dict(n_l=64, n_r=48, density=0.2, seed=11),
     "65b64963d5d5d3554c650ad5a2bb358e5a79c1b2727fc5861122fed511c67624"),
    (dict(n_l=40, n_r=50, density=0.3, w_range=(1, 1000), seed=12),
     "daea972a8fceacfccc728eb3be5d477be924d6bf3cacfdbc328a6f78747a37ff"),
    (dict(n_l=30, n_r=30, density=0.25, w_range=(1, 9), b_l_range=(1, 4),
          b_r_range=(1, 3), seed=13),
     "e7e33ec37958a563c2e7b48df82a21f66efd7d76625ee9d3501d2cffe0fe4182"),
]


@pytest.mark.parametrize("params,digest", GENERATED_DIGESTS,
                         ids=["unit", "weighted", "capacitated"])
def test_generator_draws_are_pinned(params, digest):
    text = dumps_instance(generate_random(**params))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_format_errors_carry_line_numbers():
    with pytest.raises(InstanceFormatError, match="line 1"):
        loads_instance("q bm 1 1 0\n")
    with pytest.raises(InstanceFormatError, match="line 2"):
        loads_instance("p bm 1 1 1\ne 1 1\n")
    with pytest.raises(InstanceFormatError, match="declares"):
        loads_instance("p bm 1 1 2\ne 1 1 1\n")


# (text, line of the error or None for one found at the end, fragment)
_FILE_ERRORS = [
    ("e 1 1 1\n", 1, "edge before"),
    ("b l 1 2\n", 1, "capacity before"),
    ("p bm 1 1\n", 1, "malformed problem"),
    ("p bm 1 1 1\nq 0\n", 2, "unknown record"),
    ("p bm 1 1 1\ne 1 1\n", 2, "malformed edge"),
    ("p bm 2 2 2\ne 1 1 1\n", None, "declares"),
    ("p bm 1 1 1\ne 2 1 1\n", 2, "line 2: edge endpoint out of range"),
    ("p bm 1 1 1\nb l 1 0\ne 1 1 1\n", 2, "line 2: capacity 0 outside"),
    ("p bm 1 2 1\nb x 1 2\ne 1 1 1\n", 2, "line 2: malformed capacity"),
    ("p bm 1 1 1\ne 1 a 5\n", 2, "line 2: malformed edge"),
    ("p bm 1 1 1\ne 1 1 0\n", 2, "line 2: edge weight"),
    ("p bm 1 1 1\np bm 1 1 1\ne 1 1 1\n", 2, "line 2: duplicate problem"),
    (f"c big\np bm {10 ** 18} 1 0\n", 2, "line 2: problem line side above"),
    (f"p bm 1 {10 ** 18} 0\n", 1, "line 1: problem line side above"),
    ("c caf\u00e9\np bm 1 1 1\ne 1 1 1\n", 1, "line 1: non-ASCII"),
]


@pytest.mark.parametrize("text,line_no,fragment", _FILE_ERRORS,
                         ids=[fragment for _, _, fragment in _FILE_ERRORS])
def test_load_instance_file_errors(tmp_path, text, line_no, fragment):
    # load_instance reads the file as ASCII, so a UTF-8 byte is an error
    path = tmp_path / "bad.gr"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(InstanceFormatError, match=fragment) as info:
        load_instance(path)
    assert info.value.line_no == line_no


@pytest.mark.parametrize("record", ["b l 3 1", "b l 0 1", "b r 4 1", "b r -1 1"])
def test_capacity_vertex_out_of_range_is_a_format_error(record):
    # 2 bidders and 3 items; the record sits on line 3
    with pytest.raises(InstanceFormatError,
                       match=f"^line 3: capacity vertex out of range in '{record}'$"):
        loads_instance(f"p bm 2 3 1\ne 1 1 1\n{record}\n")


@pytest.mark.parametrize("header", [
    f"p bm {MAX_SIDE + 1} 1 0", f"p bm 1 {MAX_SIDE + 1} 0",
    f"p bm {10 ** 18} 1 0", f"p bm {10 ** 18} {10 ** 18} 0",
])
def test_problem_line_side_above_limit_is_a_format_error(header):
    # one past the limit, and far beyond any size the reader could
    # allocate capacities for
    with pytest.raises(InstanceFormatError, match="line 2: problem line side above"):
        loads_instance(f"c big\n{header}\n")


@pytest.mark.parametrize("kwargs,message", [
    ({"density": 0.0}, "density must be in"),
    ({"density": 1.5}, "density must be in"),
    ({"w_range": (0, 3)}, "weight range must satisfy"),
    ({"w_range": (5, 3)}, "weight range must satisfy"),
    ({"b_l_range": (0, 2)}, "capacity range must satisfy"),
    ({"b_r_range": (3, 2)}, "capacity range must satisfy"),
])
def test_generator_rejects_bad_parameters(kwargs, message):
    with pytest.raises(ValueError, match=message):
        generate_random(**{"n_l": 4, "n_r": 4, "density": 0.5, **kwargs})


def test_generator_is_deterministic_and_in_range():
    a = generate_random(8, 7, 0.4, w_range=(3, 9), b_l_range=(1, 3), seed=5)
    b = generate_random(8, 7, 0.4, w_range=(3, 9), b_l_range=(1, 3), seed=5)
    c = generate_random(8, 7, 0.4, w_range=(3, 9), b_l_range=(1, 3), seed=6)
    assert a == b
    assert a != c
    assert all(3 <= w <= 9 for _, _, w in a.edges)
    assert all(1 <= cap <= 3 for cap in a.b_l)
    assert all(cap == 1 for cap in a.b_r)


def test_scale_keeps_unit_weights_whole():
    inst = BipartiteInstance.build(2, 2, [(0, 0, 1), (1, 1, 1)])
    sg = scale_and_prune(inst, Epsilon(4))
    assert sg.w_max == 1
    assert sg.m == 2
    assert sg.pruned_count == 0
    assert sg.bucket_count == 0


def test_prune_threshold_branches_on_edge_count_vs_spread():
    # m * w_min <= w_max: exponent from the edge count, m=2 -> t=2
    inst = BipartiteInstance.build(
        2, 2, [(0, 0, 1000), (1, 1, 1)])
    sg = scale_and_prune(inst, Epsilon(2))
    assert sg.prune_exponent == 2
    assert sg.m == 1  # 1 * 2**2 < 1000: the light edge goes

    # m * w_min > w_max: exponent from the weight spread, t = ceil_log(9/5)+1
    dense = BipartiteInstance.build(
        4, 4, [(0, 0, 5), (1, 1, 5), (2, 2, 5), (3, 3, 9)])
    sg2 = scale_and_prune(dense, Epsilon(2))
    assert sg2.prune_exponent == 2
    assert sg2.m == 4  # 5 * 4 >= 9: everything clears


def test_prune_drops_tiny_edges():
    edges = [(0, 0, 10**6)] + [(1, k + 1, 1) for k in range(3)]
    inst = BipartiteInstance.build(2, 4, edges)
    sg = scale_and_prune(inst, Epsilon(2))
    # m=4, m*w_min=4 <= w_max: t = ceil_log(2, 4) + 1 = 3; 1*8 < 10**6 pruned
    assert sg.prune_exponent == 3
    assert sg.m == 1
    assert sg.pruned_count == 3
    assert sg.edges == ((0, 0, 10**6),)


def test_scale_rejects_empty():
    inst = BipartiteInstance.build(2, 2, [])
    with pytest.raises(ValueError):
        scale_and_prune(inst, Epsilon(2))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 9),
    density=st.floats(0.1, 0.9),
    wmax=st.integers(1, 10**5),
    k=st.sampled_from([2, 4, 8]),
    seed=st.integers(0, 10**6),
)
def test_survivors_always_clear_the_threshold(n, density, wmax, k, seed):
    try:
        inst = generate_random(n, n, density, w_range=(1, wmax), seed=seed)
    except ValueError:
        return  # zero-edge draw
    sg = scale_and_prune(inst, Epsilon(k))
    power = k ** sg.prune_exponent
    assert all(w * power >= sg.w_max for _, _, w in sg.edges)
    assert sg.pruned_count == inst.m - sg.m
    survivor_set = set(sg.edges)
    dropped = [e for e in inst.edges if e not in survivor_set]
    assert all(w * power < sg.w_max for _, _, w in dropped)
