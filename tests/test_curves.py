import contextlib
import math
import os
import signal
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvejoin import (
    Curve,
    Dataset,
    ParseError,
    densify,
    longest_edge,
    parse_series_1d,
    parse_trajectories_2d,
    simplify,
    write_series_1d,
    write_trajectories_2d,
)
from curvejoin import curves
from curvejoin.curves import DENSIFY_MAX_VERTICES, _dist, read_trajectory_2d
from helpers import (
    curve,
    curve1,
    random_walk_curve,
    series_rows_oracle,
    trajectory_rows_oracle,
)


class TestCurve:
    def test_flat_input_becomes_one_dimensional(self):
        c = Curve(0, np.array([1.0, 2.0, 3.0]))
        assert c.vertices.shape == (3, 1)
        assert c.dim == 1
        assert len(c) == 3

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            Curve(0, np.empty((0, 2)))
        with pytest.raises(ValueError):
            Curve(0, np.array([[0.0, float("nan")]]))
        with pytest.raises(ValueError):
            Curve(0, np.array([[math.inf]]))

    def test_vertices_are_immutable(self):
        c = curve(0, [[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            c.vertices[0, 0] = 5.0

    def test_consecutive_duplicates_allowed(self):
        c = curve1(0, [1.0, 1.0, 2.0])
        assert len(c) == 3


class TestDataset:
    def test_ids_must_be_dense(self):
        with pytest.raises(ValueError):
            Dataset([curve1(0, [0.0]), curve1(2, [1.0])])
        with pytest.raises(ValueError):
            Dataset([curve1(0, [0.0]), curve1(0, [1.0])])

    def test_dimensions_must_agree(self):
        with pytest.raises(ValueError):
            Dataset([curve1(0, [0.0]), curve(1, [[0.0, 1.0]])])

    def test_lookup_by_id_out_of_order(self):
        ds = Dataset([curve1(1, [1.0]), curve1(0, [0.0])])
        assert ds[0].vertices[0, 0] == 0.0
        assert ds[1].vertices[0, 0] == 1.0
        assert ds.n == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset([])


class TestGeometryHelpers:
    def test_bounding_box(self):
        # the lower corner, then the upper corner
        c = curve(0, [[0.0, 5.0], [-1.0, 2.0], [3.0, 3.0]])
        assert c._corners == (-1.0, 2.0, 3.0, 5.0)

    def test_longest_edge(self):
        # edges: 3-4-5 triangle leg (5.0) then a unit step
        c = curve(0, [[0.0, 0.0], [3.0, 4.0], [3.0, 5.0]])
        assert longest_edge(c) == 5.0
        assert longest_edge(curve1(0, [7.0])) == 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_vertex_distance_is_the_coordinate_order_sum(self, d):
        # _dist's bits equal the array form sqrt(dx*dx + dy*dy + ...), summed
        # column by column, which np.linalg.norm does not always match
        rng = np.random.default_rng(70 + d)
        A = rng.normal(size=(4000, d)) * rng.uniform(0.1, 10.0, size=(4000, d))
        B = rng.normal(size=(4000, d))
        diff = A - B
        sq = diff[:, 0] * diff[:, 0]
        for u in range(1, d):
            sq = sq + diff[:, u] * diff[:, u]
        want = np.sqrt(sq).tolist()
        assert [_dist(a, b) for a, b in zip(A.tolist(), B.tolist())] == want


class TestSimplify:
    def test_hand_worked_example(self):
        # start at 0; 0.5 within mu; 1.2 marked; 3.0 marked; 3.3 kept as tail
        c = curve1(0, [0.0, 0.5, 1.2, 3.0, 3.3])
        s = simplify(c, 1.0)
        assert s.vertices[:, 0].tolist() == [0.0, 1.2, 3.0, 3.3]

    def test_mu_zero_drops_consecutive_duplicates(self):
        c = curve1(0, [1.0, 1.0, 2.0, 2.0, 3.0])
        s = simplify(c, 0.0)
        assert s.vertices[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_endpoints_always_kept(self):
        c = curve1(0, [0.0, 0.1, 0.2])
        s = simplify(c, 10.0)
        assert s.vertices[:, 0].tolist() == [0.0, 0.2]

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            simplify(curve1(0, [0.0]), -0.1)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="mu"):
            simplify(curve1(0, [0.0, 1.0, 2.0]), mu)

    def test_output_is_subsequence(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = random_walk_curve(rng, 0, int(rng.integers(1, 30)), 2)
            s = simplify(c, float(rng.uniform(0.0, 3.0)))
            i = 0
            for v in s.vertices:
                while i < len(c) and not np.array_equal(c.vertices[i], v):
                    i += 1
                assert i < len(c), "simplified vertex not found in order"
                i += 1

    def test_stays_within_mu_of_original(self):
        from curvejoin import decide_continuous

        rng = np.random.default_rng(8)
        for _ in range(40):
            c = random_walk_curve(rng, 0, int(rng.integers(2, 20)), 2)
            mu = float(rng.uniform(0.1, 2.0))
            s = simplify(c, mu)
            assert decide_continuous(c, s, mu)


class TestDensify:
    def test_respects_max_edge_and_keeps_original_vertices(self):
        c = curve(0, [[0.0, 0.0], [10.0, 0.0], [10.0, 1.0]])
        d = densify(c, 3.0)
        assert longest_edge(d) <= 3.0 + 1e-12
        got = {tuple(v) for v in np.round(d.vertices, 9).tolist()}
        for v in c.vertices:
            assert tuple(np.round(v, 9).tolist()) in got

    def test_identical_polyline(self):
        from curvejoin import decide_continuous

        rng = np.random.default_rng(9)
        for _ in range(20):
            c = random_walk_curve(rng, 0, int(rng.integers(2, 12)), 2)
            d = densify(c, 0.5)
            assert decide_continuous(c, d, 1e-9)

    def test_single_vertex_passthrough(self):
        c = curve1(0, [4.0])
        assert densify(c, 1.0) is c

    def test_nonpositive_max_edge_rejected(self):
        with pytest.raises(ValueError):
            densify(curve1(0, [0.0, 1.0]), 0.0)

    @pytest.mark.parametrize("max_edge", [math.nan, math.inf])
    def test_non_finite_max_edge_rejected(self, max_edge):
        with pytest.raises(ValueError, match="max_edge"):
            densify(curve1(0, [0.0, 1.0]), max_edge)

    def test_output_up_to_the_cap_is_made(self):
        # DENSIFY_MAX_VERTICES - 1 unit edges: exactly the cap
        c = curve1(0, [0.0, float(DENSIFY_MAX_VERTICES - 1)])
        assert len(densify(c, 1.0)) == DENSIFY_MAX_VERTICES

    @pytest.mark.parametrize("values, max_edge", [
        ([0.0, float(DENSIFY_MAX_VERTICES)], 1.0),  # one vertex past the cap
        ([0.0, 1.0, 2.0], 1e-9),
        ([0.0, 1.0], 5e-324),  # the length ratio overflows to inf
    ])
    def test_output_past_the_cap_is_refused(self, values, max_edge):
        with pytest.raises(ValueError, match="more than"):
            densify(curve1(0, values), max_edge)


class TestSeriesFormat:
    def test_parse_basic(self, tmp_path):
        f = tmp_path / "series.txt"
        f.write_text("1.0, 2.0 3\n\n4 5\n")
        ds = parse_series_1d(f)
        assert ds.n == 2
        assert ds[0].vertices[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert ds[1].vertices[:, 0].tolist() == [4.0, 5.0]

    def test_skip_first_field(self, tmp_path):
        f = tmp_path / "labeled.txt"
        f.write_text("7 1.5 2.5\n3 0.5\n")
        ds = parse_series_1d(f, skip_first_field=True)
        assert ds[0].vertices[:, 0].tolist() == [1.5, 2.5]
        assert ds[1].vertices[:, 0].tolist() == [0.5]

    def test_error_names_line_and_column(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1.0 2.0\n3.0 oops 5.0\n")
        with pytest.raises(ParseError, match=r"bad\.txt:2:2.*oops"):
            parse_series_1d(f)

    def test_nonfinite_rejected(self, tmp_path):
        f = tmp_path / "naughty.txt"
        f.write_text("1.0 nan\n")
        with pytest.raises(ParseError, match="non-finite"):
            parse_series_1d(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("\n\n")
        with pytest.raises(ParseError, match="no curves"):
            parse_series_1d(f)

    def test_label_only_line_rejected(self, tmp_path):
        f = tmp_path / "lonely.txt"
        f.write_text("7\n")
        with pytest.raises(ParseError, match="empty curve"):
            parse_series_1d(f, skip_first_field=True)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        curves = [
            random_walk_curve(rng, i, int(rng.integers(1, 15)), 1)
            for i in range(6)
        ]
        ds = Dataset(curves)
        out = tmp_path / "rt.txt"
        write_series_1d(ds, out)
        back = parse_series_1d(out)
        assert back.n == ds.n
        for c in ds:
            assert np.array_equal(back[c.id].vertices, c.vertices)


class TestTrajectoryFormat:
    def _write(self, tmp_path, rows_by_name):
        names = []
        for name, rows in rows_by_name.items():
            (tmp_path / name).write_text(
                "".join(f"{x} {y}\n" for x, y in rows)
            )
            names.append(name)
        lst = tmp_path / "files.txt"
        lst.write_text("".join(n + "\n" for n in names))
        return lst

    def test_parse_and_relative_paths(self, tmp_path):
        lst = self._write(
            tmp_path,
            {"a.txt": [(0.0, 0.0), (1.0, 2.0)], "b.txt": [(5.0, 5.0)]},
        )
        ds = parse_trajectories_2d(lst)
        assert ds.n == 2 and ds.d == 2
        assert ds[0].vertices.tolist() == [[0.0, 0.0], [1.0, 2.0]]
        assert ds[1].vertices.tolist() == [[5.0, 5.0]]

    def test_comments_and_blanks_ignored(self, tmp_path):
        (tmp_path / "a.txt").write_text("# header\n1 2\n\n3 4\n")
        lst = tmp_path / "files.txt"
        lst.write_text("a.txt\n")
        ds = parse_trajectories_2d(lst)
        assert ds[0].vertices.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_error_names_file_line_and_column(self, tmp_path):
        (tmp_path / "a.txt").write_text("1 2\n3 oops\n")
        lst = tmp_path / "files.txt"
        lst.write_text("a.txt\n")
        with pytest.raises(ParseError, match=r"a\.txt:2:2: non-numeric field 'oops'"):
            parse_trajectories_2d(lst)

    def test_wrong_field_count(self, tmp_path):
        (tmp_path / "a.txt").write_text("1 2 3\n")
        lst = tmp_path / "files.txt"
        lst.write_text("a.txt\n")
        with pytest.raises(ParseError, match=r"a\.txt:1.*fields"):
            parse_trajectories_2d(lst)

    def test_missing_file(self, tmp_path):
        lst = tmp_path / "files.txt"
        lst.write_text("ghost.txt\n")
        with pytest.raises(ParseError, match="not found"):
            parse_trajectories_2d(lst)

    @pytest.mark.skipif(not hasattr(os, "mkfifo") or not hasattr(signal, "SIGALRM"),
                        reason="needs POSIX FIFOs and alarms")
    def test_fifo_is_not_a_trajectory_file(self, tmp_path):
        # opening a FIFO for reading blocks until a writer appears, so the
        # entry must be refused before any open; the alarm turns a hang
        # into a failure
        os.mkfifo(tmp_path / "pipe")
        lst = tmp_path / "files.txt"
        lst.write_text("pipe\n")

        def hung(signum, frame):
            raise TimeoutError("parse_trajectories_2d blocked on a FIFO")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            with pytest.raises(ParseError, match="trajectory file not found"):
                parse_trajectories_2d(lst)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("relative_list", [False, True])
    def test_entry_forms_and_error_texts(self, tmp_path, monkeypatch, relative_list):
        # Entries resolve by a string join; error texts print each path as
        # pathlib prints the list file's parent joined with the entry.
        (tmp_path / "a.txt").write_text("1 2\n")
        (tmp_path / "bad.txt").write_text("1 2\n3 oops\n")
        (tmp_path / "sub").mkdir()
        lst = tmp_path / "files.txt"
        if relative_list:
            monkeypatch.chdir(tmp_path)
            lst_arg = "./files.txt"
        else:
            lst_arg = str(lst)

        def resolved(entry):
            return Path(lst_arg).parent / Path(entry)

        for entries, want in [
            (["./a.txt", str(tmp_path / "a.txt"), "a.txt"], None),
            (["a.txt", "ghost.txt"],
             f"{Path(lst_arg)}: trajectory file not found: {resolved('ghost.txt')}"),
            (["./sub"], f"{Path(lst_arg)}: trajectory file not found: {resolved('./sub')}"),
            (["sub/"], f"{Path(lst_arg)}: trajectory file not found: {resolved('sub/')}"),
            (["./bad.txt"], f"{resolved('./bad.txt')}:2:2: non-numeric field 'oops'"),
            ([str(tmp_path / "bad.txt")],
             f"{tmp_path / 'bad.txt'}:2:2: non-numeric field 'oops'"),
        ]:
            lst.write_text("".join(e + "\n" for e in entries))
            if want is None:
                ds = parse_trajectories_2d(lst_arg)
                assert [c.vertices.tolist() for c in ds] == [[[1.0, 2.0]]] * 3
            else:
                with pytest.raises(ParseError) as err:
                    parse_trajectories_2d(lst_arg)
                assert str(err.value) == want

    def test_empty_trajectory(self, tmp_path):
        (tmp_path / "a.txt").write_text("# nothing\n")
        lst = tmp_path / "files.txt"
        lst.write_text("a.txt\n")
        with pytest.raises(ParseError, match="empty trajectory"):
            parse_trajectories_2d(lst)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        ds = Dataset(
            [random_walk_curve(rng, i, int(rng.integers(1, 10)), 2) for i in range(4)]
        )
        lst = write_trajectories_2d(ds, tmp_path / "out")
        back = parse_trajectories_2d(lst)
        for c in ds:
            assert np.array_equal(back[c.id].vertices, c.vertices)


# Lines drawn from number pieces, field separators of every kind the two
# formats meet (commas, ASCII and Unicode whitespace, a carriage return
# that splits the line), comment marks and non-finite words.
_LINE_PIECES = st.sampled_from(
    list("0123456789.e-") + [" ", "\t", ",", "#", "\r", "\x0b", "\x1c", "\xa0", "nan", "inf"])
_TEXT = st.lists(st.lists(_LINE_PIECES, max_size=12).map("".join), max_size=6).map("\n".join)


# Trajectory texts that are mostly plain "x y" lines, the kind the
# whole-file reader takes: numbers in every form float() accepts, fields
# parted by ASCII and Unicode whitespace, \n or \r\n line ends and at times
# no final newline. One line in three texts is swapped for a line the
# per-line reader must judge.
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e3", "2.5E-3", "+7", "-0.0", "1_000", "1_0.2_5", ".5", "5.", "+1e+2"]),
)
_SEP = st.sampled_from([" ", "\t", "  ", " \t", "\xa0", "\x0b", "\x1c"])
_PAD = st.sampled_from(["", "", " ", "\t", "\xa0"])
_BAD_LINE = st.sampled_from(["1", "1 2 3", "nan 2", "1 inf", "1e400 2", "# 1 2", "1 #2",
                             "1,2", "", " ", "1 2 ;", ";", "1 oops"])


@st.composite
def _pair_texts(draw):
    """(text, whether every line is a plain pair)."""
    n = draw(st.integers(1, 8))
    lines = [draw(_PAD) + draw(_NUMBER) + draw(_SEP) + draw(_NUMBER) + draw(_PAD)
             for _ in range(n)]
    plain = draw(st.integers(0, 2)) > 0
    if not plain:
        lines[draw(st.integers(0, n - 1))] = draw(_BAD_LINE)
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, plain


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ParseError as e:
        return f"ParseError: {e}"


class TestReadersMatchPerLineSplit:
    """The readers split comma-free lines with str.split; rows and error
    texts must equal the oracle that strips and splits every line with the
    field pattern."""

    @settings(max_examples=300, deadline=None)
    @given(text=_TEXT, skip=st.booleans())
    def test_series_format(self, text, skip):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.txt"
            path.write_text(text, encoding="utf-8")
            got = _outcome(lambda: [c.vertices[:, 0].tolist()
                                    for c in parse_series_1d(path, skip)])
            assert got == _outcome(series_rows_oracle, path, skip)

    @settings(max_examples=300, deadline=None)
    @given(text=_TEXT)
    def test_trajectory_format(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "walk.txt"
            path.write_text(text, encoding="utf-8")
            got = _outcome(lambda: read_trajectory_2d(path, 0).vertices.tolist())
            assert got == _outcome(trajectory_rows_oracle, path)

    @settings(max_examples=300, deadline=None)
    @given(case=_pair_texts())
    def test_whole_file_reader(self, case):
        # A plain text must parse with the per-line reader's field splitter
        # made to raise. Compared by repr, so -0.0 and 0.0 differ.
        text, plain = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "walk.txt"
            path.write_text(text, encoding="utf-8")
            refuse = mock.patch.object(curves, "_fields",
                                       side_effect=AssertionError("plain text read by lines"))
            with refuse if plain else contextlib.nullcontext():
                got = _outcome(lambda: read_trajectory_2d(path, 0).vertices.tolist())
            assert repr(got) == repr(_outcome(trajectory_rows_oracle, path))

    @pytest.mark.parametrize("line", ["1 2", " 1\t2 ", "1,2", " ,1 2", "1\xa02", "1\x1c2",
                                      "# 1 2", " #1,2", "\x0b", "1 2 3", "1,,2",
                                      "1 2\r", "1 2\n\n", "1 2 ; 3 4\n\n"])
    def test_worked_lines(self, line, tmp_path):
        # The line first, then last with no newline after it.
        path = tmp_path / "walk.txt"
        for text in (line + "\n3 4\n", "3 4\n" + line):
            path.write_text(text, encoding="utf-8")
            assert (_outcome(lambda: read_trajectory_2d(path, 0).vertices.tolist())
                    == _outcome(trajectory_rows_oracle, path))


class TestNonUtf8Input:
    """A byte that does not decode as UTF-8 is a ParseError naming the file."""

    def test_series_file(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_bytes(b"1.0 2.0\n3.0 \xff\n")
        with pytest.raises(ParseError, match=r"bad\.txt: not UTF-8 text"):
            parse_series_1d(f)

    def test_trajectory_file(self, tmp_path):
        # The bad byte in the first 8 KiB decoded, and past it.
        f = tmp_path / "walk.txt"
        for data in (b"1 2\n\xff 4\n", b"1 2\n" * 3000 + b"\xff 4\n"):
            f.write_bytes(data)
            with pytest.raises(ParseError, match=r"walk\.txt: not UTF-8 text"):
                read_trajectory_2d(f, 0)

    def test_bad_field_before_a_late_bad_byte_wins(self, tmp_path):
        # Lines are decoded in 8 KiB blocks, so the field on line 2 is met
        # before the byte past the first block.
        f = tmp_path / "walk.txt"
        f.write_bytes(b"1 2\n3 oops\n" + b"5 6\n" * 3000 + b"\xff 8\n")
        with pytest.raises(ParseError) as err:
            read_trajectory_2d(f, 0)
        assert str(err.value) == f"{f}:2:2: non-numeric field 'oops'"

    def test_trajectory_list_file(self, tmp_path):
        lst = tmp_path / "files.txt"
        lst.write_bytes(b"a\xff.txt\n")
        with pytest.raises(ParseError, match=r"files\.txt: not UTF-8 text"):
            parse_trajectories_2d(lst)

    def test_trajectory_named_by_the_list(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"1 2\n3 \xff\n")
        lst = tmp_path / "files.txt"
        lst.write_text("a.txt\n")
        with pytest.raises(ParseError, match=r"a\.txt: not UTF-8 text"):
            parse_trajectories_2d(lst)
