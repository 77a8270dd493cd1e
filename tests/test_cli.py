import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from dyckflip import census, cli
from dyckflip.bijection import phi
from dyckflip.identity import MAX_ARITHMETIC_N, exact_int_str
from dyckflip.cli import MAX_STDIN_CHARS, build_parser, main
from dyckflip.path import format_path, parse_path
from dyckflip.render import MAX_CELL_SIZE
import digests
from peak_reference import reference_decompose

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("map", "UDUD"), "map_udud.txt"),
        (("map", "UDUUDD", "--trace"), "map_uduudd_trace.txt"),
        (("invert", "UU"), "invert_uu.txt"),
        (("invert", "UUDUUU", "--trace"), "invert_uuduuu_trace.txt"),
        (("decompose", "UDUUDD"), "decompose_uduudd.txt"),
        (("verify", "identity", "--n", "2", "--mode", "arithmetic"), "verify_identity_n2.txt"),
        (("verify", "identity", "--n", "3", "--mode", "structural"), "verify_identity_n3_structural.txt"),
        (("verify", "bijection", "--n", "2"), "verify_bijection_n2.txt"),
        (("enumerate", "--len", "4", "--class", "up"), "enumerate_len4_up.txt"),
        (("render", "UDUUDD", "--trace", "forward"), "render_uduudd_ascii.txt"),
        (("render", "UDUUDD", "--trace", "forward", "--svg", "-"), "render_uduudd.svg"),
        (("render", "UDUUDD", "--trace", "forward", "--svg", "-", "--axes"), "render_uduudd_axes.svg"),
    ],
)
def test_golden(capsys, argv, golden):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()



@pytest.mark.parametrize("command", sorted(digests.CHEAP))
def test_digests(command):
    # every byte of each report and listing against its sha256 in
    # golden/digests.json, which `tests/digests.py write` records and no
    # test writes; the costly argvs are CI's (`digests.py check --costly`)
    expected = digests.load()
    argvs = digests.CHEAP[command]
    assert [digests.key(argv) for argv in argvs if expected[digests.key(argv)] != digests.digest(argv)] == []


def test_digests_file_lists_every_argv():
    assert sorted(digests.load()) == sorted(map(digests.key, digests.every_argv()))


class TestExitCodes:
    def test_success(self, capsys):
        assert run(capsys, "map", "UD")[0] == 0

    def test_domain_error_is_2(self, capsys):
        code, _, err = run(capsys, "map", "UU")
        assert code == 2
        assert "NotBalanced" in err

    def test_parse_error_is_2(self, capsys):
        code, _, err = run(capsys, "map", "UXD")
        assert code == 2
        assert "index 1" in err

    def test_invert_odd_length_is_2(self, capsys):
        code, _, err = run(capsys, "invert", "UUU")
        assert code == 2
        assert "OddLength" in err

    def test_decompose_down_start_is_2(self, capsys):
        code, _, err = run(capsys, "decompose", "DU")
        assert code == 2
        assert "DownStart" in err

    @pytest.mark.parametrize(
        "argv, line",
        [
            # the one error kind whose name differs from its class's
            (("decompose", ""), "error: Empty: cannot decompose the empty path\n"),
            (("invert", "UD"), "error: NotUnbalanced: input path is Balanced, expected unbalanced\n"),
        ],
        ids=["empty", "not-unbalanced"],
    )
    def test_error_line(self, capsys, argv, line):
        assert run(capsys, *argv) == (2, "", line)

    @pytest.mark.parametrize("length", ["31", "-1"])
    def test_enumerate_length_out_of_range_is_2(self, capsys, length):
        # the range check runs when the writer takes the first path
        code, out, err = run(capsys, "enumerate", "--len", length)
        assert (code, out) == (2, "")
        assert err.startswith("error: Range: ") and err.count("\n") == 1

    def test_failed_verification_is_1(self, capsys, monkeypatch):
        # the constant-image stub of test_corrupted_phi_detected
        monkeypatch.setattr(census, "phi_rows", lambda rows: (np.ones_like(rows), None))
        code, out, _ = run(capsys, "verify", "bijection", "--n", "2")
        assert code == 1
        assert out.endswith("\nok=false\n")

    def test_verify_range_error_is_2(self, capsys):
        assert run(capsys, "verify", "bijection", "--n", "99")[0] == 2

    def test_usage_error_is_2(self, capsys):
        for argv in (["no-such-command"], ["verify", "bijection", "--n", "2", "--partitions", "4"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


class TestArithmeticLimit:
    # 4^n has more than the interpreter's default 4300 digits from n = 7143
    @pytest.mark.parametrize("n", [7143, MAX_ARITHMETIC_N])
    def test_large_n_prints_exact_values(self, capsys, n):
        code, out, err = run(capsys, "verify", "identity", "--n", str(n), "--mode", "arithmetic")
        assert (code, err) == (0, "")
        fields = dict(line.split("=", 1) for line in out.splitlines())
        with exact_int_str():
            assert fields["identity_lhs"] == fields["identity_rhs"] == str(4**n)
        assert fields["ok"] == "true"

    def test_large_n_json(self, capsys):
        code, out, _ = run(capsys, "verify", "identity", "--n", str(MAX_ARITHMETIC_N), "--json")
        assert code == 0
        with exact_int_str():
            data = json.loads(out)
        assert data["identity_lhs"] == data["identity_rhs"] == 4**MAX_ARITHMETIC_N

    def test_past_limit_is_2(self, capsys):
        code, out, err = run(capsys, "verify", "identity", "--n", str(MAX_ARITHMETIC_N + 1))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: Range: ")


class TestStdinPiping:
    def test_map_then_invert_roundtrips(self, capsys, monkeypatch):
        for text in ("UDUD", "UUDD", "DUDU", "UDDUUD"):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, out, _ = run(capsys, "map", "-")
            assert code == 0
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
            code, out, _ = run(capsys, "invert", "-")
            assert code == 0
            assert out == text + "\n"

    @pytest.mark.parametrize("raw, index", [(b"UD\xffD", 2), (b"\xc3(", 0), (b"U\xed\xa0\x80", 1)])
    def test_stdin_not_utf8_is_a_parse_error(self, capsys, monkeypatch, raw, index):
        # undecodable bytes arrive as lone surrogates, as on a POSIX stdin
        stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "map", "-")
        assert (code, out) == (2, "")
        assert err.startswith("error: Parse: invalid character '\\udc") and err.endswith(f"(index {index})\n")


class TestDecomposeText:
    @pytest.mark.parametrize("alphabet", ["ud", "ne"])
    @pytest.mark.parametrize("text", ["UD", "UUDUDD", "UUUDD" * 1000 + "D" * 1000, "UUD" * 4000 + "D" * 4000])
    def test_lines_match_the_reference(self, capsys, alphabet, text):
        p = parse_path(text)
        d = reference_decompose(p)
        expected = []
        for up_len, seg in d.parts:
            expected.append(f"uprun={up_len}")
            expected.append(f"segment={seg.kind.value}:{format_path(seg.steps, alphabet)}")
        expected.append("peaks=" + ",".join(f"{i}:{h}" for i, h in zip(d.peak_indices, d.peak_heights)))
        code, out, err = run(capsys, "decompose", format_path(p, alphabet), "--alphabet", alphabet)
        assert (code, err) == (0, "")
        # line by line, then the count: a failure reports the index and text
        # of the first differing line, not a diff of some 0.1 MB of text
        lines = out.split("\n")
        for i, (line, want) in enumerate(zip(lines, expected)):
            assert (i, line) == (i, want)
        # and the text ends in a newline, so its last split is empty
        assert (len(lines), lines[-1]) == (len(expected) + 1, "")


class TestStdinBound:
    def test_text_at_the_bound(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("UD" * (MAX_STDIN_CHARS // 2)))
        code, out, err = run(capsys, "decompose", "-")
        assert (code, err) == (0, "")
        assert out.startswith("uprun=1\nsegment=DownUnbalanced:D")

    def test_text_past_the_bound_is_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("UD" * (MAX_STDIN_CHARS // 2) + "\n"))
        code, out, err = run(capsys, "map", "-")
        assert (code, out) == (2, "")
        assert err == f"error: Range: path text on stdin must be at most {MAX_STDIN_CHARS} characters\n"

    @pytest.mark.parametrize("text", ["UU\n", " UU\n", "UUUU\n", "UU \n\n"])
    def test_whitespace_counts(self, capsys, monkeypatch, text):
        monkeypatch.setattr(cli, "MAX_STDIN_CHARS", 4)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        expected = (0, "UD\n") if len(text) <= 4 else (2, "")
        assert run(capsys, "invert", "-")[:2] == expected


class ClosedPipe:
    """A stdout or stderr whose reader has gone: every write raises."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def writelines(self, lines):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class HalfWrite:
    """The binary layer of a pipe whose reader leaves midway through a
    write: the first write takes half the bytes, with no error, and every
    later one raises. `sizes` holds the size of each write."""

    def __init__(self):
        self.sizes = []

    def write(self, data):
        self.sizes.append(len(data))
        if len(self.sizes) > 1:
            raise BrokenPipeError(32, "Broken pipe")
        return len(data) // 2


class ShortPipe(ClosedPipe):
    """A stdout over HalfWrite whose text layer, like io.TextIOWrapper,
    drops the count that its binary layer returns."""

    encoding, errors = "utf-8", "strict"

    def __init__(self, fd):
        super().__init__(fd)
        self.buffer = HalfWrite()

    def write(self, text):
        self.buffer.write(text.encode())


def read_one_line_then_close(argv, stdin=None):
    """Run the command, read its first line and close the pipe: the first
    line, the exit code and stderr. The command reads all of stdin first."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dyckflip.cli", *argv],
        stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        if stdin is not None:
            proc.stdin.write(stdin.encode())
            proc.stdin.close()
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        return first, proc.wait(timeout=60), err
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


class TestBrokenPipe:
    def test_write_to_closed_stdout_exits_quietly(self, capsys, monkeypatch, tmp_path):
        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr("sys.stdout", ClosedPipe(fh.fileno()))
            assert main(["enumerate", "--len", "4"]) == 1
            # the descriptor behind stdout now points at the null device
            assert os.fstat(fh.fileno()).st_ino == os.stat(os.devnull).st_ino
        assert capsys.readouterr().err == ""

    def test_decompose_to_closed_stdout_exits_quietly(self, capsys, monkeypatch, tmp_path):
        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr("sys.stdout", ClosedPipe(fh.fileno()))
            assert main(["decompose", "UUDUDD"]) == 1
        assert capsys.readouterr().err == ""

    def test_error_to_closed_stderr_keeps_exit_2(self, monkeypatch, tmp_path):
        # `dyckflip map UUU 2>&1 | true`: the one-line error has no reader
        with open(tmp_path / "stderr", "w") as fh:
            monkeypatch.setattr("sys.stderr", ClosedPipe(fh.fileno()))
            assert main(["map", "UUU"]) == 2
            assert os.fstat(fh.fileno()).st_ino == os.stat(os.devnull).st_ino

    def test_reader_closing_the_pipe(self):
        first, code, err = read_one_line_then_close(["enumerate", "--len", "30"])
        assert (first, code, err) == (b"DDDDDDDDDDDDDDDDDDDDDDDDDDDDDD\n", 1, b"")

    def test_reader_closing_the_pipe_on_decompose(self):
        # the text is about 1.8 MB, far more than a pipe holds
        first, code, err = read_one_line_then_close(["decompose", "-"], "UUD" * 65536 + "D" * 65536)
        assert (first, code, err) == (b"uprun=2\n", 1, b"")

    def test_reader_closing_the_pipe_on_render(self):
        # the document is about 0.9 MB, written at once: the write returns
        # short when the reader leaves, and the next write meets the closed pipe
        first, code, err = read_one_line_then_close(["render", "-", "--svg", "-"], "UD" * 50000)
        head = b'<svg xmlns="http://www.w3.org/2000/svg" width="1000000" height="10" viewBox="0 0 1000000 10">\n'
        assert (first, code, err) == (head, 1, b"")

    def test_reader_taking_a_long_map_line(self):
        # one line, about 0.26 MB, far more than a pipe holds: it arrives
        # whole, and the command ends before the reader closes
        text = "UUD" * 65536 + "D" * 65536
        image = format_path(phi(parse_path(text))[0])
        assert read_one_line_then_close(["map", "-"], text) == (f"{image}\n".encode(), 0, b"")

    def test_reader_taking_a_long_decompose_json_line(self):
        text = "UUD" * 65536 + "D" * 65536
        first, code, err = read_one_line_then_close(["decompose", "-", "--json"], text)
        assert (code, err, first[-1:]) == (0, b"", b"\n")
        doc = json.loads(first)
        assert doc["input"] == text and len(doc["parts"]) == 65536

    @pytest.mark.parametrize(
        "argv",
        [
            ["render", "UUDD", "--svg", "-"],
            ["render", "UUDD"],
            ["verify", "identity", "--n", "3"],
            ["map", "UDUUDDUD"],
            ["map", "UDUUDDUD", "--trace"],
            ["map", "UDUUDDUD", "--json"],
            ["invert", "UUUDUDUU"],
            ["decompose", "UUDUDDUUDD"],
            ["decompose", "UUDUDDUUDD", "--json"],
            ["verify", "identity", "--n", "3", "--json"],
            ["enumerate", "--len", "4"],
        ],
    )
    def test_short_write_is_followed_to_the_closed_pipe(self, capsys, monkeypatch, tmp_path, argv):
        # the rest of the document is written again after a short write,
        # and that write meets the closed pipe
        with open(tmp_path / "stdout", "w") as fh:
            pipe = ShortPipe(fh.fileno())
            monkeypatch.setattr("sys.stdout", pipe)
            assert main(argv) == 1
        n = pipe.buffer.sizes[0]
        assert pipe.buffer.sizes == [n, n - n // 2]
        assert capsys.readouterr().err == ""


class FullDisk:
    """A stdout on a full disk (`> /dev/full`): every write raises ENOSPC,
    through the text layer and through its binary layer alike."""

    encoding, errors = "utf-8", "strict"

    def __init__(self, fd=None):
        self.fd = fd
        self.buffer = self

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    writelines = write

    def flush(self):
        pass

    def fileno(self):
        return self.fd

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class FailingStdin:
    def read(self, size=-1):
        raise OSError(errno.EIO, os.strerror(errno.EIO))


# every command, and each of its output forms
EVERY_COMMAND = [
    ["map", "UDUUDD"],
    ["map", "UDUUDD", "--trace"],
    ["map", "UDUUDD", "--json"],
    ["invert", "UUDUUU"],
    ["decompose", "UDUUDD"],
    ["decompose", "UDUUDD", "--json"],
    ["verify", "identity", "--n", "3"],
    ["verify", "identity", "--n", "3", "--mode", "structural", "--json"],
    ["verify", "bijection", "--n", "2"],
    ["enumerate", "--len", "4"],
    ["render", "UDUUDD"],
    ["render", "UDUUDD", "--svg", "-"],
]

NO_SPACE = f"error: IO: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


class TestStreamFailures:
    @pytest.mark.parametrize("argv", EVERY_COMMAND)
    def test_full_stdout_is_one_line_and_1(self, capsys, monkeypatch, tmp_path, argv):
        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr("sys.stdout", FullDisk(fh.fileno()))
            assert main(argv) == 1
            # what is left in the stream's buffer goes to the null device
            assert os.fstat(fh.fileno()).st_ino == os.stat(os.devnull).st_ino
        assert capsys.readouterr().err == NO_SPACE

    def test_full_svg_file_is_one_line_and_2(self, capsys, monkeypatch, tmp_path):
        # the file opens, and its write or its close meets the full disk
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(), raising=False)
        assert run(capsys, "render", "UDUD", "--svg", str(tmp_path / "out.svg")) == (2, "", NO_SPACE)

    @pytest.mark.parametrize("argv", [["map", "UD"], ["enumerate", "--len", "2"]])
    def test_closed_stdout_is_one_line_and_1(self, capsys, monkeypatch, argv):
        # a command started with `>&-` finds sys.stdout None
        monkeypatch.setattr("sys.stdout", None)
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: IO: stdout is closed\n"

    def test_svg_file_needs_no_stdout(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.stdout", None)
        assert main(["render", "UDUD", "--svg", str(tmp_path / "out.svg")]) == 0
        assert (tmp_path / "out.svg").read_text().startswith("<svg ")
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "stdin, line",
        [
            (None, "error: IO: stdin is closed\n"),
            (FailingStdin(), f"error: IO: [Errno {errno.EIO}] {os.strerror(errno.EIO)}\n"),
        ],
    )
    @pytest.mark.parametrize("command", ["map", "invert", "decompose", "render"])
    def test_failing_stdin_is_one_line_and_2(self, capsys, monkeypatch, stdin, line, command):
        monkeypatch.setattr("sys.stdin", stdin)
        assert run(capsys, command, "-") == (2, "", line)


class TestTextOnlyStdout:
    # `_write` hands a stdout with no binary layer, such as io.StringIO,
    # its chunks as they are
    @pytest.mark.parametrize(
        "argv, golden",
        [(["map", "UDUD"], "map_udud.txt"), (["enumerate", "--len", "4", "--class", "up"], "enumerate_len4_up.txt")],
    )
    def test_output_matches_the_golden(self, argv, golden):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert out.getvalue() == (GOLDEN / golden).read_text()


class TestJsonOutput:
    def test_map_json_round_trips_plain_fields(self, capsys):
        _, plain, _ = run(capsys, "map", "UDUUDD", "--trace")
        _, out, _ = run(capsys, "map", "UDUUDD", "--json")
        data = json.loads(out)
        lines = dict(
            line.split("=", 1) for line in plain.strip().splitlines()[1:]
        )
        assert data["output"] == plain.splitlines()[0]
        assert data["class_in"] == lines["class_in"]
        assert data["class_out"] == lines["class_out"]
        assert ",".join(f"{i}:{h}" for i, h in data["b_points"]) == lines["b_points"]

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "verify", "identity", "--n", "2", "--json")
        assert code == 0
        assert json.loads(out)["identity_lhs"] == 16

    def test_decompose_json(self, capsys):
        _, out, _ = run(capsys, "decompose", "UDUUDD", "--json")
        data = json.loads(out)
        assert data["peak_indices"] == [1, 4]
        assert data["parts"][0]["kind"] == "DownDyck"


class TestRenderOutput:
    def test_svg_file_written(self, capsys, tmp_path):
        target = tmp_path / "out.svg"
        code, _, _ = run(capsys, "render", "UDUD", "--svg", str(target))
        assert code == 0
        root = ET.fromstring(target.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        points = root.find(f"{ns}polyline").get("points").split()
        assert len(points) == 5

    @pytest.mark.parametrize("cell", ["0", "-3"])
    def test_cell_size_below_one_is_2(self, capsys, cell):
        code, out, err = run(capsys, "render", "UD", "--cell-size", cell)
        assert (code, out) == (2, "")
        assert err == f"error: Range: cell_size must be >= 1, got {cell}\n"

    def test_cell_size_at_limit(self, capsys):
        code, out, err = run(capsys, "render", "UD", "--svg", "-", "--cell-size", str(MAX_CELL_SIZE))
        assert (code, err) == (0, "")
        assert 'points="0,1000000 1000000,0 2000000,1000000"' in out

    def test_cell_size_past_limit_is_2(self, capsys):
        code, out, err = run(capsys, "render", "UD", "--svg", "-", "--cell-size", str(MAX_CELL_SIZE + 1))
        assert (code, out) == (2, "")
        assert err == f"error: Range: cell_size must be <= {MAX_CELL_SIZE}, got {MAX_CELL_SIZE + 1}\n"

    def test_unopenable_svg_target_is_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.svg"
        code, out, err = run(capsys, "render", "UD", "--svg", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: FileNotFound: ") and err.count("\n") == 1
        assert not target.exists()

    def test_ne_alphabet(self, capsys):
        code, out, _ = run(capsys, "map", "NNEE", "--alphabet", "ne")
        assert code == 0
        assert out == "NNNN\n"


def test_parser_has_all_subcommands():
    parser = build_parser()
    ns = parser.parse_args(["enumerate", "--len", "2"])
    assert ns.cls == "all"
    # `bench` only reran `verify bijection`; its elapsed time is in --json
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "2"])
    assert exc.value.code == 2


def test_verify_bijection_json_has_elapsed(capsys):
    code, out, _ = run(capsys, "verify", "bijection", "--n", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert isinstance(data["elapsed"], float) and data["ok"] is True
