import os

import pytest

from casevec.files import open_output


def test_creates_a_new_file(tmp_path):
    path = tmp_path / "out.txt"
    with open_output(str(path), encoding="utf-8") as fh:
        fh.write("abc\n")
    assert path.read_text(encoding="utf-8") == "abc\n"


def test_shorter_rewrite_leaves_no_old_tail(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("a much longer first version\n", encoding="utf-8")
    with open_output(str(path), encoding="utf-8") as fh:
        fh.write("short\n")
    assert path.read_text(encoding="utf-8") == "short\n"


def test_open_does_not_truncate_to_zero(tmp_path):
    # the point of open_output: the file is cut to its new length on exit,
    # never to zero on open
    path = tmp_path / "out.txt"
    path.write_text("0123456789", encoding="utf-8")
    with open_output(str(path), encoding="utf-8") as fh:
        assert os.path.getsize(path) == 10
        fh.write("ab")
    assert path.read_text(encoding="utf-8") == "ab"


def test_binary_mode(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"\xff" * 10)
    with open_output(str(path), "wb") as fh:
        fh.write(b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"


def test_newline_argument_is_passed_on(tmp_path):
    path = tmp_path / "out.csv"
    with open_output(str(path), encoding="utf-8", newline="") as fh:
        fh.write("a\r\n")
    assert path.read_bytes() == b"a\r\n"


def test_writer_that_raises_leaves_only_what_it_wrote(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old contents that are longer\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with open_output(str(path), encoding="utf-8") as fh:
            fh.write("new")
            raise RuntimeError("writer failed")
    assert path.read_text(encoding="utf-8") == "new"


def test_rewrite_keeps_the_inode_and_permissions(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("first\n", encoding="utf-8")
    os.chmod(path, 0o600)
    before = os.stat(path)
    with open_output(str(path), encoding="utf-8") as fh:
        fh.write("second\n")
    after = os.stat(path)
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


@pytest.mark.parametrize("mode", ["a", "r+", "x", "w+"])
def test_other_modes_rejected(tmp_path, mode):
    with pytest.raises(ValueError, match="mode"):
        with open_output(str(tmp_path / "out.txt"), mode):
            pass
    assert not (tmp_path / "out.txt").exists()


def test_missing_directory_raises_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        with open_output(str(tmp_path / "nope" / "out.txt")):
            pass
