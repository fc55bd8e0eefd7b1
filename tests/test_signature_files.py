"""Signature files: the one-pass loader against the per-line parser.

:func:`repro.cli.load_signatures` reads a plain file in one C-level pass
and hands everything else to the per-line parser.  Whatever the file,
it must return exactly the per-line parser's set (as an element array)
or raise the same ``SystemExit``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cli import _parse_signature_lines, load_signatures

_U32 = 1 << 32

#: a few values, so duplicates (also across spellings) are common
_POOL = st.sampled_from([1, 2, 7, 255, 4096, 65_537, _U32 - 1])

_TOKEN = st.one_of(
    _POOL.map(str),
    st.integers(1, _U32 - 1).map(str),
    _POOL.map(lambda v: f"+{v}"),
    _POOL.map(lambda v: f"00{v}"),
    _POOL.map(hex),
    _POOL.map(lambda v: f"0X{v:X}"),
    st.sampled_from([
        "0", "00", "-5", str(_U32), str(1 << 63), str((1 << 64) - 1),
        str(1 << 64), str(10**30), "5 6", "5\t6", "1_000", "5.0", "1e3",
        "abc", "0x", "+", "x5", "٣", "٣٤", "５", "+-5",
    ]),
    st.text(
        alphabet=st.sampled_from("0123456789+-xX_ .a٣\t"), max_size=6
    ),
)

#: whitespace the per-line parser strips or that splits its lines
_PAD = st.sampled_from(["", "", " ", "\t", "  ", "\x0b", "\x1f", "\xa0"])
_EOL = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\x1c", " "])


@st.composite
def _files(draw) -> str:
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            line = draw(_PAD)                                  # blank
        elif kind == 1:
            line = draw(_PAD) + "# " + draw(st.text(max_size=5))
        else:
            line = draw(_PAD) + draw(_TOKEN) + draw(_PAD)
            if kind == 2:
                line += " # note"
        lines.append(line + draw(_EOL))
    text = "".join(lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\n")      # no newline at the end of the file
    return text


def _outcome(call, path):
    """``("ok", sorted values)`` or ``("exit", message)``."""
    try:
        values = call(path)
    except SystemExit as exc:
        return "exit", str(exc)
    return "ok", sorted(int(v) for v in values)


@pytest.fixture(scope="module")
def sig_path(tmp_path_factory):
    return tmp_path_factory.mktemp("signatures") / "sigs.txt"


class TestLoaderMatchesTheLineParser:
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=_files())
    @example(text="")
    @example(text="\n \n\t\n")
    @example(text="5 6\n")
    @example(text="5 6")
    @example(text="5\n6 7\n")
    @example(text="1\r\n2\r\n")
    @example(text="+5\n")
    @example(text="0\n")
    @example(text=f"{_U32}\n")
    @example(text=f"{1 << 64}\n")
    @example(text=f"{(1 << 64) - 1}\n")
    @example(text="7\n9\n7\n")
    @example(text="7\n0x7\n")
    @example(text="0xff  # hex\n3\n")
    @example(text="٣\n")
    @example(text="12\x0c34\n")
    @example(text="0" * 5000 + "5\n")
    @example(text="1\n" + " " * 5000 + "5\n")
    def test_same_set_or_same_exit(self, sig_path, text):
        sig_path.write_text(text)
        expected = _outcome(
            lambda p: _parse_signature_lines(p, p.read_text()), sig_path
        )
        assert _outcome(load_signatures, sig_path) == expected

    def test_result_is_an_element_array(self, sig_path):
        sig_path.write_text("9\n3\n  5\r\n\n")
        arr = load_signatures(sig_path)
        assert arr.dtype == np.uint64 and not arr.flags.writeable
        assert arr.tolist() == [3, 5, 9]

    def test_a_plain_file_parses_without_the_line_parser(
        self, sig_path, monkeypatch
    ):
        import repro.cli

        def refuse(*_):
            raise AssertionError("per-line parser used")

        monkeypatch.setattr(repro.cli, "_parse_signature_lines", refuse)
        sig_path.write_text("".join(f"{v}\n" for v in range(1, 1001)))
        assert load_signatures(sig_path).tolist() == list(range(1, 1001))


class TestLenientLoadtxt:
    """numpy 1.23-1.26 read a token that is not a uint64 into an integer
    column through float (``5.7`` as 5, ``1e3`` as 1000, a decimal
    >= 2^64 cast in C) with only a DeprecationWarning; later releases
    raise.  Against such a ``loadtxt`` the loader must still give the
    per-line parser's answer, and only a file of ASCII digits, ``+`` and
    whitespace may reach ``loadtxt`` at all."""

    @pytest.mark.parametrize(("text", "reaches_loadtxt"), [
        ("5.7\n", False), ("5.0\n", False), ("1e3\n", False),
        ("3\n-1\n", False), ("inf\n", False), ("\u0663\n", False),
        (f"3\n{(1 << 64) + 5}\n", True),
    ])
    def test_loader_gives_the_line_parsers_answer(
        self, sig_path, monkeypatch, text, reaches_loadtxt
    ):
        calls = []

        def float_cast_loadtxt(*_, **__):
            calls.append(1)
            warnings.warn(
                "loadtxt(): Parsing an integer via a float is deprecated.",
                DeprecationWarning, stacklevel=2,
            )
            return np.array([[3], [5]], dtype=np.uint64)

        monkeypatch.setattr(np, "loadtxt", float_cast_loadtxt)
        sig_path.write_text(text)
        expected = _outcome(
            lambda p: _parse_signature_lines(p, p.read_text()), sig_path
        )
        assert _outcome(load_signatures, sig_path) == expected
        assert len(calls) == reaches_loadtxt
