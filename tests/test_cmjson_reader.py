"""The cmjson reader against the reader it replaced.

``matcore.read_cmjson`` parses every file with ``json.loads`` while the cyclic garbage
collector is paused, then hands ``data`` back as the matrix's float pairs.  ``_reference``
is the reader it replaced (``json.load``, then ``cmjson_to_matrix``), kept here as the
oracle: a valid file gives the same bits and the same pairs, small or padded to 4096
characters, an invalid one the same exception class and message, and the CLI the same exit
code, stdout and stderr.  After every read the collector is on or off as it was before.
"""

import contextlib
import gc
import io
import json
import os
import tempfile

import numpy as np
import pytest

from uhlmann import cli, matcore, states
from uhlmann.states import BipartitePureState


def _reference(path):
    with open(path, "r", encoding="ascii") as fh:
        obj = json.load(fh)
    return matcore.cmjson_to_matrix(obj), obj


def _outcome(read, *args):
    """A reader's matrix (shape and bytes) and other fields, or its error's class and message."""
    try:
        m, obj = read(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)
    return m.shape, m.tobytes(), {k: v for k, v in obj.items() if k != "data"}


def _padded(text: str) -> str:
    """``text`` with trailing whitespace up to 4096 characters: each small file again at a state file's size."""
    return text + " " * max(0, 4096 - len(text))


def _edge_state_text(d: int) -> str:
    """``write_state`` text of a d x d grid holding signed zeros, subnormals and +-1e300."""
    rng = np.random.default_rng(d)
    grid = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    edges = [complex(-0.0, 1e300), complex(-0.0, -0.0), complex(0.0, -0.0), complex(5e-324, -1.5e-310),
             complex(-1e300, 2.2250738585072014e-308), complex(-1.5e-310, -5e-324)]
    grid.flat[: len(edges)] = edges[: d * d]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        states.write_state(path, BipartitePureState(grid, normalized=False))
        with open(path, encoding="ascii") as fh:
            return fh.read()


def _spaced(text: str) -> str:
    """A write_state text with its keys reordered and whitespace between every token."""
    obj = json.loads(text)
    start = text.index('"data":') + len('"data":')
    span = text[start:text.index(',"dim_a"')]
    span = span.replace("[", "[ ").replace("]", " ]").replace(",", " ,\n\t")
    return ('{\n  "normalized" : false ,\n  "data" :\n' + span + ' ,\r\n  "rows": %d, "dim_b":%d,'
            '"cols" : %d ,"dim_a"\t: %d\n}\n' % (obj["rows"], obj["dim_b"], obj["cols"], obj["dim_a"]))


_SPELLINGS = ('{"rows":2,"cols":2,"dim_a":2,"dim_b":2,"normalized":false,'
              '"data":[[1E+2,-0],[0,12],[0.5e-3,-1.25E-2],[-0e0,1E-05]]}')
VALID = {
    "d1": _edge_state_text(1),
    "d6": _edge_state_text(6),
    "d128": _edge_state_text(128),
    "spaced_d16": _spaced(_edge_state_text(16)),
    "spellings": _SPELLINGS,
}

_BASE = '{"cols":2,"data":[[0.6,0.0],[0.0,0.8]],"dim_a":1,"dim_b":2,"normalized":true,"rows":1}\n'
_SPAN = "[[0.6,0.0],[0.0,0.8]]"
INVALID = {
    "nan": _BASE.replace(_SPAN, "[[NaN,0.0],[0.0,0.8]]"),
    "infinity": _BASE.replace(_SPAN, "[[0.6,-Infinity],[0.0,0.8]]"),
    "ragged": _BASE.replace(_SPAN, "[[0.6,0.0,0.0],[0.8]]"),
    "nested": _BASE.replace(_SPAN, "[[[0.6],0.0],[0.0,0.8]]"),
    "trailing_comma": _BASE.replace(_SPAN, "[[0.6,0.0],[0.0,0.8],]"),
    "missing_comma": _BASE.replace(_SPAN, "[[0.6,0.0][0.0,0.8]]"),
    "leading_zero": _BASE.replace(_SPAN, "[[01,0.0],[0.0,0.8]]"),
    "minus_leading_zero": _BASE.replace(_SPAN, "[[0.6,-00.0],[0.0,0.8]]"),
    "bare_fraction": _BASE.replace(_SPAN, "[[.5,0.0],[0.0,0.8]]"),
    "plus": _BASE.replace(_SPAN, "[[+1,0.0],[0.0,0.8]]"),
    "bare_point": _BASE.replace(_SPAN, "[[1.,0.0],[0.0,0.8]]"),
    "point_exponent": _BASE.replace(_SPAN, "[[6.e-1,0.0],[0.0,0.8]]"),
    "letter": _BASE.replace(_SPAN, "[[0.6,0.0],[0.0,0.8x]]"),
    "empty_slot": _BASE.replace(_SPAN, "[[0.6, ],[0.0,0.8]]"),
    "inner_space": _BASE.replace(_SPAN, "[[0 .6,0.0],[0.0,0.8]]"),
    "wrong_count": _BASE.replace(_SPAN, "[[0.6,0.0]]"),
    "overflow": _BASE.replace(_SPAN, "[[1e400,0.0],[0.0,0.8]]"),
    "huge_integer": _BASE.replace(_SPAN, "[[1" + "0" * 400 + ",0.0],[0.0,0.8]]"),
    "minus_zero_integers": _BASE.replace(_SPAN, "[[-0,0.6],[-0,0.8]]"),
    "missing_rows": _BASE.replace('"rows":1', '"rws":1'),
    "missing_data": _BASE.replace('"data"', '"date"'),
    "missing_dim_a": _BASE.replace('"dim_a":1,', ""),
    "duplicate_data": _BASE.replace('"rows":1', '"rows":1,"data":[[0.8,0.0],[0.0,0.6]]'),
    "duplicate_nan_data": _BASE.replace('"rows":1', '"rows":1,"data":NaN'),
    "nan_elsewhere": _BASE.replace('"rows":1', '"rows":1,"note":NaN'),
    "truncated": _BASE[:-12],
}


@pytest.mark.parametrize("name", sorted(VALID))
@pytest.mark.parametrize("pad", [False, True])
def test_valid_files_read_the_same_bits(name, pad, tmp_path):
    text = _padded(VALID[name]) if pad else VALID[name]
    path = tmp_path / "m.json"
    path.write_text(text, encoding="ascii")
    want = _outcome(_reference, path)
    assert isinstance(want[0], tuple)  # a valid file
    assert _outcome(matcore.read_cmjson, path) == want
    m, obj = matcore.read_cmjson(path)  # data: the matrix's pairs, bit-equal to json's
    pairs = np.array(_reference(path)[1]["data"], dtype=float)
    assert obj["data"].dtype == float and obj["data"].shape == pairs.shape == (m.size, 2)
    assert obj["data"].tobytes() == pairs.tobytes() and np.shares_memory(obj["data"], m)


def test_state_files_keep_signed_zeros_through_the_span_route(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(VALID["d128"], encoding="ascii")
    coeffs = states.read_state(path).coeffs
    flat = coeffs.ravel()
    assert np.signbit(flat.real[:3]).tolist() == [True, True, False]
    assert np.signbit(flat.imag[:3]).tolist() == [False, True, True]
    assert flat[3] == complex(5e-324, -1.5e-310) and flat[0].imag == 1e300


@pytest.mark.parametrize("name", sorted(INVALID))
@pytest.mark.parametrize("pad", [False, True])
def test_other_files_give_the_same_outcome(name, pad, tmp_path):
    text = _padded(INVALID[name]) if pad else INVALID[name]
    path = tmp_path / "m.json"
    path.write_text(text, encoding="ascii")
    assert _outcome(matcore.read_cmjson, path) == _outcome(_reference, path)


def test_a_non_ascii_file_gives_the_same_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(_padded(_BASE).replace("0.8", "0.8é").encode("utf-8"))
    want = _outcome(_reference, path)
    assert want[0] is UnicodeDecodeError
    assert _outcome(matcore.read_cmjson, path) == want


_FILES = {**{f"valid_{n}": VALID[n].encode("ascii") for n in ("d1", "d128")},
          **{n: INVALID[n].encode("ascii") for n in INVALID},
          "non_ascii": _BASE.replace("0.8", "0.8é").encode("utf-8")}


@pytest.mark.parametrize("name", sorted(_FILES))
@pytest.mark.parametrize("enabled", [True, False])
def test_the_collector_is_paused_for_the_parse_and_then_restored(name, enabled, tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    path.write_bytes(_FILES[name])
    seen = []
    to_matrix = matcore.cmjson_to_matrix
    monkeypatch.setattr(matcore, "cmjson_to_matrix", lambda obj: seen.append(gc.isenabled()) or to_matrix(obj))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        _outcome(matcore.read_cmjson, path)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is enabled
    # paused while json's lists are alive, wherever the parse reached cmjson_to_matrix
    assert seen == [False] if name.startswith("valid") else not any(seen)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - an uncaught error is the outcome compared
            code = (type(exc), str(exc))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(INVALID))
def test_cli_exit_code_and_stderr_are_kept(name, tmp_path, monkeypatch):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(_padded(INVALID[name]), encoding="ascii")
    good.write_text(_BASE, encoding="ascii")
    argv = ["canonical", "--c", str(good), "--d", str(bad)]
    got = _cli(argv)
    monkeypatch.setattr(matcore, "read_cmjson", _reference)
    assert got == _cli(argv)
