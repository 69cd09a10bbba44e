"""The cmjson reader against the reader it replaced.

``matcore.read_cmjson`` has two routes.  A file whose ``data`` is one key's ``[[re,im],...]`` of at least 256
values with no whitespace, as the writer prints it, takes the compact route: int64 significands, read a piece
at a time (``matcore._compact_fields``).  Every other file, and any file the compact route does not finish, is
parsed by ``json.loads`` while the cyclic garbage collector is paused.  ``_reference`` is the reader both
replaced (``json.load``, then ``cmjson_to_matrix``), kept here as the oracle: a valid file gives the same bits
and the same pairs, as it is or with 128 of the writer's pairs per row put in its data (``_compact``), and an
invalid one the same exception class and message, and the CLI the same exit code, stdout and stderr.  After
every read the collector is on or off as it was before.
"""

import contextlib
import gc
import io
import json
import os
import re
import tempfile
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _compact_route(text: str) -> bool:
    return matcore._compact_fields(text.encode("ascii")) is not None


def _writer_pairs(n: int, seed: int = 0) -> str:
    """``[re,im],...`` of n pairs as the writer prints them, without the outer brackets."""
    rng = np.random.default_rng(seed)
    return matcore.format_value((rng.normal(size=n) + 1j * rng.normal(size=n)) / 64)[1:-1]


def _compact(text: str) -> str:
    """``text`` with 128 of the writer's pairs per row put ahead of its data's first pair, and ``cols`` and
    ``dim_b`` grown by 128: a small file again, at the end of a compact span of 256 values or more."""
    rows = re.search(r'"rows":(\d+)', text)
    rows = int(rows.group(1)) if rows else 1
    for key in ("cols", "dim_b"):
        text = re.sub(rf'"{key}":(\d+)', lambda m, k=key: f'"{k}":{int(m.group(1)) + 128}', text, count=1)
    return text.replace(":[[", ":[" + _writer_pairs(128 * rows) + ",[", 1)


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


def _near_midpoints() -> list:
    """20-digit fractions F / 10**20 within r 2**-47.4 ulp of M / 2**66, a midpoint of two doubles in
    [2**-13, 2**-12), for odd r: M 5**20 = F 2**46 + r, so F / 10**20 = M / 2**66 - r / (2**46 10**20)."""
    inv = pow(5**20, -1, 2**46)
    out = []
    for r in (1, -1, 3, -3, 5, -5):
        m = (r * inv) % 2**46 + 2**53
        out.append("0." + str((m * 5**20 - r) // 2**46).zfill(20))
    return out


# Tokens the compact route reads from significands, those json reads within the route, and the edges of both
_TOKENS = ["0", "-0", "0.0", "-0.0", "1e-05", "1.5", "12", "-1E+2", "0.5e-3",
           "0.123456789012345678", "-0.00012345678901234567", "0.0000012345678901234567",
           "0.1234567890123456789012", "0.9999999999999999999999", "0.0000000000000000000001",
           "0.12499999999999999", "0.125", "0.12500000000000003", "0.24999999999999997", "0.25",
           "0.25000000000000006", "0.49999999999999994", "0.5", "0.50000000000000011",
           "0.99999999999999989", "0.10000000000000001", "0.00010000000000000001", "0.99999999999999994449",
           ] + _near_midpoints()
_TOKENS += ["-" + t for t in _TOKENS if not t.startswith("-")]
_TOKEN_PAIRS = ",".join(f"[{a},{b}]" for a, b in zip(_TOKENS[0::2], _TOKENS[1::2] + ["0.5"]))
_TOKEN_COUNT = (len(_TOKENS) + 1) // 2
_SPELLINGS = ('{"rows":2,"cols":2,"dim_a":2,"dim_b":2,"normalized":false,'
              '"data":[[1E+2,-0],[0,12],[0.5e-3,-1.25E-2],[-0e0,1E-05]]}')
VALID = {
    "d1": _edge_state_text(1),
    "d6": _edge_state_text(6),
    "d128": _edge_state_text(128),
    "spaced_d16": _spaced(_edge_state_text(16)),
    "spellings": _SPELLINGS,
    "tokens": '{"cols":%d,"data":[%s],"dim_a":1,"dim_b":%d,"normalized":false,"rows":1}\n'
              % (_TOKEN_COUNT, _TOKEN_PAIRS, _TOKEN_COUNT),
    "duplicate_compact_data": '{"cols":130,"data":[%s],"data":[%s],"rows":1}'
                              % (_writer_pairs(130, 1), _writer_pairs(130, 2)),
    "escaped_duplicate_key": '{"cols":130,"data":[%s],"\\u0064ata":[%s],"rows":1}'
                             % (_writer_pairs(130, 1), _writer_pairs(130, 2)),
    "fraction_23_digits": '{"cols":130,"data":[[0.12345678901234567890123,-0.5],%s],"rows":1}'
                          % _writer_pairs(129, 3),
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
    # the compact route's own checks: a mark past "0.", a stray bracket or sign, an empty or digitless token
    "nul_byte": _BASE.replace(_SPAN, "[[0.6,0.0],[0.0,0.\x008]]"),
    "mark_in_significand": _BASE.replace(_SPAN, "[[0.6,0.0],[0.0,0.8-1]]"),
    "second_point": _BASE.replace(_SPAN, "[[0.6,0.0],[0.0,0.8.1]]"),
    "stray_bracket": _BASE.replace(_SPAN, "[[0.6,0.0],[0.0,0.[8]]"),
    "bracket_pair": _BASE.replace(_SPAN, "[[0.6,0.0],[[0.0],0.8]]"),
    "lone_sign": _BASE.replace(_SPAN, "[[0.6,-],[0.0,0.8]]"),
    "point_only": _BASE.replace(_SPAN, "[[0.6,0.],[0.0,0.8]]"),
    "empty_pair": _BASE.replace(_SPAN, "[[0.6,0.0],[]]"),
    "misplaced_brackets": _BASE.replace(_SPAN, "[[0.6,0.25,[0.5],0.8]]"),
    "duplicate_empty_data": _BASE.replace('"rows":1', '"rows":1,"data":[]'),
    "escaped_empty_data": _BASE.replace('"rows":1', '"rows":1,"\\u0064ata":[]'),
    "negative_dims": _BASE.replace('"rows":1', '"rows":-1').replace('"cols":2', '"cols":-2'),
}


# every file as it is, and each that _compact keeps valid (one data key, no whitespace) in a compact span
_VALID_CASES = [(n, "as_is") for n in sorted(VALID)] + [(n, "compact") for n in sorted(VALID) if n not in (
    "d128", "spaced_d16", "duplicate_compact_data", "escaped_duplicate_key")]


@pytest.mark.parametrize("name, form", _VALID_CASES)
def test_valid_files_read_the_same_bits(name, form, tmp_path):
    text = _compact(VALID[name]) if form == "compact" else VALID[name]
    path = tmp_path / "m.json"
    path.write_text(text, encoding="ascii")
    want = _outcome(_reference, path)
    assert isinstance(want[0], tuple)  # a valid file
    assert _outcome(matcore.read_cmjson, path) == want
    m, obj = matcore.read_cmjson(path)  # data: the matrix's pairs, bit-equal to json's
    pairs = np.array(_reference(path)[1]["data"], dtype=float)
    assert obj["data"].dtype == float and obj["data"].shape == pairs.shape == (m.size, 2)
    assert obj["data"].tobytes() == pairs.tobytes() and np.shares_memory(obj["data"], m)
    assert _compact_route(text) == (form == "compact" or name in ("d128", "fraction_23_digits"))


@pytest.mark.parametrize("piece_bytes", [1, 64, 1000])
def test_compact_files_read_the_same_bits_in_pieces_of_any_size(piece_bytes, tmp_path, monkeypatch):
    monkeypatch.setattr(matcore, "_PIECE_BYTES", piece_bytes)
    for text in (_compact(VALID["tokens"]), _compact(VALID["d6"]), _compact(INVALID["minus_zero_integers"])):
        assert _compact_route(text)
        path = tmp_path / "m.json"
        path.write_text(text, encoding="ascii")
        assert _outcome(matcore.read_cmjson, path) == _outcome(_reference, path)


def test_state_files_keep_signed_zeros_and_subnormals_on_the_compact_route(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(VALID["d128"], encoding="ascii")
    assert _compact_route(VALID["d128"])
    coeffs = states.read_state(path).coeffs
    flat = coeffs.ravel()
    assert np.signbit(flat.real[:3]).tolist() == [True, True, False]
    assert np.signbit(flat.imag[:3]).tolist() == [False, True, True]
    assert flat[3] == complex(5e-324, -1.5e-310) and flat[0].imag == 1e300


def test_near_midpoints_and_binade_edges_read_as_json_reads_them():
    """Each token alone, as the first of 256 values: json's bits, from the route's arithmetic or from its
    near-tie check."""
    tail = _writer_pairs(127)
    for token in _TOKENS:
        raw = ('{"cols":128,"data":[[%s,0.5],%s],"rows":1}' % (token, tail)).encode("ascii")
        obj = matcore._compact_fields(raw)
        assert obj is not None, token
        assert obj["data"][0, 0].tobytes() == np.float64(json.loads(token)).tobytes(), token


def test_json_reads_just_the_tokens_no_significand_gives(monkeypatch):
    """Within the compact route json reads only the tokens outside ``-?0.`` and 1-22 digits, significands of
    10**18 or more, and near-ties; every other token is read from its significand."""
    seen = []
    monkeypatch.setattr(matcore, "json", types.SimpleNamespace(loads=lambda b: seen.append(b) or json.loads(b)))
    pairs = [f"[{t},0.5]" for t in _TOKENS] + ["[0.5,0.5]"] * 128
    raw = ('{"cols":%d,"data":[%s],"rows":1}' % (len(pairs), ",".join(pairs))).encode("ascii")
    assert matcore._compact_fields(raw) is not None
    read = b",".join(b[1:-1] for b in seen[1:]).decode("ascii").split(",")  # seen[0]: the other fields
    near = {s + t for s in ("", "-") for t in _near_midpoints()}
    assert read == [t for t in _TOKENS if t in near or not re.fullmatch(r"-?0\.\d{1,22}", t)
                    or int(t.split(".")[1]) >= 10**18]


@pytest.mark.parametrize("name", sorted(INVALID))
@pytest.mark.parametrize("form", ["as_is", "compact"])
def test_other_files_give_the_same_outcome(name, form, tmp_path):
    text = _compact(INVALID[name]) if form == "compact" else INVALID[name]
    path = tmp_path / "m.json"
    path.write_text(text, encoding="ascii")
    assert _outcome(matcore.read_cmjson, path) == _outcome(_reference, path)


def test_a_non_ascii_file_gives_the_same_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(_compact(_BASE).replace("0.8", "0.8é").encode("utf-8"))
    want = _outcome(_reference, path)
    assert want[0] is UnicodeDecodeError
    assert _outcome(matcore.read_cmjson, path) == want


_FILES = {**{f"valid_{n}": VALID[n].encode("ascii") for n in ("d1", "d128")},
          "valid_compact_tokens": _compact(VALID["tokens"]).encode("ascii"),
          **{n: INVALID[n].encode("ascii") for n in INVALID},
          **{f"compact_{n}": _compact(INVALID[n]).encode("ascii") for n in INVALID},
          "non_ascii": _BASE.replace("0.8", "0.8é").encode("utf-8")}


@pytest.mark.parametrize("name", sorted(_FILES))
@pytest.mark.parametrize("enabled", [True, False])
def test_the_collector_is_paused_for_the_parse_and_then_restored(name, enabled, tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    path.write_bytes(_FILES[name])
    seen = []
    to_matrix = matcore.cmjson_to_matrix
    monkeypatch.setattr(matcore, "cmjson_to_matrix",
                        lambda obj: seen.append((gc.isenabled(), type(obj.get("data")))) or to_matrix(obj))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        _outcome(matcore.read_cmjson, path)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is enabled
    # paused on either route until data has replaced json's lists; the compact route hands over no lists
    assert all(not on for on, _ in seen)
    if name.startswith("valid"):
        compact = _compact_route(_FILES[name].decode("ascii"))
        assert [kind for _, kind in seen] == [np.ndarray if compact else list]


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
    bad.write_text(_compact(INVALID[name]), encoding="ascii")
    good.write_text(_BASE, encoding="ascii")
    argv = ["canonical", "--c", str(good), "--d", str(bad)]
    got = _cli(argv)
    monkeypatch.setattr(matcore, "read_cmjson", _reference)
    assert got == _cli(argv)


@pytest.mark.parametrize("field", ["rows", "cols", "data", "dim_a", "dim_b", "normalized"])
@pytest.mark.parametrize("form", ["as_is", "compact"])
def test_a_missing_field_is_a_value_error_naming_it(field, form, tmp_path):
    obj = json.loads(_BASE)
    del obj[field]
    text = json.dumps(obj, separators=(",", ":"))
    text = _compact(text) if form == "compact" else text
    assert _compact_route(text) == (form == "compact" and field in ("dim_a", "dim_b", "normalized"))
    path = tmp_path / "s.json"
    path.write_text(text, encoding="ascii")
    where = "cmjson" if field in ("rows", "cols", "data") else "state file"
    with pytest.raises(ValueError, match=f"^{where} has no field {field}$"):
        states.read_state(path)
    code, out, err = _cli(["canonical", "--c", str(path), "--d", str(path)])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": f"{where} has no field {field}"}


@pytest.mark.parametrize("field", ["order", "table"])
def test_a_group_file_without_order_or_table_is_a_bad_params_error(field, tmp_path):
    path = tmp_path / "g.json"
    obj = {"order": 2, "table": [[0, 1], [1, 0]]}
    del obj[field]
    path.write_text(json.dumps(obj), encoding="ascii")
    code, out, err = _cli(["grouprep", "--group", str(path), "--count", "1"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "BadParamsError", "message": f"group file has no field {field}"}


# property tests: the writer's text of any float64 pairs reads back bit for bit, and any compact "0.<digits>"
# text reads to json's bits
_VALUE_EDGES = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e300, 1e-5, 1e-4, 0.1, 0.5, 1.0, 1.5])


@settings(max_examples=60)
@given(pairs=st.integers(128, 700), seed=st.integers(0, 2**32 - 1), low=st.integers(-8, 1),
       span=st.integers(0, 8), edges=st.lists(_VALUE_EDGES, max_size=12))
def test_written_pairs_read_back_bit_for_bit(pairs, seed, low, span, edges, tmp_path_factory):
    rng = np.random.default_rng(seed)
    n = 2 * pairs
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(low, low + span, n)
    # neighbours of powers of two and of short decimals, one ulp either way
    near = np.concatenate([2.0 ** -rng.integers(1, 40, 16), rng.integers(1, 1000, 16) / 10.0 ** rng.integers(1, 5, 16)])
    near = np.concatenate([near, np.nextafter(near, 0), np.nextafter(near, 1)]) * rng.choice([-1.0, 1.0], 3 * 32)
    values[rng.choice(n, near.size, replace=False)] = near
    values[rng.choice(n, len(edges), replace=False)] = edges
    path = tmp_path_factory.mktemp("pairs") / "m.json"
    path.write_text(matcore.matrix_json_text(values.view(complex).reshape(1, -1)), encoding="ascii")
    assert _compact_route(path.read_text(encoding="ascii"))
    assert matcore.read_cmjson(path)[0].tobytes() == values.tobytes()


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), tokens=st.lists(st.tuples(st.booleans(), st.text("0123456789", min_size=1,
                                                                                       max_size=24)), max_size=40))
def test_compact_decimal_fractions_read_to_jsons_bits(seed, tokens):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 23, 256)
    fill = [("-" if rng.random() < 0.5 else "") + "0." + "".join(map(str, rng.integers(0, 10, k))) for k in sizes]
    fill[: len(tokens)] = [("-" if minus else "") + "0." + digits for minus, digits in tokens]
    text = '{"cols":128,"data":[%s],"rows":1}' % ",".join(f"[{a},{b}]" for a, b in zip(fill[0::2], fill[1::2]))
    obj = matcore._compact_fields(text.encode("ascii"))
    assert obj is not None
    assert obj["data"].tobytes() == np.array(json.loads(text)["data"], dtype=float).tobytes()
