"""Dense complex linear algebra core.

Everything in this module is a pure function of its inputs, operating on
immutable-by-convention numpy arrays of complex dtype.  Decompositions are
delegated to LAPACK (via numpy), which is deterministic for fixed input
bits; this module adds the rank conventions, tolerance policy, and checks
the rest of the package relies on.

Rank rule, one for every support, as a count: ``rank_cut`` keeps the first of a factor X's descending
singular values, those above ``rank_tol * largest`` (default ``max(rows, cols) * 1e-12``), and ``Svd.cut``
takes it once per tolerance; callers slice the kept prefix or zero-fill past it.  Functions of ``X X*``
come from X's SVD (``gram_power``); only ``psd_function``, with no factor at hand, cuts eigenvalues, i.e.
X's scale at the tolerance's root.  Every LAPACK call goes through ``lapack``.
"""

from __future__ import annotations

import dataclasses
import gc
import inspect
import io
import itertools
import json
import math
from collections.abc import Iterator

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatchError,
    NoConvergenceError,
    NotHermitianError,
    NotPsdError,
)

__all__ = [
    "HermitianEigen",
    "Record",
    "Svd",
    "as_matrix",
    "dagger",
    "gram_power",
    "hermitian_eigen",
    "hermitian_part",
    "inv_sqrt",
    "matrix_sign",
    "op_norm",
    "op_norm_exceeds",
    "pseudoinverse",
    "psd_eigen",
    "psd_function",
    "psd_sqrt",
    "rank_cut",
    "read_cmjson",
    "schur_psd_margin",
    "svd",
    "trace_norm",
]

RANK_TOL_SCALE = 1e-12
_SCREEN_MARGIN = 1e-10


def as_matrix(m, stack: bool = False) -> np.ndarray:
    """Validate and return ``m`` as a 2-D complex array with finite entries; with ``stack``, 3-D too."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 and not (stack and a.ndim == 3):
        raise DimensionMismatchError(f"expected a 2-D array, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().mT


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + dagger(m)) / 2`` of a square float or complex matrix, or of each matrix of a stack: the same
    bits, C-ordered, built in one array (``m*`` written into it, then ``+= m`` and ``/= 2`` in place)."""
    h = np.conjugate(m.mT, out=np.empty_like(m, order="C"))
    h += m
    h /= 2
    return h


class Record:
    """Base of the package's frozen records: the fields are a subclass's annotated names in order, their
    defaults its class attributes of those names.  Unlike ``@dataclass(frozen=True)`` it compiles no code
    per class, but it binds arguments, runs ``__post_init__``, raises ``FrozenInstanceError`` on a set or
    delete and serves ``dataclasses.replace`` alike.  ``==``, ``hash`` and ``repr`` skip ``_hidden``."""

    def __init_subclass__(cls):
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        required = max((i + 1 for i, n in enumerate(fields) if not hasattr(cls, n)), default=0)
        cls._fields, cls._shown = fields, tuple(n for n in fields if n not in getattr(cls, "_hidden", ()))
        cls._spec = (fields, frozenset(fields), required, hasattr(cls, "__post_init__"))
        cls.__dataclass_fields__ = {n: dataclasses.field(repr=n in cls._shown, compare=n in cls._shown)
                                    for n in fields}
        for n, f in cls.__dataclass_fields__.items():
            f.name, f._field_type = n, dataclasses._FIELD

    def __init__(self, *args, **kwargs):
        fields, names, required, post_init = self._spec
        given = self.__dict__  # a default is read from the class
        if args:
            if len(args) == 1 and fields:  # the common case, without an iterator
                given[fields[0]] = args[0]
            elif len(args) <= len(fields):
                for i, value in enumerate(args):
                    given[fields[i]] = value
        given.update(kwargs)
        # with args: a name twice or too many, or (with keywords) not each field once, or (without) too few
        if (kwargs.keys() != names if not args else len(given) != len(args) + len(kwargs)
                or (given.keys() != names if kwargs else len(args) < required)):
            self._bind(args, kwargs)
        if post_init:
            self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> None:  # raises the TypeError, or binds with defaults taken
        p = inspect.Parameter  # apart from __init__, whose self a comprehension there would make a cell
        inspect.Signature([p(n, p.POSITIONAL_OR_KEYWORD, default=getattr(type(self), n, p.empty))
                           for n in self._fields]).bind(*args, **kwargs)

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, n) for n in self._shown)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._shown)})"

    def to_dict(self) -> dict:
        return {n: getattr(self, n) for n in self._fields}


class HermitianEigen(Record):
    """Spectral decomposition ``V diag(values) V*`` with values descending (of each matrix of a stack)."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values[..., None, :]) @ dagger(self.vectors)


class Svd(Record):
    """Decomposition ``m = u diag(singulars) v*`` with singulars descending.

    ``u`` and ``v`` carry orthonormal columns (economy shape).  Of a stack, every
    field and method is per matrix.
    """

    u: np.ndarray
    singulars: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.singulars[..., None, :]) @ dagger(self.v)

    def cut(self, rank_tol: float | None = None) -> int:
        """``rank_cut`` of the singular values, decided once per ``rank_tol``: the rule keeps the first
        ``cut``.  The matrices of a stack must share it, else DimensionMismatchError."""
        cuts = self.__dict__.setdefault("_cuts", {})  # not a field: ==, hash, repr and to_dict() skip it
        if rank_tol not in cuts:
            cuts[rank_tol] = rank_cut(self.singulars, max(self.u.shape[-2], self.v.shape[-2]), rank_tol)
        return cuts[rank_tol]


def lapack(name: str, *args, **kwargs):
    """``np.linalg.<name>(*args, **kwargs)``, the package's one call into LAPACK: a LinAlgError raises
    NoConvergenceError.  The function is looked up on ``np.linalg`` at each call, so a wrapper set there
    sees every decomposition."""
    try:
        return getattr(np.linalg, name)(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc


def hermitian_eigen(m, tol: float = 1e-10) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of an (n, d, d) stack.

    Eigenvalues are sorted descending; ties keep LAPACK's (ascending) order
    reversed, which is deterministic for fixed input bits.

    Raises NotHermitianError when ``||m - m*||_inf > tol`` and
    NoConvergenceError if the LAPACK iteration fails.
    """
    a = as_matrix(m, stack=True)
    if a.shape[-2] != a.shape[-1]:
        raise DimensionMismatchError(f"matrix must be square, got {a.shape}")
    if op_norm_exceeds(a - dagger(a), tol):
        raise NotHermitianError(f"matrix is not Hermitian within tol={tol}")
    w, v = lapack("eigh", a)
    return HermitianEigen(values=w[..., ::-1].copy(), vectors=v[..., ::-1].copy())


def svd(m, stack: bool = False) -> Svd:
    """Singular value decomposition ``m = U Sigma V*``; with ``stack``, of each matrix of a stack."""
    a = as_matrix(m, stack)
    u, s, vh = lapack("svd", a, full_matrices=False)
    return Svd(u=u, singulars=s, v=dagger(vh))


def rank_cut(values: np.ndarray, n: int, rank_tol: float | None = None) -> int:
    """The rank rule: how many of the descending ``values`` exceed ``rank_tol * max(largest, 0)``,
    each row's own largest for a stack of rows, which must share the count (else DimensionMismatchError).

    The default tolerance is ``n * 1e-12``, ``n = max(rows, cols)``.
    """
    tol = rank_tol if rank_tol is not None else n * RANK_TOL_SCALE
    keep = values > tol * values.max(axis=-1, keepdims=True, initial=0.0)
    kinds = {int(np.count_nonzero(keep))} if keep.ndim == 1 else set(keep.sum(axis=-1).tolist())
    if len(kinds) > 1:
        raise DimensionMismatchError(f"a stack's matrices keep {sorted(kinds)} singular values")
    return kinds.pop() if kinds else 0


def gram_power(f: Svd, power: int, rank_tol: float | None = None) -> np.ndarray:
    """``U S^power U*`` over the kept singular values of ``X = U S V*`` (of each X of a stack, all cut
    alike): power 1, -1 and 0 give the square root, pseudoinverse square root and image projector of ``X X*``."""
    r = f.cut(rank_tol)
    u = f.u[..., :r]
    return (u * f.singulars[..., None, :r] ** power) @ dagger(u)


def pseudoinverse(m, rank_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse.

    Singular values below ``rank_tol * sigma_max`` are treated as zero.
    The zero matrix maps to the zero matrix.
    """
    f = svd(m)
    r = f.cut(rank_tol)
    inv = np.zeros_like(f.singulars)
    inv[:r] = 1.0 / f.singulars[:r]
    return (f.v * inv) @ dagger(f.u)


def matrix_sign(m) -> np.ndarray:
    """Partial-isometry factor ``U sgn(Sigma) V*`` of a square matrix.

    Equal to the gauge-free function ``m (m* m)^(-1/2)`` (pseudoinverse
    square root), so degenerate singular values cause no ambiguity; the
    retained support is decided on the singular values directly, by the
    default rank rule.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {a.shape}")
    f = svd(a)
    r = f.cut()
    return f.u[:, :r] @ dagger(f.v[:, :r])


def psd_eigen(m, tol: float = 1e-10) -> HermitianEigen:
    """``hermitian_eigen`` of a PSD matrix: an eigenvalue below ``-tol`` raises NotPsdError."""
    eig = hermitian_eigen(m, tol=max(tol, 1e-10))
    if eig.values.size and eig.values[-1] < -tol:
        raise NotPsdError(f"min eigenvalue {eig.values[-1]:.3e} < -tol={tol}")
    return eig


def psd_function(eig: HermitianEigen, fn, rank_tol: float | None = None) -> np.ndarray:
    """``V fn(w) V*`` over the eigenvalues kept by the rank rule; the rest map to 0.

    With no factor at hand: the negative dust ``psd_eigen`` lets through and
    eigenvalues below ``rank_tol * largest`` count as zero, which keeps ``sqrt``
    from amplifying O(eps) junk into O(sqrt(eps)) rank.  One decomposition
    serves every ``fn``.
    """
    r = rank_cut(eig.values, eig.values.shape[-1], rank_tol)
    vals = np.zeros_like(eig.values)
    vals[..., :r] = fn(eig.values[..., :r])
    return (eig.vectors * vals) @ dagger(eig.vectors)


def inv_sqrt(w: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(w)


def psd_sqrt(m, tol: float = 1e-10, rank_tol: float | None = None) -> np.ndarray:
    """Hermitian PSD square root (``psd_function`` with ``sqrt``)."""
    return psd_function(psd_eigen(m, tol), np.sqrt, rank_tol)


def trace_norm(m) -> float:
    """Schatten-1 norm: sum of singular values."""
    return float(svd(m).singulars.sum())


def op_norm(m) -> float:
    """Operator norm: largest singular value; an (n, r, c) stack gives an array of n norms."""
    s = np.max(svd(m, stack=True).singulars, axis=-1, initial=0.0)
    return float(s) if s.ndim == 0 else s


def op_norm_exceeds(m, tol: float) -> bool:
    """``op_norm(m) > tol`` for a matrix, or for any matrix of an (n, d, d) stack (see ``exceeding``)."""
    return any(exceeding(m, tol))


def exceeding(m, tol: float) -> Iterator[bool]:
    """``op_norm(x) > tol`` for the matrix ``m``, or for each matrix x of an (n, d, d) stack, in order.

    The Frobenius norm bounds the operator norm from above, so a Frobenius
    norm at most ``tol`` settles a matrix as False; only a matrix with a
    larger one falls back to its exact operator norm.  The screen keeps a
    relative margin of ``_SCREEN_MARGIN`` below ``tol``, which covers the
    rounding of both norms where they coincide (rank one), so each matrix
    gets the same decision as ``op_norm(m) > tol``.  A non-finite norm fails
    the screen, so such input reaches ``op_norm`` exactly as before.  The
    screen compares squared norms, a whole stack's in one ``vecdot``; only
    the matrices that fail it are decomposed, as the decisions are read.
    """
    m = np.asarray(m)
    stack = m if m.ndim == 3 else m[None]
    rows = stack.reshape(len(stack), stack.shape[1] * stack.shape[2])
    squares = np.vecdot(rows, rows).real.tolist()  # squared Frobenius norms
    bound = (tol * (1.0 - _SCREEN_MARGIN)) ** 2
    return (not sq <= bound and op_norm(x) > tol for sq, x in zip(squares, stack))


def _min_eig(h: np.ndarray) -> float:
    """The smallest eigenvalue of the Hermitian ``h`` (0 when it is empty)."""
    w = lapack("eigvalsh", h)
    return float(w[0]) if w.size else 0.0


def schur_psd_margin(a, b, c, tol: float = 1e-9) -> float:
    """Minimum eigenvalue of the block matrix ``[[A, B], [B*, C]]``, cross-checked.

    Two redundant paths are evaluated: the generalized Schur-complement
    criterion (A >= 0, the rows of B stay inside Image(A), and
    C - B* A^-1 B >= 0, all up to ``tol``) and the direct minimum
    eigenvalue of the assembled block, which is returned.  A confident
    disagreement (direct margin farther than 1e-6 from zero) raises
    ConsistencyError.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    c = as_matrix(c)
    n, nb = a.shape
    mc, m = c.shape
    if n != nb or mc != m:
        raise DimensionMismatchError("A and C must be square")
    if b.shape != (n, m):
        raise DimensionMismatchError(f"B must be {n}x{m}, got {b.shape}")
    if op_norm_exceeds(a - dagger(a), tol) or op_norm_exceeds(c - dagger(c), tol):
        raise NotHermitianError("A and C must be Hermitian within tol")

    a_pinv = pseudoinverse(a)
    criterion = (
        _min_eig(hermitian_part(a)) >= -tol
        and not op_norm_exceeds((np.eye(n) - a @ a_pinv) @ b, tol)
        and _min_eig(hermitian_part(c - dagger(b) @ a_pinv @ b)) >= -tol
    )
    del a_pinv
    # hermitian_part of the block, built in place a quadrant at a time: quadrant (i, j) is
    # (H_ij + H_ji*) / 2, with H_ji* = [[A*, B], [B*, C*]]_ij written first
    h = np.empty((n + m, n + m), dtype=complex)
    np.conjugate(a.mT, out=h[:n, :n])
    h[:n, n:] = b
    np.conjugate(b.mT, out=h[n:, :n])
    np.conjugate(c.mT, out=h[n:, n:])
    h[:n, :n] += a
    h[:n, n:] += b
    h[n:, :n] += h[n:, :n]  # H_10 = B* is what the quadrant holds
    h[n:, n:] += c
    h /= 2
    direct_margin = _min_eig(h)
    direct = direct_margin >= -tol
    if criterion != direct and abs(direct_margin) > 1e-6:
        raise ConsistencyError(
            f"Schur criterion ({criterion}) and direct eigenvalue check "
            f"({direct}, margin {direct_margin:.3e}) disagree"
        )
    return direct_margin


# ---------------------------------------------------------------------------
# Output text, one rule for every printed value: floats to 17 significant
# digits, true/false, null, and a line is a dict with sorted keys.
# "cmjson" file format: {"rows": r, "cols": c, "data": [[re, im], ...]}
# row-major, NaN/Inf rejected on read.
# ---------------------------------------------------------------------------


_TEMPLATE_MIN_VALUES = 256  # below this numpy's fixed cost exceeds what it saves over "%.17g"
_PAIRS_PER_FORMAT = 1024  # [re, im] pairs per "%" call, which bounds the Python ints alive at once
_DECADES = np.array([1e-4, 1e-3, 1e-2, 0.1])  # each double lies just above its power of ten
_POW10 = np.array([float(10**p) for p in range(17, 21)])  # exact doubles
# "0." and z zeros before "%d", as "[...," for a real part and "...]," for an imaginary one: index z, + 4 if negative
_PIECES = np.array([f"{'[' * (im == 0)}{s}0.{'0' * z}%d{'],' if im else ','}"
                    for im in (0, 1) for s in ("", "-") for z in range(4)], dtype=object)


def _exact_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi = fl(a * b) and hi + lo = a * b exactly: Dekker's product, Veltkamp's split by 2**27 + 1."""
    hi = a * b
    ca, cb = a * 134217729.0, b * 134217729.0
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _pairs_text(flat: np.ndarray) -> str:
    """``[re,im],...`` of whole pairs, each value as ``format_value`` prints it.  A value in [1e-4, 1) is
    ``"0."``, z zeros and its 17-digit significand, the integer nearest a * 10**(17 + z) (ties to even):
    ``_exact_product`` gives that product as hi + lo exactly, and hi is an even integer past 2**53."""
    a = np.abs(flat)
    fast = (a >= 1e-4) & (a < 1)
    a = np.where(fast, a, 0.5)
    z = 4 - np.searchsorted(_DECADES, a, side="right")
    hi, lo = _exact_product(a, _POW10[z])
    sig = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= (sig >= 10**16) & (sig < 10**17)  # one that rounds up to the next power of ten prints by itself
    ends = np.flatnonzero(fast & (sig % 10 == 0))
    while ends.size:  # strip trailing zeros
        sig[ends] //= 10
        ends = ends[sig[ends] % 10 == 0]
    code = z + 4 * np.signbit(flat)
    code[1::2] += 8
    pieces = _PIECES[code]
    slow = np.flatnonzero(~fast)
    for k, v in zip(slow.tolist(), flat[slow].tolist()):
        pieces[k] = ("%s]," if k % 2 else "[%s,") % format_value(v)
    return "".join(pieces.tolist())[:-1] % tuple(sig[fast].tolist())


def format_value(x) -> str:
    """Output text of one value; a complex128 array or a float64 array of pairs prints as ``[[re,im],...]``,
    and any other array raises TypeError.

    Negative zero prints as ``-0.0``: JSON reads ``-0`` as the integer 0, which drops the sign.
    """
    if isinstance(x, np.ndarray):
        if x.dtype != np.complex128 and (x.dtype != np.float64 or x.size % 2):
            raise TypeError(f"format_value prints complex128 values or float64 [re, im] pairs, "
                            f"not {x.size} values of dtype {x.dtype}")
        flat, step = x.ravel().view(np.float64), 2 * _PAIRS_PER_FORMAT
        if flat.size >= _TEMPLATE_MIN_VALUES:
            return "[" + ",".join([_pairs_text(flat[i:i + step]) for i in range(0, flat.size, step)]) + "]"
        text = ",".join(["[%.17g,%.17g]"] * (flat.size // 2)) % tuple(flat.tolist())
        return "[" + text.replace("[-0,", "[-0.0,").replace(",-0]", ",-0.0]") + "]"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        text = f"{float(x):.17g}"
        return "-0.0" if text == "-0" else text
    if x is None:
        return "null"
    return json.dumps(x)


def json_line(items: dict) -> str:
    """``{"k":v,...}`` and a newline: sorted keys, each value by ``format_value``.  A float that JSON
    cannot hold (inf, nan) raises ValueError naming its key, so every line parses."""
    for k, v in items.items():
        if isinstance(v, (float, np.floating)) and not math.isfinite(v):
            raise ValueError(f"{k} is {v}, which JSON cannot hold")
    return "{" + ",".join(f'"{k}":{format_value(items[k])}' for k in sorted(items)) + "}\n"


def matrix_to_cmjson(m) -> dict:
    """cmjson fields of a matrix; ``data`` is the float array of its [re, im] pairs, row-major."""
    a = as_matrix(m)
    return {"rows": a.shape[0], "cols": a.shape[1], "data": a.ravel().view(float).reshape(-1, 2)}


def cmjson_to_matrix(obj: dict) -> np.ndarray:
    """The matrix of cmjson fields: ``rows`` and ``cols`` are integers (``json_count``) and ``data`` is a
    list of rows*cols [re, im] pairs of JSON numbers (or a float array of them, as ``matrix_to_cmjson`` and
    ``read_cmjson`` give it).  Anything else raises ValueError naming the field, or DimensionMismatchError for a
    data length off rows*cols."""
    if type(obj) is not dict:
        raise ValueError(f"cmjson must be a JSON object, got {type(obj).__name__}")
    rows, cols = json_count(obj, "rows", "cmjson"), json_count(obj, "cols", "cmjson")
    data = pairs = json_field(obj, "data", "cmjson")
    if not (isinstance(data, np.ndarray) and data.dtype == np.float64 and data.shape[1:] == (2,)):
        pairs, data = None, data.tolist() if isinstance(data, np.ndarray) else data
        if type(data) is not list:
            raise ValueError(f"cmjson data must be a list of [re, im] pairs, got {type(data).__name__}")
    if len(data) != rows * cols:
        raise DimensionMismatchError(
            f"cmjson data length {len(data)} != rows*cols = {rows * cols}"
        )
    if pairs is None:
        try:  # a pair of anything but two numbers fails the length or the types, strings and objects included
            flat = list(itertools.chain.from_iterable(data)) if set(map(len, data)) <= {2} else None
        except TypeError:  # an entry without a length
            flat = None
        if flat is None or not set(map(type, flat)) <= {int, float}:
            raise ValueError("cmjson data entries must be [re, im] pairs of numbers")
        try:
            pairs = np.fromiter(flat, float, len(flat))
        except OverflowError:  # an integer past the float range, as a literal past it reads inf
            raise ValueError("cmjson data holds an integer too large for a float") from None
    bad = ~np.isfinite(pairs.reshape(-1, 2)).all(axis=1)
    if bad.any():
        raise ValueError(f"cmjson entry {int(bad.argmax())} is not finite")
    return np.ascontiguousarray(pairs).view(complex).reshape(rows, cols)  # [re, im] is complex128's layout


def json_field(obj: dict, key: str, where: str):
    """``obj[key]``, or ValueError naming the field when ``obj`` has none."""
    if key not in obj:
        raise ValueError(f"{where} has no field {key}")
    return obj[key]


def json_count(obj: dict, key: str, where: str) -> int:
    """``obj[key]`` when it is a JSON integer >= 0 (not a boolean, not a float), else ValueError naming it."""
    v = json_field(obj, key, where)
    if type(v) is not int or v < 0:
        raise ValueError(f"{where} field {key} must be an integer >= 0, got {v!r}")
    return v


def matrix_json_text(m, extra: dict | None = None) -> str:
    """cmjson text of a matrix, with ``extra``'s keys beside its own."""
    return json_line({**(extra or {}), **matrix_to_cmjson(m)})


# Reading.  A file whose data is one "data" key's [[re,im],...] of at least _TEMPLATE_MIN_VALUES values with no
# whitespace, as the writer prints it, is read by _compact_fields in pieces of about 1500 of the writer's pairs.
_TEN = np.array([10.0**k for k in range(23)])  # exact doubles
_NUMBER_BYTES = bytes(c if c in b"0123456789,.-[]eE+" else ord("x") for c in range(256))  # any other byte to "x"
_PIECE_BYTES = 64 * _PAIRS_PER_FORMAT  # a piece ends at the first "],[" past this many bytes


def _piece_values(piece: bytes, out: np.ndarray) -> int:
    """How many values ``[t,t],...,[t,t]`` holds, written to ``out`` with json's bits; 0 if it is not of that
    form.  A token ``-?0.`` and L <= 22 digits of int64 significand F < 10**18 is F / 10**L: one correctly
    rounded division q while F < 2**53 (Clinger), and past that q + (F - q 10**L) / 10**L from the exact residual,
    kept unless it lies within 2**-40 ulp of a midpoint.  json reads the other tokens and those near-ties."""
    digits = piece.translate(_NUMBER_BYTES, b"[]-.eE+")
    x, d = np.frombuffer(piece, np.uint8), np.frombuffer(digits, np.uint8) == 44
    sep = np.flatnonzero(x == 44)
    odd = np.arange(sep.size) & 1
    starts, ends = np.concatenate(([1], sep + 1 + odd)), np.append(sep - odd, x.size - 1)
    if (starts.size > out.size or starts.size % 2 or b"x" in digits or d[0] or d[-1] or (d[1:] & d[:-1]).any()
            or x[0] != 91 or x[-1] != 93 or not ((x[sep[1::2] - 1] == 93) & (x[sep[1::2] + 1] == 91)).all()):
        return 0  # a byte no number holds, a token without digits, or a comma or bracket out of place
    neg = x[starts] == 45
    size = ends - starts - neg - 2  # L, if the token is "-?0." and L digits
    f = np.fromstring(digits, np.int64, sep=",")  # saturates at 2**63 - 1
    fast = (x[starts + neg] == 48) & (x[starts + neg + 1] == 46) & (size >= 1) & (size <= 22) & (f < 10**18)
    fast[np.searchsorted(starts, np.flatnonzero(x | 32 == 101), "right") - 1] = False  # an exponent
    f[~fast] = 0
    ten, fh = _TEN[size * fast], f.astype(float)
    q = f / ten
    hi, lo = _exact_product(q, ten)
    step = (((fh - hi) + (f - fh.astype(np.int64))) - lo) / ten
    nearest = q + step
    err = step - (nearest - q)  # exact, and off F / 10**L - nearest by under 2**-51 ulp
    ulp = np.abs((nearest.view(np.int64) + np.where(err < 0, -1, 1)).view(float) - nearest)  # on err's side
    fast &= ulp - 2 * np.abs(err) > ulp * 2.0**-39
    other = np.flatnonzero(~fast)
    toks = b",".join([piece[s:e] for s, e in zip(starts[other].tolist(), ends[other].tolist())])
    marks = len(toks) - len(toks.translate(None, b"-.eE+")) + np.count_nonzero(neg & fast)
    if x.size - len(digits) != 2 * starts.size - other.size + marks:
        return 0  # a bracket, or a sign, point or exponent past a significand's "0."
    np.multiply(nearest, np.where(neg, -1.0, 1.0), out=out[:starts.size])
    try:  # inf from a literal past the float range is cmjson_to_matrix's to report
        out[other] = np.fromiter(json.loads(b"[" + toks + b"]"), float, other.size)
    except (ValueError, OverflowError):  # not JSON numbers, or an integer past the float range
        return 0
    return starts.size


def _compact_fields(raw: bytes) -> dict | None:
    """The fields of ASCII cmjson bytes with ``data`` as its (n, 2) float array, as json reads them, when
    ``data`` is in the writer's form; None for any other file, valid or not."""
    start = raw.find(b'"data":[[') + 7
    end = raw.find(b"]]", start) + 2
    # the writer's first _TEMPLATE_MIN_VALUES / 2 pairs take 52 bytes each at most: a smaller file goes to json unparsed
    if start < 7 or raw.count(b"],[", start, start + 32 * _TEMPLATE_MIN_VALUES) < _TEMPLATE_MIN_VALUES // 2 - 1:
        return None
    rest = raw[:start] + b"[]" + raw[end:]
    try:
        obj = json.loads(rest) if rest.count(b'"data"') == 1 and b"\\" not in rest else None
    except ValueError:
        return None
    ok = type(obj) is dict and obj.get("data") == [] and type(obj.get("rows")) is type(obj.get("cols")) is int
    n = 2 * obj["rows"] * obj["cols"] if ok else 0
    if not _TEMPLATE_MIN_VALUES <= n <= (end - start) // 2:  # each value takes two bytes at least
        return None
    out, pos, done = np.empty(n), start + 1, 0
    while pos < end - 1:
        cut = raw.find(b"],[", pos + _PIECE_BYTES, end - 1) + 1 or end - 1
        k = _piece_values(raw[pos:cut], out[done:])
        if not k:
            return None
        pos, done = cut + 1, done + k
    obj["data"] = out.reshape(-1, 2)
    return obj if done == n else None


def read_cmjson(path) -> tuple[np.ndarray, dict]:
    """A cmjson file's matrix and fields, as ``cmjson_to_matrix(json.load(fh))`` gives them from the file in
    text mode, except that ``data`` is the matrix's (rows*cols, 2) float array of [re, im] pairs, a view of the
    matrix.  ``_compact_fields`` reads the writer's form; every other file goes to json, in text mode.  The
    cyclic garbage collector, process-wide, is paused from the parse until ``data`` has replaced json's
    lists, so that no collection walks them; its earlier state is restored on success and on error."""
    with open(path, "rb") as fh:
        raw = fh.read()
    enabled = gc.isenabled()
    gc.disable()
    try:
        obj = _compact_fields(raw) if raw.isascii() else None
        if obj is None:
            obj = json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="ascii").read())
        m = cmjson_to_matrix(obj)
        obj["data"] = m.ravel().view(float).reshape(-1, 2)
    finally:
        if enabled:
            gc.enable()
    return m, obj
