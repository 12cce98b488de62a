"""Phase-space data model of the spin Calogero-Moser (Gibbons-Hermsen) system.

A phase point consists of complex pole positions x_i, momenta p_i (normalized
so that dx_i/dt_2 = 2 p_i) and per-particle spin vectors a_i, b_i of dimension
N, subject to the bilinear normalization b_i^T a_i = 1 (plain transpose, no
complex conjugation).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CollidingPoles,
    ConstraintViolated,
    DegenerateDraw,
    DimensionMismatch,
    StateFileError,
    ZeroScale,
)

#: default floor on pairwise pole separation
EPS_COLL = 1e-6
#: default tolerance on |b_i^T a_i - 1| at construction
EPS_CONSTR = 1e-10
#: candidate draws per pole and per spin vector in random_state
DRAW_RETRIES = 50
#: most tries drawn at once in random_state; bounds its memory at O(n * _BLOCK)
_BLOCK = 128


def _freeze(arr):
    """``arr`` as a complex array on an immutable ``bytes`` buffer, which
    numpy never lets a write reach, through it or any view of it; ``arr``
    itself if it is one already, so no array is copied twice. An unpickled
    array may sit writable on ``bytes``, so every array down the ``.base``
    chain must be read-only too."""
    if isinstance(arr, np.ndarray) and arr.dtype == complex:
        base = arr
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if isinstance(base, bytes):
            return arr
    arr = np.asarray(arr, dtype=complex)
    return np.frombuffer(arr.tobytes(), complex).reshape(arr.shape)


@dataclass(frozen=True)
class PhaseState:
    """Immutable phase point of the Gibbons-Hermsen system.

    Fields are plain numpy arrays: ``x``, ``p`` of shape (n_particles,) and
    ``a``, ``b`` of shape (n_particles, spin_dim). The constructor does not
    validate; use :func:`new_state` for validated construction. Leading
    axes may stack phase points; the sizes, pairings and constraint values
    are then per point.

    Every phase point (x.ndim == 1) is immutable: the constructor copies
    each of its arrays onto an immutable ``bytes`` buffer (an array already
    read-only on one is kept), so no write can reach them and none can be
    made writable again. Its derived data :mod:`spincm.lax` computes once and
    keeps, read-only, on the instance for as long as it lives. It is no
    field: :func:`dataclasses.replace`, a copy and a pickle are new points,
    each with an empty memo of its own. A stack keeps the arrays it is
    given, such as the packed views of a flow's block.
    """

    x: np.ndarray
    p: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if np.ndim(self.x) == 1:
            for name in ("x", "p", "a", "b"):
                object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def n_particles(self):
        return self.x.shape[-1]

    @property
    def spin_dim(self):
        return self.a.shape[-1]

    def constraint_values(self):
        """b_i^T a_i for every particle (bilinear, no conjugation)."""
        return np.einsum("...ig,...ig->...i", self.b, self.a)

    def constraint_drift(self):
        """max_i |b_i^T a_i - 1|."""
        return float(np.max(np.abs(self.constraint_values() - 1.0)))

    def min_separation(self):
        """Minimal pairwise distance |x_i - x_k|, inf for a single particle."""
        n = self.n_particles
        if n < 2:
            return np.inf
        d = np.abs(self.x[:, None] - self.x[None, :])
        d[np.diag_indices(n)] = np.inf
        return float(d.min())

    def spin_pairings(self):
        """Matrix R with R_ij = b_i^T a_j."""
        return self.b @ self.a.swapaxes(-1, -2)

    def __reduce__(self):
        """A copy or a pickle is built by the constructor: never the memo."""
        return PhaseState, (self.x, self.p, self.a, self.b)

    def to_dict(self, times=None):
        out = {
            "n_particles": self.n_particles,
            "spin_dim": self.spin_dim,
            "x": complex_to_pairs(self.x),
            "p": complex_to_pairs(self.p),
            "a": complex_to_pairs(self.a),
            "b": complex_to_pairs(self.b),
        }
        if times is not None:
            out["times"] = complex_to_pairs(np.asarray(times.t))
        return out

    def save(self, path, times=None):
        write_json(path, self.to_dict(times=times))


@dataclass(frozen=True)
class TimeVector:
    """Hierarchy times (t_1, ..., t_K) entering the exponential gauge
    xi(t, z) = sum_k t_k z^k. Defaults to K = 3 zeros."""

    t: np.ndarray = field(default_factory=lambda: _freeze(np.zeros(3)))

    def __post_init__(self):
        object.__setattr__(self, "t", _freeze(self.t))
        if not np.all(np.isfinite(self.t)):
            raise ValueError("TimeVector entries must be finite")

    def xi(self, z):
        """xi(t, z) = sum_k t_k z^k."""
        zp = z ** np.arange(1, len(self.t) + 1)
        return complex(np.sum(self.t * zp))


def complex_to_pairs(arr):
    """Nested lists with every complex number as a 2-element [re, im] pair."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def pairs_to_complex(obj):
    """Inverse of :func:`complex_to_pairs`."""
    arr = np.asarray(obj, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def write_json(path, obj):
    """Write ``obj`` as compact one-line JSON: CPython encodes with its C
    encoder only through json.dumps with indent=None. An exported object is
    a new tree of dicts and lists, with no cycle for the encoder to check."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, check_circular=False))


def read_json(path, build, error):
    """``build`` of the JSON value in the file at ``path``, under the one
    error policy of the JSON input files: an unreadable file, malformed JSON,
    a missing field or an invalid value raises ``error`` naming the path once."""
    try:
        with open(path) as fh:
            return build(json.load(fh))
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from exc
    except KeyError as exc:
        raise error(f"{path}: missing field {exc}") from exc
    except (ValueError, TypeError, IndexError) as exc:
        raise error(f"{path}: {exc}") from exc


def new_state(x, p, a, b, eps_coll=EPS_COLL, eps_constr=EPS_CONSTR):
    """Validated construction of a :class:`PhaseState`.

    Raises CollidingPoles if two poles are closer than ``eps_coll``,
    ConstraintViolated if some |b_i^T a_i - 1| exceeds ``eps_constr``,
    and DimensionMismatch for inconsistent shapes.
    """
    x, p, a, b = (np.asarray(v, dtype=complex) for v in (x, p, a, b))
    if x.ndim != 1 or p.shape != x.shape:
        raise DimensionMismatch("x and p must be 1-d arrays of equal length")
    n = x.shape[0]
    if n < 1:
        raise DimensionMismatch("at least one particle is required")
    if a.ndim != 2 or a.shape[0] != n or b.shape != a.shape:
        raise DimensionMismatch("a and b must have shape (n_particles, spin_dim)")
    if a.shape[1] < 1:
        raise DimensionMismatch("spin dimension must be >= 1")
    for name, arr in (("x", x), ("p", p), ("a", a), ("b", b)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite entries in {name}")
    state = PhaseState(x=x, p=p, a=a, b=b)
    sep = state.min_separation()
    if sep <= eps_coll:
        raise CollidingPoles(f"minimal pole separation {sep:.3e} <= {eps_coll:.3e}")
    drift = state.constraint_drift()
    if drift > eps_constr:
        raise ConstraintViolated(f"max |b_i^T a_i - 1| = {drift:.3e} > {eps_constr:.3e}")
    return state


def _positive_integer(value, name, error=ValueError, stack=False):
    """``value`` as an int, or with stack=True as an integer array of one
    entry per stacked point; ``error`` naming it ``name`` unless it is one
    integer >= 1, or each entry is. A bool counts as the int it equals."""
    v = np.asarray(value)
    if (v.ndim and not stack) or v.dtype.kind not in "biu" or v.min() < 1:
        raise error(f"{name} must be an integer >= 1, got {value!r}")
    return v if stack else int(v)


def _positive_finite(value, name):
    """ValueError naming ``value`` ``name`` if it is a bool, NaN, infinite
    or not positive; TypeError if it is no real number."""
    if isinstance(value, (bool, np.bool_)) or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _first(bad):
    """Index of the first True in ``bad``, its length if there is none."""
    return int(np.argmax(bad)) if np.any(bad) else len(bad)


def random_state(n_particles, spin_dim, seed, separation=1.0):
    """Deterministic random phase point with exact spin normalization.

    Draw order, the contract that fixes the state of a seed: pole tries,
    each a (re, im) pair uniform in a complex box of half-width
    0.75 * separation * max(2, n); then p, all real parts before all
    imaginary parts, half-width 0.5; then a, likewise, half-width 1; then
    spin tries, each N real parts then N imaginary parts, half-width 1.
    A pole try is placed unless it lies closer than ``separation`` to a
    placed pole; a spin try c becomes b_i = c / (c^T a_i) unless
    |c^T a_i| < 1e-3. Each pole and each b_i gets DRAW_RETRIES tries,
    else DegenerateDraw. Tries are drawn in blocks of at most as many as
    places are left, so every drawn number is a try the one-at-a-time
    loop would draw too; blocks change the speed, never the state.
    """
    n_particles = _positive_integer(n_particles, "n_particles", DimensionMismatch)
    spin_dim = _positive_integer(spin_dim, "spin_dim", DimensionMismatch)
    _positive_finite(separation, "separation")
    rng = np.random.default_rng(seed)
    half = 0.75 * separation * max(2.0, float(n_particles))

    def cbox(size, scale):
        re = rng.uniform(-scale, scale, size=size)
        im = rng.uniform(-scale, scale, size=size)
        return re + 1j * im

    def tries(left, shape, scale):
        """min(left, _BLOCK) tries, each of ``shape``, in the stream order of
        one cbox(shape, scale) call per try."""
        u = rng.uniform(-scale, scale, size=(min(left, _BLOCK), 2) + shape)
        return u[:, 0] + 1j * u[:, 1]

    x = np.empty(n_particles, dtype=complex)
    i = failed = 0
    cand = x[:0]
    while i < n_particles:
        if failed >= DRAW_RETRIES:
            raise DegenerateDraw(f"could not place pole {i} with separation {separation}")
        if not cand.size:
            cand = tries(n_particles - i, (), half)
        # try j fails if a placed pole or an earlier try is near: its first
        # near row, with the try itself on row i + j, comes before row i + j
        near = np.abs(np.concatenate((x[:i], cand))[:, None] - cand) < separation
        j = _first(near.argmax(axis=0) < np.arange(i, i + len(cand)))
        failed = (0 if j else failed) + (j < len(cand))  # try j, if any, fails pole i + j
        x[i:i + j] = cand[:j]
        i, cand = i + j, cand[j + 1:]
    p = cbox(n_particles, 0.5)
    a = cbox((n_particles, spin_dim), 1.0)
    b = np.empty_like(a)
    i = failed = 0
    while i < n_particles:
        if failed >= DRAW_RETRIES:
            raise DegenerateDraw(f"degenerate spin draw for particle {i}")
        if not cand.size:
            cand = tries(n_particles - i, (spin_dim,), 1.0)
        k = len(cand)
        # each (1, N) @ (N, 1) pair is the BLAS dot of the 1-d c @ a_i
        pairing = np.matmul(cand[:, None], a[i:i + k, :, None])[:, 0, 0]
        # np.hypot is the libm hypot of abs(pairing); np.abs of a complex
        # array is not, and differs from it in the last bit
        j = _first(np.hypot(pairing.real, pairing.imag) < 1e-3)
        failed = (0 if j else failed) + (j < k)
        b[i:i + j] = cand[:j] / pairing[:j, None]
        i, cand = i + j, cand[j + 1:]
    return PhaseState(x=x, p=p, a=a, b=b)


def gauge_rescale(state, lam):
    """Gauge action a_i -> lam_i a_i, b_i -> b_i / lam_i; x, p unchanged.

    The bilinear pairings b_i^T a_j transform as R -> D^-1 R D with
    D = diag(lam), so every trace observable is untouched. Raises
    ValueError naming the first factor that is not finite, and ZeroScale
    for a zero one.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (state.n_particles,):
        raise DimensionMismatch("lam must have one entry per particle")
    i = _first(~np.isfinite(lam))
    if i < len(lam):
        raise ValueError(f"non-finite gauge factor lam[{i}] = {lam[i]}")
    if np.any(lam == 0):
        raise ZeroScale("gauge factors must be nonzero")
    return PhaseState(state.x, state.p, state.a * lam[:, None], state.b / lam[:, None])


def state_from_dict(data, eps_coll=EPS_COLL, eps_constr=EPS_CONSTR):
    """Rebuild a state (and optional TimeVector) from the JSON schema,
    validated by :func:`new_state` with the given tolerances."""
    x = pairs_to_complex(data["x"])
    p = pairs_to_complex(data["p"])
    a = pairs_to_complex(data["a"])
    b = pairs_to_complex(data["b"])
    state = new_state(x, p, a, b, eps_coll=eps_coll, eps_constr=eps_constr)
    if state.n_particles != data["n_particles"] or state.spin_dim != data["spin_dim"]:
        raise DimensionMismatch("declared dimensions disagree with array shapes")
    times = None
    if "times" in data and data["times"] is not None:
        times = TimeVector(pairs_to_complex(data["times"]))
    return state, times


def load_state(path, eps_coll=EPS_COLL, eps_constr=EPS_CONSTR):
    """State (and optional TimeVector) from a JSON file, as
    :func:`state_from_dict` rebuilds it; a file that :func:`read_json`
    refuses raises StateFileError. CollidingPoles, ConstraintViolated and
    DimensionMismatch pass unchanged."""
    return read_json(path, lambda data: state_from_dict(data, eps_coll, eps_constr),
                     StateFileError)
