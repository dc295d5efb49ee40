"""Truncated Fourier fields on a torus cross a polydisc of actions.

A field is a finite sum

    F(x, y, t) = sum_{|k|_1 + |l| <= N}  sum_{|alpha| <= q_y}
                 c[k, l, alpha] * y^alpha * exp(i (<k, x> + l t))

with d angle variables x, d action variables y (|y|_2 <= r), and one time
angle t whose harmonics stop at a time cutoff |l| <= N_t, 0 <= N_t <= N.
Components are vector valued (m components).  Coefficients are stored
densely as a complex array of shape ``(2N+1,)*d + (2N_t+1,) + (P, m)``
where axis ``a`` holds wave number ``k_a = index - N``, the ``d``-th axis
holds the time harmonic ``l = index - N_t``, and ``P`` enumerates the action
multi-powers in graded lexicographic order.  Fields of forced flows keep
N_t = N; autonomous fields (maps and their tori) have N_t = 0, a single
time slot, and ignore t.

Real fields satisfy c(-k,-l) = conj(c(k,l)).  Parity is tracked per
component: an "even" component satisfies F(-x, y, -t) = F(x, y, t)
(equivalently c(-k,-l) = c(k,l), i.e. real coefficients), an "odd" one
F(-x, y, -t) = -F(x, y, t) (purely imaginary coefficients).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as _dc_field, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ParameterError, PersistenceError, ShapeError, StructureError

# The parity tags, each to the tag of its component's x-derivative.
_FLIPPED = {"even": "odd", "odd": "even", None: None}
# Entries allowed in one point block: complex entries (2^18, 4 MiB) of the
# GEMM output in FourierField.evaluate_complex, where points per block = this
# // coefficient block width (2N+1)^(d-1) * (2N_t+1) * P * m, and real entries
# (2 MiB) of the Horner accumulator of a GridJet (it serves the values, then
# each angle's x-derivatives in turn), which runs in blocks of whole sheets
# (at least one).
_EVAL_BLOCK_ENTRIES = 1 << 18
# Real entries (2^21, 16 MiB) of derivative tables one GridJet keeps between
# calls.  Missing tables are synthesized in batches of at most this many real
# entries; tables past it serve the call that made them and are dropped.
_JET_TABLE_ENTRIES = 1 << 21
# Relative tolerance of the parity checks on fitted samples, per component
# against its largest coefficient or sample.
_FIT_TOL = 1e-6


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=None)
def action_powers(d: int, q_y: int) -> np.ndarray:
    """Multi-indices alpha with |alpha| <= q_y in graded lexicographic order.

    Returns a read-only integer array of shape (P, d), made once per (d, q_y).
    """
    if d < 1 or q_y < 0:
        raise ParameterError(f"need d >= 1 and q_y >= 0, got d={d}, q_y={q_y}")
    combos = [a for a in itertools.product(range(q_y + 1), repeat=d) if sum(a) <= q_y]
    combos.sort(key=lambda a: (sum(a), a))
    return _read_only(np.array(combos, dtype=int).reshape(len(combos), d))


def abs_order_grid(n_axes: int, N: int) -> np.ndarray:
    """Array of |k_1| + ... + |k_n| over an n_axes-fold mode grid."""
    k = np.abs(np.arange(-N, N + 1))
    total = np.zeros((), dtype=int)
    for _ in range(n_axes):
        total = total[..., None] + k
    return total


def mode_orders(d: int, N: int, N_t: int) -> np.ndarray:
    """|k|_1 + |l| over the (2N+1,)*d + (2N_t+1,) mode axes."""
    return abs_order_grid(d, N)[..., None] + np.abs(np.arange(-N_t, N_t + 1))


def mode_mask(d: int, N: int, N_t: int) -> np.ndarray:
    """Boolean array over the mode axes of mode_orders marking |k|_1 + |l| <= N."""
    return mode_orders(d, N, N_t) <= N


def _reverse_modes(coeffs: np.ndarray, d: int) -> np.ndarray:
    sl = tuple([slice(None, None, -1)] * (d + 1))
    return coeffs[sl]


def _finalize(coeffs: np.ndarray, d: int, parity: tuple, tol: float, what: str) -> np.ndarray:
    """Verify reality and the m parity tags up to ``tol`` and project exactly.

    Each component's deviations are relative to its own largest
    coefficient, so a small component of a stacked pair is held to its own
    scale, not to that of its largest neighbour.
    """
    scale = _peaks(np.abs(coeffs))

    def check(dev, i, fault):
        if dev > tol * scale[i]:
            raise StructureError(
                f"{what}: component {i} {fault} (relative deviation {dev / scale[i]:.3e})")

    rev = _reverse_modes(coeffs, d)
    for i, dev in enumerate(_peaks(np.abs(coeffs - np.conj(rev)))):
        check(dev, i, "violates reality symmetry")
    out = 0.5 * (coeffs + np.conj(rev))
    for i, tag in enumerate(parity):
        comp = out[..., i]
        if tag == "even":
            check(np.max(np.abs(comp.imag)), i, "not even")
            out[..., i] = comp.real
        elif tag == "odd":
            check(np.max(np.abs(comp.real)), i, "not odd")
            out[..., i] = 1j * comp.imag
    return out


def _peaks(a: np.ndarray) -> np.ndarray:
    """Per-component maxima of ``a``, components last, over a component-major copy."""
    m = a.shape[-1]
    return np.max(np.ascontiguousarray(a.reshape(-1, m).T), axis=1, initial=0.0)


def _tags(parity, m: int) -> tuple:
    """The m per-component parity tags, each "even", "odd" or None.

    None tags no component; anything but None or a sequence of m valid
    tags (a bare string too) raises ParameterError.
    """
    if parity is None:
        return (None,) * m
    if isinstance(parity, str) or len(parity) != m or any(t not in _FLIPPED for t in parity):
        raise ParameterError(f"parity needs {m} tags, each 'even', 'odd' or None, "
                             f"got {parity!r}")
    return tuple(parity)


@dataclass(frozen=True)
class FourierField:
    """Truncated vector-valued Fourier field; see module docstring.

    Parameters
    ----------
    coeffs : ndarray, complex
        Shape ``(2N+1,)*d + (2N_t+1,) + (P, m)``, the field's signature,
        read off once when the field is made: d equal odd angle axes give
        the mode cutoff N (coefficients vanish unless |k|_1 + |l| <= N),
        an odd time axis of at most 2N+1 the time cutoff :attr:`N_t` (N
        for forced flows, 0 for autonomous fields), P the action powers of
        total degree at most q_y, and m the components.
    r : float
        Action radius the field is intended to be used on.
    parity : tuple or None
        Per-component parity tags ("even", "odd" or None), m of them; None
        (the default) tags no component and is kept as (None,) * m.
    """

    coeffs: np.ndarray
    r: float
    parity: Optional[tuple] = None
    d: int = _dc_field(init=False)
    m: int = _dc_field(init=False)
    N: int = _dc_field(init=False)
    q_y: int = _dc_field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ParameterError(f"action radius must be finite and nonnegative, got {self.r}")
        shape = np.shape(self.coeffs)
        d, q_y = len(shape) - 3, 0
        N = shape[0] // 2 if d >= 1 else 0
        while d >= 1 and len(action_powers(d, q_y)) < shape[-2]:
            q_y += 1
        if (d < 1 or shape[:d] != (2 * N + 1,) * d or shape[d] % 2 == 0
                or shape[d] > 2 * N + 1 or len(action_powers(d, q_y)) != shape[-2]
                or shape[-1] < 1):
            raise ShapeError(
                f"coefficient array has shape {shape}, not (2N+1,)*d + (2N_t+1, P, m) with "
                "2N_t+1 <= 2N+1, P a count of action powers and m >= 1")
        if not np.iscomplexobj(self.coeffs):
            raise ShapeError("coefficient array must be complex")
        for name, value in zip(("d", "m", "N", "q_y", "parity"),
                               (d, shape[-1], N, q_y, _tags(self.parity, shape[-1]))):
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def zeros(cls, d: int, m: int, N: int, q_y: int = 0, r: float = 0.0,
              parity=None) -> "FourierField":
        P = len(action_powers(d, q_y))
        coeffs = np.zeros((2 * N + 1,) * (d + 1) + (P, m), dtype=complex)
        return cls(coeffs, r, parity)

    @property
    def N_t(self) -> int:
        """Time cutoff: coefficients vanish unless |l| <= N_t."""
        return self.coeffs.shape[self.d] // 2

    @property
    def powers(self) -> np.ndarray:
        return action_powers(self.d, self.q_y)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def _normalize_inputs(self, x, y, t):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0 or (x.ndim == 1 and self.d > 1 and x.shape == (self.d,))
        if x.ndim == 0:
            x = x.reshape(1, 1)
        elif x.ndim == 1:
            x = x.reshape(-1, 1) if self.d == 1 else x.reshape(1, self.d)
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ShapeError(f"angle samples must have shape (S, {self.d})")
        S = x.shape[0]
        if y is None:
            y = np.zeros((S, self.d))
        else:
            y = np.asarray(y, dtype=float)
            if y.ndim == 0:
                y = np.full((S, 1), float(y)) if self.d == 1 else None
                if y is None:
                    raise ShapeError("scalar action sample only valid for d = 1")
            elif y.ndim == 1:
                y = y.reshape(-1, 1) if self.d == 1 else np.broadcast_to(
                    y.reshape(1, self.d), (S, self.d)).copy()
            if y.shape != (S, self.d):
                raise ShapeError(f"action samples must have shape ({S}, {self.d})")
        if t is None:
            t = np.zeros(S)
        else:
            t = np.asarray(t, dtype=float)
            if t.ndim == 0:
                t = np.full(S, float(t))
            if t.shape != (S,):
                raise ShapeError(f"time samples must have shape ({S},)")
        return x, y, t, S, scalar

    def _check_domain(self, y: np.ndarray):
        if self.q_y == 0:
            return
        norms = np.sqrt(np.sum(y * y, axis=1))
        limit = self.r + max(1e-12, 1e-9 * self.r)
        if np.any(norms > limit):
            raise DomainError(
                f"action sample with |y| = {float(np.max(norms)):.6e} outside "
                f"radius r = {self.r:.6e}"
            )

    def evaluate_complex(self, x, y=None, t=None) -> np.ndarray:
        """Evaluate the (complex) trigonometric sum at samples.

        ``x`` has shape (S, d) (or (S,) when d = 1), ``y`` likewise, ``t``
        has shape (S,).  Returns an (S, m) array.  An action sample with
        |y| past the radius r raises DomainError.
        """
        x, y, t, S, scalar = self._normalize_inputs(x, y, t)
        self._check_domain(y)
        # Separable contraction: one GEMM over the first angle's modes, then
        # per remaining angle and the time axis a multiply by that axis's
        # exponential table and a sum, then the action powers.  Points run in
        # blocks so the GEMM output stays near _EVAL_BLOCK_ENTRIES entries.
        N = self.N
        sizes = self.coeffs.shape[: self.d + 1]
        flat = self.coeffs.reshape(sizes[0], -1)
        P = self.coeffs.shape[-2]
        block = max(1, _EVAL_BLOCK_ENTRIES // flat.shape[1])
        angles = np.concatenate([x, t[:, None]], axis=1)
        Y = _power_matrix(y, self.powers)
        out = np.empty((S, self.m), dtype=complex)
        for lo in range(0, S, block):
            hi = min(lo + block, S)
            # exp(i k a) for k = 0..N; the k < 0 half is its conjugate
            half = np.exp(1j * (angles[lo:hi, :, None] * np.arange(N + 1)))
            tables = np.concatenate([half[..., :0:-1].conj(), half], axis=2)
            acc = tables[:, 0] @ flat
            for a in range(1, self.d + 1):
                h = sizes[a] // 2
                acc = (tables[:, a, None, N - h:N + h + 1]
                       @ acc.reshape(hi - lo, sizes[a], -1))[:, 0]
            out[lo:hi] = np.einsum("spm,ps->sm", acc.reshape(hi - lo, P, self.m),
                                   Y[:, lo:hi])
        return out[0] if scalar else out

    def evaluate(self, x, y=None, t=None) -> np.ndarray:
        """Evaluate as a real field (the real part of the trigonometric sum)."""
        return self.evaluate_complex(x, y, t).real

    def values_on_grid(self, n: int) -> np.ndarray:
        """Synthesize the real field values on the uniform angle/time grid.

        Grid nodes are 2 pi j / n per axis; the time axis has n nodes, or
        the single node t = 0 when N_t = 0.  Returns a real array of shape
        ``(n,)*d + (n_t,) + (P, m)``: the real part of the trigonometric sum
        at every node and action power, the order-0 table of a
        :class:`GridJet` on the same grid.  n must be at least 2N+1.
        """
        table = self._order_zero_table(n)
        return np.ascontiguousarray(table.T).reshape(
            (n,) * self.d + (-1,) + self.coeffs.shape[-2:])

    def _order_zero_table(self, n: int) -> np.ndarray:
        """The power-major (P*m, nodes) table of values on the grid of ``values_on_grid``."""
        spectrum = _node_spectrum(self, n, n if self.N_t else 1)
        return _node_tables(spectrum, [(0,) * self.d], self.N, n, n)[0]

    def sup_norm(self) -> float:
        """Grid supremum of |F| over the real torus.

        The torus is sampled on ``max(64, 2N+1)`` points per axis and the
        action ball at 0 and +/- r along each axis; the maximum runs over
        those samples and the components.  :meth:`majorant` bounds it from
        above.
        """
        table = self._order_zero_table(max(64, 2 * self.N + 1))
        y_samples = np.zeros((1, self.d))
        if self.q_y > 0 and self.r > 0:
            axes = self.r * np.eye(self.d)
            y_samples = np.concatenate([y_samples, axes, -axes])
        Y = _power_matrix(y_samples, self.powers)
        pointwise = Y.T @ table.reshape(len(Y), -1)
        return float(np.max(np.abs(pointwise)))

    def majorant(self, r_eff: Optional[float] = None) -> float:
        """Coefficient majorant only (no grid sup); cheap convergence metric.

        Per component, the sum over modes and action powers of
        |c| r_eff^|alpha| (r_eff defaults to r); the maximum over components.
        """
        r_eff = self.r if r_eff is None else float(r_eff)
        if r_eff < 0:
            raise DomainError(f"action radius must be nonnegative, got {r_eff}")
        powers = self.powers
        deg = powers.sum(axis=1)
        rpow = np.where(deg > 0, r_eff ** deg, 1.0)
        A = np.abs(self.coeffs).reshape(-1, len(powers), self.m)
        return float(np.max(np.einsum("xpm,p->m", A, rpow)))

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #

    def _padded_to(self, N: int, q_y: int, N_t: int) -> np.ndarray:
        """Coefficients zero-padded to cutoffs N, N_t and power degree q_y."""
        P_out = len(action_powers(self.d, q_y))
        out = np.zeros((2 * N + 1,) * self.d + (2 * N_t + 1, P_out, self.m), dtype=complex)
        sl = _centre(self.d, N, N_t, self.N, self.N_t)
        # graded-lex order nests: powers of degree <= q_y keep their indices
        out[sl + (slice(0, self.coeffs.shape[self.d + 1]), slice(None))] = self.coeffs
        return out

    def __add__(self, other: "FourierField") -> "FourierField":
        if not isinstance(other, FourierField):
            return NotImplemented
        if other.d != self.d or other.m != self.m:
            raise ShapeError("can only add fields with matching d and m")
        N = max(self.N, other.N)
        q_y = max(self.q_y, other.q_y)
        N_t = max(self.N_t, other.N_t)
        coeffs = self._padded_to(N, q_y, N_t) + other._padded_to(N, q_y, N_t)
        parity = tuple(a if a == b else None for a, b in zip(self.parity, other.parity))
        return FourierField(coeffs, _combine_radius(self, other), parity)

    def __sub__(self, other: "FourierField") -> "FourierField":
        return self.__add__(other.scale(-1.0))

    def scale(self, c: float) -> "FourierField":
        return replace(self, coeffs=self.coeffs * float(c))

    def diff_x(self, j: int = 0) -> "FourierField":
        """Derivative in the j-th angle; flips parity."""
        if not 0 <= j < self.d:
            raise ParameterError(f"angle index {j} out of range for d = {self.d}")
        modes = 1j * np.arange(-self.N, self.N + 1)
        shape = [1] * self.coeffs.ndim
        shape[j] = 2 * self.N + 1
        coeffs = self.coeffs * modes.reshape(shape)
        return replace(self, coeffs=coeffs, parity=tuple(map(_FLIPPED.get, self.parity)))

    def diff_y(self, j: int = 0) -> "FourierField":
        """Derivative in the j-th action; preserves parity."""
        if not 0 <= j < self.d:
            raise ParameterError(f"action index {j} out of range for d = {self.d}")
        q_y = max(self.q_y - 1, 0)
        out_powers = action_powers(self.d, q_y)
        index_of = {tuple(a): i for i, a in enumerate(out_powers)}
        coeffs = np.zeros(self.coeffs.shape[: self.d + 1] + (len(out_powers), self.m),
                          dtype=complex)
        for i, a in enumerate(self.powers):
            if a[j] == 0:
                continue
            b = a.copy()
            b[j] -= 1
            coeffs[..., index_of[tuple(b)], :] += a[j] * self.coeffs[..., i, :]
        return replace(self, coeffs=coeffs)

    def truncate(self, N: int) -> "FourierField":
        """Drop modes above cutoff N."""
        N_new = min(int(N), self.N)
        N_t = min(self.N_t, N_new)
        coeffs = self.coeffs[_centre(self.d, self.N, self.N_t, N_new, N_t)].copy()
        coeffs[~mode_mask(self.d, N_new, N_t)] = 0.0
        return replace(self, coeffs=coeffs)

    def shift_x(self, delta) -> "FourierField":
        """The field (x, y, t) -> F(x + delta, y, t); parity tags are dropped."""
        delta = np.atleast_1d(np.asarray(delta, dtype=float))
        if delta.shape != (self.d,):
            raise ShapeError(f"shift must have shape ({self.d},)")
        coeffs = self.coeffs
        modes = np.arange(-self.N, self.N + 1)
        for a in range(self.d):
            shape = [1] * coeffs.ndim
            shape[a] = 2 * self.N + 1
            coeffs = coeffs * np.exp(1j * modes * delta[a]).reshape(shape)
        return replace(self, coeffs=coeffs, parity=None)

    # ------------------------------------------------------------------ #
    # mode access
    # ------------------------------------------------------------------ #

    def mode(self, k, l: int) -> np.ndarray:
        """Coefficient block c(k, l) of shape (P, m)."""
        k = np.atleast_1d(np.asarray(k, dtype=int))
        if k.shape != (self.d,):
            raise ShapeError(f"wave vector must have shape ({self.d},)")
        if np.any(np.abs(k) > self.N) or abs(l) > self.N_t:
            raise ShapeError(f"mode (k={tuple(k)}, l={l}) outside cutoffs "
                             f"N={self.N}, N_t={self.N_t}")
        idx = tuple(int(a) + self.N for a in k) + (int(l) + self.N_t,)
        return self.coeffs[idx]

    def zero_mode(self) -> np.ndarray:
        """The (k, l) = 0 coefficient block, shape (P, m)."""
        return self.mode(np.zeros(self.d, dtype=int), 0)

    def components(self, lo: int, hi: int) -> "FourierField":
        """Components lo..hi-1, with their tags, as a field of their own.

        Undoes :func:`stack_components`.
        """
        if not 0 <= lo < hi <= self.m:
            raise ShapeError(f"components {lo}..{hi - 1} outside 0..{self.m - 1}")
        return replace(self, coeffs=self.coeffs[..., lo:hi].copy(),
                       parity=self.parity[lo:hi])

    def oscillating_part(self) -> "FourierField":
        """Zero out the k = 0 modes, leaving the part that depends on the angles."""
        coeffs = self.coeffs.copy()
        sl = tuple([slice(self.N, self.N + 1)] * self.d) + (slice(None),)
        coeffs[sl] = 0.0
        return replace(self, coeffs=coeffs)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """Portable dict of the nonzero coefficients, deterministically ordered.

        Entries are sorted by (power, l, k), with power and k compared as
        lists; ``power`` is a bare int when d = 1.  A block holding NaN
        counts as nonzero, so a diverged field is written as it is and
        :meth:`from_dict` rejects it.  A field without tags writes
        ``"parity": null``.
        """
        d = self.d
        idx = np.nonzero((self.coeffs != 0).any(axis=-1))
        alpha = self.powers[idx[d + 1]]
        # np.lexsort sorts by its last key first
        order = np.lexsort((*idx[d - 1::-1], idx[d], *alpha.T[::-1]))
        idx = tuple(i[order] for i in idx)
        alpha = alpha[order]
        blocks = self.coeffs[idx]
        entries = [{"k": k, "l": l, "power": power, "re": re, "im": im}
                   for k, l, power, re, im in zip(
                       (np.stack(idx[:d], axis=-1) - self.N).tolist(),
                       (idx[d] - self.N_t).tolist(),
                       (alpha[:, 0] if d == 1 else alpha).tolist(),
                       blocks.real.astype(float).tolist(),
                       blocks.imag.astype(float).tolist())]
        return {
            "d": self.d,
            "m": self.m,
            "N": self.N,
            "N_t": self.N_t,
            "q_y": self.q_y,
            "r": float(self.r),
            "parity": list(self.parity) if any(self.parity) else None,
            "coeffs": entries,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FourierField":
        """Rebuild a field from :meth:`to_dict` output; validates structure.

        The coefficients are checked for reality and against the declared
        tags, per component within 1e-9 of its largest coefficient, and
        projected exactly onto them, so a hand-edited record cannot smuggle
        in a complex field or a broken parity.  A record without ``N_t``
        (written before fields had a time cutoff) loads with N_t = N.
        """
        try:
            d = int(data["d"])
            m = int(data["m"])
            N = int(data["N"])
            N_t = int(data.get("N_t", N))
            q_y = int(data["q_y"])
            r = float(data["r"])
            entries = data["coeffs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"malformed field record: {exc}") from exc
        for name, value, least in (("d", d, 1), ("m", m, 1), ("N", N, 0), ("q_y", q_y, 0)):
            if value < least:
                raise PersistenceError(f"field record has {name} = {value}, needs >= {least}")
        if not 0 <= N_t <= N:
            raise PersistenceError(f"time cutoff N_t={N_t} outside [0, N={N}]")
        powers = action_powers(d, q_y)
        index_of = {tuple(a): i for i, a in enumerate(powers)}
        coeffs = np.zeros((2 * N + 1,) * d + (2 * N_t + 1, len(powers), m), dtype=complex)
        for e in entries:
            try:
                k = [int(a) for a in e["k"]]
                l = int(e["l"])
                power = e["power"]
                alpha = (int(power),) if d == 1 and not isinstance(power, list) \
                    else tuple(int(a) for a in power)
                re = [float(v) for v in e["re"]]
                im = [float(v) for v in e["im"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise PersistenceError(f"malformed coefficient entry {e!r}") from exc
            if len(k) != d or len(re) != m or len(im) != m:
                raise PersistenceError(f"coefficient entry has wrong arity: {e!r}")
            if not all(map(math.isfinite, re + im)):
                raise PersistenceError(f"non-finite coefficient at k={k}, l={l}")
            if sum(abs(a) for a in k) + abs(l) > N or abs(l) > N_t:
                raise PersistenceError(
                    f"coefficient entry outside cutoffs N={N}, N_t={N_t}: k={k}, l={l}")
            if alpha not in index_of:
                raise PersistenceError(f"unknown action power {power!r}")
            idx = tuple(a + N for a in k) + (l + N_t, index_of[alpha])
            coeffs[idx] = np.array(re) + 1j * np.array(im)
        try:
            parity = _tags(data.get("parity"), m)
            coeffs = _finalize(coeffs, d, parity, 1e-9, "field record")
        except (ParameterError, StructureError, TypeError) as exc:
            raise PersistenceError(str(exc)) from exc
        return cls(coeffs, r, parity)


# ---------------------------------------------------------------------- #
# evaluation near grid nodes
# ---------------------------------------------------------------------- #


def taylor_order(h: float) -> int:
    """Smallest K >= 0 with h^(K+1) e^h / (K+1)! <= 2^-53.

    With h = N max |delta|_inf this bounds the error of the order-K Taylor
    polynomial of exp(i <k, delta>), |k|_1 <= N, so the angle Taylor series
    of a field with cutoff N errs by at most 2^-53 times its majorant.
    """
    if not math.isfinite(h) or h < 0:
        raise DomainError(f"Taylor radius must be finite and nonnegative, got {h}")
    K, term = 0, h * math.exp(h)
    while term > 2.0 ** -53:
        K += 1
        term *= h / (K + 1)
    return K


def _node_spectrum(field: FourierField, n: int, n_t: int) -> np.ndarray:
    """The field's angle spectrum at the n_t time nodes, made Hermitian.

    The grid must hold the field's modes: n >= 2N+1 nodes per angle axis,
    and n_t = n time nodes, or n_t = 1 when N_t = 0; any other grid raises
    ShapeError.  With G(k, t) the sum of the time modes at the nodes
    t = 2 pi j / n_t, H(k, t) = (G(k, t) + conj G(-k, t)) / 2 synthesizes,
    in the angles, to the real part of the field, and (ik)^alpha H(k, t)
    to that of its derivative d^alpha.  H is the time transform of the
    coefficients' Hermitian part (c(k, l) + conj c(-k, -l)) / 2, each time
    mode l placed at l mod n_t; only the wave numbers k = 0..N of the
    leading angle, the half the real synthesis of :func:`_node_tables`
    reads, are transformed.  Power-major, shape
    (P*m, N+1) + (2N+1,)*(d-1) + (n_t,).
    """
    d, c, N, N_t = field.d, field.coeffs, field.N, field.N_t
    if n < 2 * N + 1 or not (n_t == n or (n_t == 1 and N_t == 0)):
        raise ShapeError(f"a grid of {n} angle and {n_t} time nodes drops modes of "
                         f"cutoffs N = {N}, N_t = {N_t} (need n >= {2 * N + 1} and "
                         f"n_t = n, or n_t = 1 when N_t = 0)")
    herm = 0.5 * (c[N:] + np.conj(_reverse_modes(c, d)[N:]))
    herm = np.moveaxis(herm.reshape(herm.shape[:d + 1] + (-1,)), -1, 0)
    G = np.zeros(herm.shape[:-1] + (n_t,), dtype=complex)
    G[..., np.arange(-N_t, N_t + 1) % n_t] = herm
    return np.fft.ifft(G, axis=-1, norm="forward")


def _node_tables(spectrum: np.ndarray, alphas: list, N: int, n: int, rows: int) -> np.ndarray:
    """Real tables sum_k (ik)^alpha / alpha! H(k, t) e^(i <k, x>) at the nodes.

    ``spectrum`` is H from :func:`_node_spectrum`; the nodes are those of
    the first ``rows`` rows of the leading angle axis.  The weights of the
    other d-1 angle axes are applied once per distinct tail alpha[1:] of
    the alphas, each such axis holding its wave numbers k at k mod n on n
    points, the layout :func:`field_from_grid_samples` reads, and one
    complex inverse FFT over those axes follows (none when d = 1).  The
    leading angle axis, whose k = 0..N stand for the whole Hermitian range,
    is synthesized per alpha by one real product: the first ``rows`` rows
    of :func:`_synthesis_matrix`, weighted by (ik)^alpha_0 / alpha_0!,
    split into real and imaginary parts, against [Re H; Im H], batched
    over the P*m rows, or a single product when the other axes hold one
    node.  Shape
    (len(alphas), P*m, nodes): the P*m axis leads and each of its rows
    holds the nodes (rows,) + (n,)*(d-1) + (n_t,) in row-major order,
    contiguous.
    """
    d = len(alphas[0])
    k = np.arange(-N, N + 1)
    top = max(max(alpha) for alpha in alphas)
    # (ik)^e / e! for k = -N..N and order e
    powers = [(1j ** e / math.factorial(e)) * k.astype(float) ** e for e in range(top + 1)]
    tails = sorted({alpha[1:] for alpha in alphas})
    spec = spectrum[None]
    if d > 1:
        spec = np.zeros((len(tails),) + spectrum.shape[:2] + (n,) * (d - 1)
                        + spectrum.shape[-1:], dtype=complex)
        place = (slice(None),) * 2 + np.ix_(*[k % n] * (d - 1))
        for i, tail in enumerate(tails):
            weight = np.ones(())
            for e in tail:
                weight = np.multiply.outer(weight, powers[e])
            spec[i][place] = spectrum * weight[..., None]
        spec = np.fft.ifftn(spec, axes=tuple(range(3, d + 2)), norm="forward")
    # (tails, P*m, N+1, C), C = n^(d-1) n_t the nodes of one leading row
    spec = spec.reshape(spec.shape[:3] + (-1,))
    width, C = spec.shape[1], spec.shape[-1]
    # [Re H; Im H] along the wave numbers: (tails, P*m, 2(N+1), C)
    parts = np.concatenate([spec.real, spec.imag], axis=2)
    out = np.empty((len(alphas), width, rows, C))
    for i, alpha in enumerate(alphas):
        mat = _synthesis_matrix(n, N)[:rows] * powers[alpha[0]][N:]
        mat = np.concatenate([mat.real, -mat.imag], axis=1)
        part = parts[tails.index(alpha[1:])]
        if C == 1:  # one product for every row of P*m
            np.matmul(part.reshape(width, -1), np.ascontiguousarray(mat.T),
                      out=out[i].reshape(width, rows))
        else:
            np.matmul(mat, part, out=out[i])
    return out.reshape(len(alphas), width, -1)


@functools.lru_cache(maxsize=None)
def _synthesis_matrix(n: int, N: int) -> np.ndarray:
    """w_k e^(i k x_j) for the nodes x_j = 2 pi j / n and k = 0..N.

    w_0 = 1 and w_k = 2 otherwise, so the real parts of its rows against
    H(k), k = 0..N, give sum_k H(k) e^(i k x_j) over the Hermitian range
    |k| <= N: the real matrix with rows w_k cos(k x_j), then
    -w_k sin(k x_j), against [Re H; Im H].  Read-only, shape (n, N+1).
    """
    k = np.arange(N + 1)
    angle = (2.0 * np.pi / n) * (np.outer(np.arange(n), k) % n)
    return _read_only(np.where(k > 0, 2.0, 1.0) * np.exp(1j * angle))


class GridJet:
    """A field evaluated at grid nodes plus small angle offsets.

    The grid has nodes 2 pi j / n on each angle axis and ``n_t`` time nodes
    (n of them, or the single node t = 0), and must hold the field's modes:
    n >= 2N+1, and n_t = 1 only when N_t = 0; any other grid raises
    ShapeError.  The jet's nodes are those of the first ``rows`` rows j of
    the leading angle axis (all n by default), a prefix of the grid's
    row-major order.  Fewer than n rows must be more than n/2 and need a
    tag on every component (else ParameterError), as in the rows of
    :func:`fundamental_rows`.  ``evaluate(delta, y)`` takes one point per
    node, in the row-major order of ``values_on_grid``, repeated in as
    many consecutive sheets as the sample holds, and returns the real
    field at (node + delta, y, node time):

        F(x + delta, y, t) = sum_alpha  d^alpha F(x, y, t) / alpha!  delta^alpha.

    The time axis is transformed once, when the jet is made
    (:func:`_node_spectrum`).  The real tables d^alpha F / alpha! at the
    jet's nodes come per batch of multi-indices from :func:`_node_tables`:
    one complex inverse FFT over the angles after the first, each mode k
    at k mod n, as the fits read them, and one real product per
    multi-index over the jet's rows of the first angle.  Each table is
    power-major, (P*m, nodes): one contiguous row of nodes per action
    power and component.  The Taylor order K
    is set per call by :func:`taylor_order` from h = N max |delta|_inf
    (offsets are first re-anchored to their nearest node, so
    h <= pi N / n), which bounds the truncation by 2^-53 times the
    majorant; the tables a call lacks are added in one batch.  An offset
    re-anchored past the jet's rows reads a whole-grid table made for the
    call by the mirror rule (:meth:`_whole`).  Points run in blocks of
    whole sheets.  The sum runs by Horner in the first
    angle's offset over (P*m, sheets, nodes) accumulators, the offsets
    laid out (d, sheets, nodes), so every product runs along the nodes;
    the other angles enter as monomials.  The action powers of y are then
    contracted exactly, P multiply-adds per component, each written into
    its column of the (S, m) result.  The tables broadcast over the sheets;
    only re-anchored offsets gather rows of them.  At most
    _JET_TABLE_ENTRIES table entries are kept between calls, and one
    Horner accumulator of at most _EVAL_BLOCK_ENTRIES entries.

    :meth:`evaluate_with_gradient` adds the first derivatives in x and y
    from the same tables: those of orders up to K + 1 give d/dx at order
    K, and the Horner accumulator of the values gives d/dy.  So one jet of
    several fields stacked as components (:func:`stack_components`)
    serves all their values and derivatives.
    """

    def __init__(self, field: FourierField, n: int, n_t: int, rows: Optional[int] = None):
        self.field = field
        self.n = int(n)
        self.rows = self.n if rows is None else int(rows)
        self.max_order = 0
        self._grid = (self.n,) * field.d + (int(n_t),)
        self._shape = (self.rows,) + self._grid[1:]
        self._width = field.coeffs.shape[-2] * field.m
        self._spectrum = _node_spectrum(field, self.n, int(n_t))
        if not (self.n // 2 < self.rows <= self.n
                and (self.rows == self.n or None not in field.parity)):
            raise ParameterError(
                f"a jet on {self.rows} of {self.n} rows needs more than half of them, "
                f"and a parity tag on every component unless it has all of them")
        self._held = {}  # multi-index -> (P*m, nodes) table
        self._accumulator = None  # Horner's (P*m, sheets, nodes), kept between calls

    def evaluate(self, delta, y=None) -> np.ndarray:
        """Real field values at (node + delta, y), shape (S, m).

        ``delta`` and ``y`` have shape (S, d) (or (S,) when d = 1), S a
        multiple of the node count; a non-finite offset gives a non-finite
        value, as a scattered evaluation would.
        """
        return self._sums(delta, y, gradient=False)[0]

    def evaluate_with_gradient(self, delta, y) -> tuple:
        """Values and first derivatives at (node + delta, y).

        Returns (values, d_x, d_y): the values of :meth:`evaluate`, shape
        (S, m), and d_x[j] = dF/dx_j, d_y[j] = dF/dy_j, shape (d, S, m).
        At the Taylor order K of the values, d_x[j] sums
        (alpha_j + 1) T_(alpha + e_j) delta^alpha over |alpha| <= K from the
        tables of orders up to K + 1, and d_y[j] contracts the Horner
        accumulator of the values with the derivative in y_j of the action
        powers.
        """
        out = self._sums(delta, y, gradient=True)
        d = self.field.d
        return out[0], out[1:d + 1], out[d + 1:]

    def _sums(self, delta, y, gradient: bool) -> np.ndarray:
        """The values, then (with ``gradient``) d_x and d_y, shape (1 [+ 2d], S, m)."""
        f = self.field
        d = f.d
        delta, y, _, S, _ = f._normalize_inputs(delta, y, None)
        nodes = math.prod(self._shape)
        if S % nodes:
            raise ShapeError(f"{S} samples do not fill sheets of {nodes} grid nodes")
        spacing = 2.0 * np.pi / self.n
        shift = np.rint(delta / spacing)
        shift[~np.isfinite(shift)] = 0.0
        delta = delta - shift * spacing
        finite = np.isfinite(delta)
        K = taylor_order(f.N * float(np.max(np.abs(delta), initial=0.0, where=finite)))
        self.max_order = max(self.max_order, K)
        alphas = _multi_indices(d, K + 1 if gradient else K)
        tables = dict(zip(alphas, self._tables(alphas)))
        rows = None
        if shift.any():  # re-anchored rows index the whole grid
            idx = np.unravel_index(np.arange(S) % nodes, self._shape)
            rows = np.ravel_multi_index(
                tuple((idx[a] + shift[:, a].astype(int)) % self.n for a in range(d))
                + idx[d:], self._grid).reshape(-1, nodes)
            tables = {alpha: self._whole(alpha, table) for alpha, table in tables.items()}
        order_K = alphas[:len(_multi_indices(d, K))]  # graded: |alpha| <= K lead
        sums = [_by_first_index([(a, tables[a], 1.0) for a in order_K], K)]
        for j in range(d if gradient else 0):
            # d/d delta_j of sum T_a delta^a is sum (b_j + 1) T_(b + e_j) delta^b
            sums.append(_by_first_index([(b, tables[b[:j] + (b[j] + 1,) + b[j + 1:]], b[j] + 1.0)
                                         for b in order_K], K))
        powers = f.powers
        P, m = len(powers), f.m
        # the action powers y^alpha, then their derivatives alpha_j y^(alpha - e_j) in y_j
        weights = [_power_matrix(y, powers)] + [
            powers[:, j, None] * _power_matrix(y, np.maximum(powers - e, 0))
            for j, e in enumerate(np.eye(d, dtype=int) if gradient else [])]
        # (output, weights) per Horner sum: the values' sum gives the values and d_y
        uses = [[(0, weights[0])] + [(d + 1 + j, w) for j, w in enumerate(weights[1:])]]
        uses += [[(1 + j, weights[0])] for j in range(len(sums) - 1)]
        offsets = np.ascontiguousarray(delta.T).reshape(d, -1, nodes)
        out = np.empty((2 * len(sums) - 1, S, m))
        per_block = max(1, _EVAL_BLOCK_ENTRIES // (nodes * self._width))  # sheets
        sheets = min(per_block, len(offsets[0]))
        if self._accumulator is None or self._accumulator.shape[1] < sheets:
            self._accumulator = np.empty((self._width, sheets, nodes))
        for lo in range(0, len(offsets[0]), per_block):
            dl = offsets[:, lo:lo + per_block]
            sub = None if rows is None else rows[lo:lo + per_block]
            points = slice(lo * nodes, (lo + per_block) * nodes)
            for groups, pairs in zip(sums, uses):
                acc = _horner(groups, dl, sub, self._accumulator[:, :dl.shape[1]])
                for i, w in pairs:
                    _contract(acc.reshape(P, m, -1, nodes), w[:, points].reshape(P, -1, nodes),
                              out[i, points].reshape(-1, nodes, m))
        return out

    def _tables(self, alphas) -> list:
        """The (P*m, nodes) tables of ``alphas``, synthesizing the missing ones."""
        out = {alpha: self._held[alpha] for alpha in alphas if alpha in self._held}
        missing = [alpha for alpha in alphas if alpha not in out]
        per = math.prod(self._shape) * self._width
        batch = max(1, _JET_TABLE_ENTRIES // per)
        for lo in range(0, len(missing), batch):
            chunk = missing[lo:lo + batch]
            tables = _node_tables(self._spectrum, chunk, self.field.N, self.n, self.rows)
            made = dict(zip(chunk, tables))
            out.update(made)
            if len(self._held) * per + tables.size <= _JET_TABLE_ENTRIES:
                self._held.update(made)
        return [out[alpha] for alpha in alphas]

    def _whole(self, alpha: tuple, table: np.ndarray) -> np.ndarray:
        """The (P*m, nodes) table of ``alpha`` on the whole grid.

        The rows past :attr:`rows` are those of the mirror nodes, times
        sigma_c (-1)^|alpha|: d^alpha F(-x, y, -t) = sigma_c (-1)^|alpha|
        d^alpha F(x, y, t) for a component c tagged even (sigma_c = 1) or
        odd (sigma_c = -1).
        """
        if self.rows == self.n:
            return table
        sign = (-1.0) ** sum(alpha) * np.tile(_signs(self.field.parity), len(self.field.powers))
        half = table.reshape((len(table),) + self._shape)
        rest = _at_mirror(half, self.n, np.arange(self.rows, self.n), range(1, half.ndim))
        rest *= sign[(slice(None),) + (None,) * (half.ndim - 1)]
        return np.concatenate([half, rest], axis=1).reshape(len(table), -1)


def _signs(parity: tuple) -> np.ndarray:
    """sigma_c per component: 1 for an even tag, -1 for an odd one."""
    return np.array([{"even": 1.0, "odd": -1.0}[tag] for tag in parity])


def _at_mirror(a: np.ndarray, n: int, rows, axes) -> np.ndarray:
    """The values of ``a`` at the mirror nodes of the rows ``rows``.

    ``a`` holds the first rows of an n-node grid along its leading axis
    axes[0], and the other grid axes, ``axes[1:]``, whole.  Under
    (x, t) -> (-x, -t) the node (j, k', l) mirrors to (-j, -k', -l), each
    index modulo its axis; every -j mod n must be one of the rows ``a``
    holds.  The result has the layout of ``a`` with ``rows`` along axes[0].
    """
    out = np.take(a, -np.asarray(rows) % n, axis=axes[0])
    for ax in axes[1:]:
        size = a.shape[ax]
        out = np.take(out, -np.arange(size) % size, axis=ax)
    return out


def _horner(groups: list, dl: np.ndarray, rows, out: np.ndarray) -> np.ndarray:
    """sum_alpha weight_alpha * table_alpha * dl^alpha on one block of sheets.

    ``groups`` holds the (alpha, table, weight) entries by first index
    alpha_0 = K..0 (:func:`_by_first_index`); ``dl`` holds the offsets,
    shape (d, sheets, nodes).  Horner runs in the first angle's offset and
    the other angles enter as monomials.  The (P*m, nodes) tables broadcast
    over the sheets, or give the rows ``rows`` (sheets, nodes) where
    offsets were re-anchored.  Every product runs along the contiguous
    nodes.  The Horner steps accumulate in ``out``, shape (P*m, sheets,
    nodes); the result broadcasts to that shape and, at K = 0, may be a
    table itself.
    """
    mono = [dl[a] ** np.arange(len(groups))[:, None, None] for a in range(1, len(dl))]
    acc = None
    for i, group in enumerate(groups):
        part = None
        for alpha, table, weight in group:
            term = table[:, None] if rows is None else table[:, rows]
            if any(alpha[1:]):
                term = term * (weight * math.prod(mono[a][e]
                                                  for a, e in enumerate(alpha[1:]) if e))
                if part is not None:
                    term += part
            elif weight != 1.0:
                term = term * weight
            part = term
        if acc is None:
            acc = part
        else:
            acc = np.multiply(acc, dl[0], out=out)
            acc += part
    return acc


def _contract(acc: np.ndarray, weights: np.ndarray, out: np.ndarray) -> None:
    """out[..., c] = sum_p acc[p, c] * weights[p], the action powers contracted.

    ``acc`` has shape (P, m) + a shape that broadcasts to that of
    ``weights[p]``, (sheets, nodes); each component is P multiply-adds
    along the nodes, written into its column of ``out``, (sheets, nodes, m).
    """
    term = np.empty(weights.shape[1:])
    # a non-finite offset gives a non-finite accumulator, whose product
    # with a zero power is NaN: the value is non-finite either way
    with np.errstate(invalid="ignore"):
        for c in range(acc.shape[1]):
            col = out[..., c]
            np.multiply(acc[0, c], weights[0], out=col)
            for p in range(1, len(weights)):
                col += np.multiply(acc[p, c], weights[p], out=term)


def _by_first_index(entries: list, K: int) -> list:
    """Horner groups of (alpha, table, weight) entries, |alpha| <= K.

    One group per first index alpha_0 = K..0; the entries come in graded
    order, so (alpha_0, 0, ..., 0) leads its group.
    """
    return [[e for e in entries if e[0][0] == a0] for a0 in range(K, -1, -1)]


def _multi_indices(d: int, K: int) -> list:
    """Multi-indices alpha of length d with |alpha| <= K, graded order."""
    return [tuple(int(e) for e in a) for a in action_powers(d, K)]


# ---------------------------------------------------------------------- #
# free functions
# ---------------------------------------------------------------------- #


def _combine_radius(*parts: FourierField) -> float:
    """The smallest radius of the parts with action powers, else the largest one."""
    r = min((p.r for p in parts if p.q_y), default=None)
    return max(p.r for p in parts) if r is None else float(r)


def _centre(d: int, N_from: int, N_t_from: int, N: int, N_t: int) -> tuple:
    """Slices of the centred (2N+1,)*d + (2N_t+1,) block of wider mode axes."""
    return ((slice(N_from - N, N_from + N + 1),) * d
            + (slice(N_t_from - N_t, N_t_from + N_t + 1),))


def _power_matrix(y: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Y[p, s] = prod_a y[s, a]^powers[p, a], power-major: one row per action power."""
    out = np.ones((len(powers), y.shape[0]))
    for p, alpha in enumerate(powers):
        for a, e in enumerate(alpha):
            if e:
                out[p] *= y[:, a] ** int(e)
    return out


def field_from_grid_samples(values: np.ndarray, d: int, N: int, q_y: int, r: float,
                            parity=None) -> FourierField:
    """Fit a field to samples on (action nodes) x (angle/time grid).

    ``values`` holds real samples in sheets, one sheet of grid nodes per
    action node of :func:`default_action_nodes`, shape ``(n_y,) + (n,)*d +
    (n_t,) + (m,)``: the layout :class:`GridJet` reads.  The grid is
    2 pi j / n per angle axis with n >= 2N+1; n_t = n fits a time-dependent
    field (N_t = N), n_t = 1 (samples at t = 0) an autonomous one
    (N_t = 0).  The tensor grid of q_y+1 nodes per action axis determines
    the powers of total degree <= q_y.

    The action basis is solved first, on the real samples: one real
    product with :func:`_action_solver` takes the sheets to one real grid
    per power.  The least-squares solve and the grid FFT act on different
    axes, so they commute.  One FFT over the grid axes, real in the last
    angle, then gives the modes |k|_1 + |l| <= N: those with k_d >= 0 are
    read off, the others follow by reality, c(k, l) = conj c(-k, -l).
    Frequencies above N in the samples alias, so callers choose n large
    enough for their spectra.

    The power basis is fitted in the scaled action y / r, where every
    coefficient is of the size of the samples, so the reality and parity
    checks see one relative scale for all powers; the coefficients are
    divided by r^|alpha| afterwards.
    """
    values = np.asarray(values, dtype=float)
    _check_radius(q_y, r)
    solver = _action_solver(d, q_y)
    P, n_y = solver.shape
    n = values.shape[1] if values.ndim == d + 3 else 0
    if n < 2 * N + 1 or values.shape[:d + 1] != (n_y,) + (n,) * d \
            or values.shape[d + 1] not in (1, n):
        raise ShapeError(f"expected samples of shape ({n_y},) + (n,)*{d} + (1 or n, m) "
                         f"with n >= {2 * N + 1}, got {values.shape}")
    m, n_t = values.shape[-1], values.shape[d + 1]
    N_t = N if n_t > 1 else 0
    per_power = (solver @ values.reshape(n_y, -1)).reshape((P,) + values.shape[1:])
    # the real transform runs over the last angle axis, listed last
    spec = np.fft.rfftn(per_power, axes=(*range(1, d), d + 1, d), norm="forward")
    k, l = np.arange(-N, N + 1) % n, np.arange(-N_t, N_t + 1) % n_t
    half = spec[(slice(None),) + np.ix_(*[k] * (d - 1), np.arange(N + 1), l)]
    # k_d < 0: c(k', k_d, l) = conj c(-k', -k_d, -l), the reversed half without k_d = 0
    mirror = np.conj(half[(slice(None),) + (slice(None, None, -1),) * (d - 1)
                          + (slice(N, 0, -1), slice(None, None, -1))])
    modes = np.concatenate([mirror, half], axis=d)
    modes[:, ~mode_mask(d, N, N_t)] = 0.0
    parity = _tags(parity, m)
    coeffs = _finalize(np.moveaxis(modes, 0, -2), d, parity, _FIT_TOL, "fitted field")
    scale = float(r) if q_y else 1.0  # the largest |y| of the nodes
    coeffs /= (scale ** action_powers(d, q_y).sum(axis=1).astype(float))[:, None]
    return FourierField(coeffs, r, parity)


def fundamental_rows(n: int, parity) -> int:
    """Rows 0..R-1 of the leading angle axis that determine fields tagged ``parity``.

    When every tag is "even" or "odd", the involution (x, t) -> (-x, -t)
    takes each row j > n/2 of an n-node grid to the row n - j < n/2, so the
    rows j = 0..n//2 determine the field: R = n//2 + 1.  Otherwise R = n.
    """
    return n // 2 + 1 if all(tag in ("even", "odd") for tag in parity) else n


def unfold_samples(values: np.ndarray, n: int, parity) -> np.ndarray:
    """Samples on the whole grid from those on its first rows, by the parity tags.

    ``values`` has the layout :func:`field_from_grid_samples` reads, with
    the first R of the n rows of the leading angle axis: shape
    (n_y, R) + (n,)*(d-1) + (n_t, m).  R = n returns the samples as they
    are.  Otherwise every component must be tagged (else ParameterError),
    and row j >= R is filled with sigma_c times the samples at the mirror
    nodes (j, k', l) -> (-j, -k', -l), sigma_c = 1 for an even component
    and -1 for an odd one.  The rows that mirror onto themselves, j = 0 and
    for even n also j = n/2, hold both nodes of each mirror pair: they
    must agree per component within _FIT_TOL of its largest sample, as the
    fit's parity check would require, else StructureError.  A parity break
    whose wrong-parity part vanishes on those rows passes unseen, and the
    unfold folds it into the tagged parity.
    """
    R, m = values.shape[1], values.shape[-1]
    if R == n:
        return values
    parity = _tags(parity, m)
    if None in parity:
        raise ParameterError(f"samples on {R} of {n} rows need a parity tag on every "
                             f"component, got {parity}")
    axes = range(1, values.ndim - 1)
    selfs = [0, n // 2] if n % 2 == 0 else [0]
    dev = _peaks(np.abs(values[:, selfs] - _signs(parity) * _at_mirror(values, n, selfs, axes)))
    scale = _peaks(np.abs(values))
    for c in range(m):
        if dev[c] > _FIT_TOL * scale[c]:
            raise StructureError(f"mirrored samples: component {c} is not {parity[c]} on "
                                 f"the self-mirrored rows (relative deviation "
                                 f"{dev[c] / scale[c]:.3e})")
    out = np.empty(values.shape[:1] + (n,) + values.shape[2:])
    out[:, :R] = values
    out[:, R:] = _at_mirror(values, n, np.arange(R, n), axes)
    for c in range(m):  # odd components change sign: one strided negation each
        if parity[c] == "odd":
            np.negative(out[:, R:, ..., c], out=out[:, R:, ..., c])
    return out


@functools.lru_cache(maxsize=None)
def _action_solver(d: int, q_y: int) -> np.ndarray:
    """Least-squares solver of the action powers at the nodes of radius 1.

    The pseudo-inverse of the (n_y, P) matrix of the powers at
    ``default_action_nodes(d, q_y, 1.0)``, the transpose of
    :func:`_power_matrix` there: it takes the n_y samples at the nodes to
    the P coefficients of the powers in y / r.  Read-only, shape (P, n_y).
    """
    nodes = default_action_nodes(d, q_y, 1.0)
    return _read_only(np.linalg.pinv(_power_matrix(nodes, action_powers(d, q_y)).T))


def stack_components(*parts: FourierField) -> FourierField:
    """The fields' components side by side, as the components of one field.

    Cutoffs and power degree are the largest of the parts, whose
    coefficients are zero-padded to them; the radius is that of a sum
    (the smallest radius of the parts with action powers), and the parity
    tags are joined.  One :class:`GridJet` of the result evaluates all the
    parts at once.
    """
    N, N_t, q_y = (max(getattr(p, a) for p in parts) for a in ("N", "N_t", "q_y"))
    coeffs = np.concatenate([p._padded_to(N, q_y, N_t) for p in parts], axis=-1)
    return FourierField(coeffs, _combine_radius(*parts), sum((p.parity for p in parts), ()))


def default_action_nodes(d: int, q_y: int, r: float) -> np.ndarray:
    """Tensor grid of action fit nodes: q_y+1 equispaced points in [-r, r]."""
    if q_y == 0:
        return np.zeros((1, d))
    _check_radius(q_y, r)
    line = np.linspace(-r, r, q_y + 1)
    grids = np.meshgrid(*([line] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _check_radius(q_y: int, r: float) -> None:
    if q_y and not (math.isfinite(r) and r > 0):
        raise ParameterError(f"action powers q_y > 0 need a positive finite radius r, got {r}")


def field_from_function(fn: Callable, d: int, m: int, N: int, q_y: int = 0,
                        r: float = 0.0, parity=None,
                        time_independent: bool = False) -> FourierField:
    """Sample ``fn(x, y, t) -> (..., m)`` and fit a truncated field.

    The angle/time grid has 2N+2 points per axis; the action ball is
    sampled on a tensor grid of q_y+1 points per dimension.  ``fn`` is
    called once per action node, on every angle/time node at once: x of
    shape (S, d), y (S, d) and t (S,).
    With ``time_independent`` the function is sampled at t = 0 only and the
    result is an autonomous field (time cutoff N_t = 0).
    """
    if N < 0:
        raise ParameterError(f"mode cutoff must be nonnegative, got N = {N}")
    n = 2 * N + 2
    y_nodes = default_action_nodes(d, q_y, r)
    grid = 2.0 * np.pi * np.arange(n) / n
    axes = np.meshgrid(*([grid] * d), [0.0] if time_independent else grid, indexing="ij")
    x = np.stack([a.ravel() for a in axes[:d]], axis=-1)
    t = axes[d].ravel()
    S = len(t)
    values = np.empty((len(y_nodes), S, m), dtype=float)
    for iy, y in enumerate(y_nodes):  # one call per action node
        out = np.asarray(fn(x, np.broadcast_to(y, (S, d)), t), dtype=float)
        if out.size != S * m:
            raise ShapeError(f"function returned {out.size} values on {S} samples, "
                             f"expected {m} per sample")
        values[iy] = out.reshape(S, m)
    return field_from_grid_samples(values.reshape((len(y_nodes),) + axes[0].shape + (m,)),
                                   d, N, q_y, r, parity)


def harmonic_field(d: int, N: int, k, l: int, amplitude: float, kind: str = "cos",
                   q_y: int = 0, r: float = 0.0, power=None) -> FourierField:
    """A single real harmonic  amplitude * y^power * cos/sin(<k,x> + l t), m = 1."""
    if kind not in ("cos", "sin"):
        raise ParameterError(f"kind must be 'cos' or 'sin', got {kind!r}")
    k = np.atleast_1d(np.asarray(k, dtype=int))
    if k.shape != (d,):
        raise ShapeError(f"wave vector must have shape ({d},)")
    if np.sum(np.abs(k)) + abs(l) > N:
        raise ParameterError("harmonic outside the requested cutoff")
    powers = action_powers(d, q_y)
    alpha = tuple([0] * d) if power is None else tuple(
        (power,) if np.isscalar(power) else power)
    index_of = {tuple(a): i for i, a in enumerate(powers)}
    if alpha not in index_of:
        raise ParameterError(f"action power {alpha} exceeds q_y = {q_y}")
    field = FourierField.zeros(d, 1, N, q_y, r, ("even" if kind == "cos" else "odd",))
    half = amplitude / 2.0 if kind == "cos" else amplitude / 2.0j
    idx_p = tuple(int(a) + N for a in k) + (l + N, index_of[alpha], 0)
    idx_m = tuple(-int(a) + N for a in k) + (-l + N, index_of[alpha], 0)
    field.coeffs[idx_p] += half
    field.coeffs[idx_m] += np.conj(half)
    return field

