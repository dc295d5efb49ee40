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

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ParameterError, PersistenceError, ShapeError, StructureError

_PARITIES = ("even", "odd", None)
# Entries allowed in one point block: complex entries (2^18, 4 MiB) of the
# GEMM output in FourierField.evaluate_complex, where points per block = this
# // coefficient block width (2N+1)^(d-1) * (2N_t+1) * P * m, and real entries
# (2 MiB) of the Horner accumulator in GridJet.evaluate, which runs in blocks
# of whole sheets (at least one).
_EVAL_BLOCK_ENTRIES = 1 << 18
# Real entries (2^21, 16 MiB) of derivative tables one GridJet keeps between
# calls.  Missing tables are synthesized in batches of at most this many real
# entries; tables past it serve the call that made them and are dropped.
_JET_TABLE_ENTRIES = 1 << 21


def action_powers(d: int, q_y: int) -> np.ndarray:
    """Multi-indices alpha with |alpha| <= q_y in graded lexicographic order.

    Returns an integer array of shape (P, d).
    """
    if d < 1 or q_y < 0:
        raise ParameterError(f"need d >= 1 and q_y >= 0, got d={d}, q_y={q_y}")
    combos = [a for a in itertools.product(range(q_y + 1), repeat=d) if sum(a) <= q_y]
    combos.sort(key=lambda a: (sum(a), a))
    return np.array(combos, dtype=int).reshape(len(combos), d)


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


def _finalize(coeffs: np.ndarray, d: int, parity, tol: float = 1e-6,
              what: str = "field") -> np.ndarray:
    """Verify reality/parity up to ``tol`` (relative) and project exactly."""
    scale = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    if scale == 0.0:
        return coeffs.copy()
    rev = _reverse_modes(coeffs, d)
    dev = float(np.max(np.abs(coeffs - np.conj(rev))))
    if dev > tol * scale:
        raise StructureError(
            f"{what}: reality symmetry violated (relative deviation {dev / scale:.3e})"
        )
    out = 0.5 * (coeffs + np.conj(rev))
    if parity is not None:
        for i, tag in enumerate(parity):
            if tag is None:
                continue
            comp = out[..., i]
            if tag == "even":
                pdev = float(np.max(np.abs(comp.imag)))
                if pdev > tol * scale:
                    raise StructureError(
                        f"{what}: component {i} not even "
                        f"(relative deviation {pdev / scale:.3e})"
                    )
                out[..., i] = comp.real
            elif tag == "odd":
                pdev = float(np.max(np.abs(comp.real)))
                if pdev > tol * scale:
                    raise StructureError(
                        f"{what}: component {i} not odd "
                        f"(relative deviation {pdev / scale:.3e})"
                    )
                out[..., i] = 1j * comp.imag
            else:
                raise ParameterError(f"unknown parity tag {tag!r}")
    return out


def _flip_parity(tag):
    if tag == "even":
        return "odd"
    if tag == "odd":
        return "even"
    return None


@dataclass(frozen=True)
class FourierField:
    """Truncated vector-valued Fourier field; see module docstring.

    Parameters
    ----------
    d : int
        Number of angle (and action) dimensions.
    m : int
        Number of components.
    N : int
        Mode cutoff: coefficients vanish unless |k|_1 + |l| <= N.
    q_y : int
        Maximal total action power.
    r : float
        Action radius the field is intended to be used on.
    coeffs : ndarray, complex
        Shape ``(2N+1,)*d + (2N_t+1,) + (P, m)``; the length of the time
        axis sets the time cutoff :attr:`N_t` (N for forced flows, 0 for
        autonomous fields).
    parity : tuple or None
        Per-component parity tags ("even", "odd" or None).
    """

    d: int
    m: int
    N: int
    q_y: int
    r: float
    coeffs: np.ndarray
    parity: Optional[tuple] = None

    def __post_init__(self):
        if self.d < 1 or self.m < 1 or self.N < 0 or self.q_y < 0:
            raise ParameterError(
                f"invalid field signature d={self.d}, m={self.m}, "
                f"N={self.N}, q_y={self.q_y}"
            )
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ParameterError(f"action radius must be finite and nonnegative, got {self.r}")
        P = len(action_powers(self.d, self.q_y))
        shape = tuple(self.coeffs.shape)
        N_t = shape[self.d] // 2 if len(shape) == self.d + 3 else self.N
        want = (2 * self.N + 1,) * self.d + (2 * min(N_t, self.N) + 1, P, self.m)
        if shape != want:
            raise ShapeError(
                f"coefficient array has shape {shape}, expected {want} "
                "(time axis of odd length at most 2N+1)"
            )
        if not np.iscomplexobj(self.coeffs):
            raise ShapeError("coefficient array must be complex")
        if self.parity is not None:
            if len(self.parity) != self.m:
                raise ShapeError("parity tuple length must equal number of components")
            for tag in self.parity:
                if tag not in _PARITIES:
                    raise ParameterError(f"unknown parity tag {tag!r}")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def zeros(cls, d: int, m: int, N: int, q_y: int = 0, r: float = 0.0,
              parity=None) -> "FourierField":
        P = len(action_powers(d, q_y))
        coeffs = np.zeros((2 * N + 1,) * (d + 1) + (P, m), dtype=complex)
        return cls(d, m, N, q_y, r, coeffs, _as_parity(parity, m))

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

    def evaluate_complex(self, x, y=None, t=None, check_domain: bool = True) -> np.ndarray:
        """Evaluate the (complex) trigonometric sum at samples.

        ``x`` has shape (S, d) (or (S,) when d = 1), ``y`` likewise, ``t``
        has shape (S,).  Returns an (S, m) array.
        """
        x, y, t, S, scalar = self._normalize_inputs(x, y, t)
        if check_domain:
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
            out[lo:hi] = np.einsum("spm,sp->sm", acc.reshape(hi - lo, P, self.m),
                                   Y[lo:hi])
        return out[0] if scalar else out

    def evaluate(self, x, y=None, t=None, check_domain: bool = True) -> np.ndarray:
        """Evaluate as a real field (the real part of the trigonometric sum)."""
        return self.evaluate_complex(x, y, t, check_domain=check_domain).real

    def values_on_grid(self, n: int) -> np.ndarray:
        """Synthesize the real field values on the uniform angle/time grid.

        Grid nodes are 2 pi j / n per axis; the time axis has n nodes, or
        the single node t = 0 when N_t = 0.  Returns a real array of shape
        ``(n,)*d + (n_t,) + (P, m)``: the real part of the trigonometric sum
        at every node and action power, the order-0 table of a
        :class:`GridJet` on the same grid.  n must be at least 2N+1.
        """
        if n < 2 * self.N + 1:
            raise ShapeError(
                f"grid size {n} too small for cutoff N = {self.N} (need >= {2 * self.N + 1})"
            )
        spectrum = _node_spectrum(self, n, n if self.N_t else 1)
        return _node_tables(spectrum, [(0,) * self.d], self.N, n)[0]

    def sup_norm(self) -> float:
        """Grid supremum of |F| over the real torus.

        The torus is sampled on ``max(64, 2N+1)`` points per axis and the
        action ball at 0 and +/- r along each axis; the maximum runs over
        those samples and the components.  :meth:`majorant` bounds it from
        above.
        """
        vals = self.values_on_grid(max(64, 2 * self.N + 1))
        y_samples = [np.zeros(self.d)]
        if self.q_y > 0 and self.r > 0:
            for a in range(self.d):
                e = np.zeros(self.d)
                e[a] = self.r
                y_samples.extend([e, -e])
        powers = self.powers
        value = 0.0
        for ys in y_samples:
            w = np.prod(ys.reshape(1, self.d) ** powers, axis=1)
            pointwise = np.tensordot(vals, w, axes=([self.d + 1], [0]))
            value = max(value, float(np.max(np.abs(pointwise))))
        return value

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
        parity = _merge_parity(self.parity, other.parity, self.m)
        return FourierField(self.d, self.m, N, q_y, _combine_radius(self, other),
                            coeffs, parity)

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
        parity = None if self.parity is None else tuple(
            _flip_parity(p) for p in self.parity)
        return replace(self, coeffs=coeffs, parity=parity)

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
        return FourierField(self.d, self.m, self.N, q_y, self.r, coeffs, self.parity)

    def truncate(self, N: int) -> "FourierField":
        """Drop modes above cutoff N."""
        N_new = min(int(N), self.N)
        N_t = min(self.N_t, N_new)
        coeffs = self.coeffs[_centre(self.d, self.N, self.N_t, N_new, N_t)].copy()
        coeffs[~mode_mask(self.d, N_new, N_t)] = 0.0
        return FourierField(self.d, self.m, N_new, self.q_y, self.r, coeffs, self.parity)

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
        :meth:`from_dict` rejects it.
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
            "parity": None if self.parity is None else list(self.parity),
            "coeffs": entries,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FourierField":
        """Rebuild a field from :meth:`to_dict` output; validates structure.

        A record without ``N_t`` (written before fields had a time cutoff)
        loads with N_t = N.
        """
        try:
            d = int(data["d"])
            m = int(data["m"])
            N = int(data["N"])
            N_t = int(data.get("N_t", N))
            q_y = int(data["q_y"])
            r = float(data["r"])
            parity = data.get("parity")
            entries = data["coeffs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"malformed field record: {exc}") from exc
        if parity is not None:
            parity = tuple(parity)
            if len(parity) != m or any(p not in _PARITIES for p in parity):
                raise PersistenceError(f"malformed parity tags {parity!r}")
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
        # verify reality so a hand-edited file cannot smuggle in a complex field
        rev = _reverse_modes(coeffs, d)
        scale = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
        if scale > 0 and float(np.max(np.abs(coeffs - np.conj(rev)))) > 1e-9 * scale:
            raise PersistenceError("field record violates reality symmetry")
        return cls(d, m, N, q_y, r, coeffs, parity)


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


def _fold(a: np.ndarray, axis: int, k: np.ndarray, n: int, size: int) -> np.ndarray:
    """Sum the entries of ascending wave numbers ``k`` on ``axis`` mod n.

    Returns the residues 0..size-1 (size <= n) and drops entries whose
    residue lies past them.  At the nodes 2 pi j / n the folded sum equals
    the unfolded one, for any number of modes.
    """
    res = k % n
    out = np.zeros(a.shape[:axis] + (size,) + a.shape[axis + 1:], dtype=a.dtype)
    # runs of consecutive wave numbers with consecutive residues add as slices
    cuts = np.flatnonzero((np.diff(k) != 1) | (np.diff(res) != 1)) + 1
    for lo, hi in zip([0, *cuts], [*cuts, len(k)]):
        hi = min(hi, lo + size - int(res[lo]))
        if hi > lo:
            pre = (slice(None),) * axis
            out[pre + (slice(res[lo], res[lo] + hi - lo),)] += a[pre + (slice(lo, hi),)]
    return out


def _half_modes(N: int, n: int) -> np.ndarray:
    """Wave numbers -N..N whose residue mod n is at most n // 2."""
    k = np.arange(-N, N + 1)
    return k[k % n <= n // 2]


def _node_spectrum(field: FourierField, n: int, n_t: int) -> np.ndarray:
    """The field's angle spectrum at the n_t time nodes, made Hermitian.

    With G(k, t) the sum of the time modes at the nodes t = 2 pi j / n_t,
    H(k, t) = (G(k, t) + conj G(-k, t)) / 2 synthesizes, in the angles, to
    the real part of the field, and (ik)^alpha H(k, t) to that of its
    derivative d^alpha.  H is the time sum of the coefficients' Hermitian
    part (c(k, l) + conj c(-k, -l)) / 2, folded mod n_t, so only the wave
    numbers of the last angle that a real inverse FFT reads
    (:func:`_half_modes`) are transformed.  Shape (2N+1,)*(d-1) + (kept,) +
    (n_t, P, m).
    """
    d, c = field.d, field.coeffs
    half = (slice(None),) * (d - 1) + (_half_modes(field.N, n) + field.N,)
    herm = 0.5 * (c[half] + np.conj(_reverse_modes(c, d)[half]))
    G = _fold(herm, d, np.arange(-field.N_t, field.N_t + 1), n_t, n_t)
    return np.fft.ifft(G, axis=d, norm="forward")


def _node_tables(spectrum: np.ndarray, alphas: list, N: int, n: int) -> np.ndarray:
    """Real tables sum_k (ik)^alpha / alpha! H(k, t) e^(i <k, x>) at the nodes.

    ``spectrum`` is H from :func:`_node_spectrum`.  Every alpha is weighted
    in one batch, the angle axes are folded mod n (the last into its
    residues 0..n//2) and one real inverse FFT gives the tables, shape
    (len(alphas),) + (n,)*d + (n_t, P, m).
    """
    d = len(alphas[0])
    k = np.arange(-N, N + 1)
    half = _half_modes(N, n)
    top = max(max(alpha) for alpha in alphas)
    # (ik)^e / e! per angle axis and order e
    powers = [[(1j ** e / math.factorial(e)) * ka.astype(float) ** e for e in range(top + 1)]
              for ka in [k] * (d - 1) + [half]]
    spec = np.empty((len(alphas),) + spectrum.shape, dtype=complex)
    for i, alpha in enumerate(alphas):
        weight = np.ones(())
        for a, e in enumerate(alpha):
            weight = np.multiply.outer(weight, powers[a][e])
        np.multiply(spectrum, weight[..., None, None, None], out=spec[i])
    for axis in range(1, d):
        spec = _fold(spec, axis, k, n, n)
    spec = _fold(spec, d, half, n, n // 2 + 1)
    return np.fft.irfftn(spec, s=(n,) * d, axes=tuple(range(1, d + 1)), norm="forward")


class GridJet:
    """A field evaluated at grid nodes plus small angle offsets.

    The grid has nodes 2 pi j / n on each angle axis and ``n_t`` time nodes
    (n of them, or the single node t = 0).  ``evaluate(delta, y)`` takes one
    point per node, in the row-major order of ``values_on_grid``, repeated
    in as many consecutive sheets as the sample holds, and returns the real
    field at (node + delta, y, node time):

        F(x + delta, y, t) = sum_alpha  d^alpha F(x, y, t) / alpha!  delta^alpha.

    The time axis is transformed once, when the jet is made
    (:func:`_node_spectrum`).  The real tables d^alpha F / alpha! on the
    grid come from one real inverse FFT over the angles per batch of
    multi-indices, with modes folded mod n, so the node values are exact
    for any cutoff N.  The Taylor order K is set per call by
    :func:`taylor_order` from h = N max |delta|_inf (offsets are first
    re-anchored to their nearest node, so h <= pi N / n), which bounds the
    truncation by 2^-53 times the majorant; the tables a call lacks are
    added in one batch.  Points run in blocks of whole sheets.  The sum
    runs by Horner in the first angle's offset, the other angles enter as
    monomials, and the action powers of y are contracted exactly.  The
    tables broadcast over the sheets; only re-anchored offsets gather rows
    of them.  At most _JET_TABLE_ENTRIES table entries are kept between
    calls.
    """

    def __init__(self, field: FourierField, n: int, n_t: int):
        if n < 1 or n_t not in (1, n):
            raise ShapeError(f"grid needs n >= 1 and 1 or n time nodes, got n={n}, n_t={n_t}")
        self.field = field
        self.n = int(n)
        self.max_order = 0
        self._shape = (self.n,) * field.d + (int(n_t),)
        self._width = field.coeffs.shape[-2] * field.m
        self._spectrum = _node_spectrum(field, self.n, int(n_t))
        self._held = {}  # multi-index -> (nodes, P*m) table

    def evaluate(self, delta, y=None) -> np.ndarray:
        """Real field values at (node + delta, y), shape (S, m).

        ``delta`` and ``y`` have shape (S, d) (or (S,) when d = 1), S a
        multiple of the node count; a non-finite offset gives a non-finite
        value, as a scattered evaluation would.
        """
        f = self.field
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
        alphas = _multi_indices(f.d, K)
        tables = self._tables(alphas)
        groups = [[(alpha, table) for alpha, table in zip(alphas, tables) if alpha[0] == a0]
                  for a0 in range(K, -1, -1)]
        rows = None
        if shift.any():
            idx = np.unravel_index(np.arange(S) % nodes, self._shape)
            rows = np.ravel_multi_index(
                tuple((idx[a] + shift[:, a].astype(int)) % self.n for a in range(f.d))
                + idx[f.d:], self._shape)
        P = f.coeffs.shape[-2]
        out = np.empty((S, f.m))
        block = nodes * max(1, _EVAL_BLOCK_ENTRIES // (nodes * self._width))
        for lo in range(0, S, block):
            sheets = slice(lo, min(lo + block, S))
            dl = delta[sheets].reshape(-1, nodes, f.d)
            acc = _horner(groups, dl, None if rows is None else rows[sheets])
            Y = _power_matrix(y[sheets], f.powers).reshape(dl.shape[:2] + (P,))
            vals = np.einsum("...pm,...p->...m", acc.reshape(acc.shape[:-1] + (P, f.m)), Y)
            out[sheets] = vals.reshape(-1, f.m)
        return out

    def _tables(self, alphas) -> list:
        """The (nodes, P*m) tables of ``alphas``, synthesizing the missing ones."""
        out = {alpha: self._held[alpha] for alpha in alphas if alpha in self._held}
        missing = [alpha for alpha in alphas if alpha not in out]
        per = math.prod(self._shape) * self._width
        batch = max(1, _JET_TABLE_ENTRIES // per)
        for lo in range(0, len(missing), batch):
            chunk = missing[lo:lo + batch]
            tables = _node_tables(self._spectrum, chunk, self.field.N, self.n)
            made = dict(zip(chunk, tables.reshape(len(chunk), -1, self._width)))
            out.update(made)
            if len(self._held) * per + tables.size <= _JET_TABLE_ENTRIES:
                self._held.update(made)
        return [out[alpha] for alpha in alphas]


def _horner(groups: list, dl: np.ndarray, rows) -> np.ndarray:
    """sum_alpha table_alpha * dl^alpha on one block of sheets.

    ``groups`` holds the (alpha, table) pairs by first index alpha_0 = K..0,
    each in graded order, so (alpha_0, 0, ..., 0) leads its group; ``dl``
    holds the offsets, shape (sheets, nodes, d).  Horner runs in the first
    angle's offset and the other angles enter as monomials.  The
    (nodes, P*m) tables broadcast over the sheets, or give the rows
    ``rows`` where offsets were re-anchored.  The result broadcasts to
    (sheets, nodes, P*m) and may be a table itself.
    """
    mono = [dl[..., a:a + 1] ** np.arange(len(groups)) for a in range(1, dl.shape[-1])]
    acc = None
    for i, group in enumerate(groups):
        part = None
        for alpha, table in group:
            term = table if rows is None else table[rows].reshape(dl.shape[:2] + (-1,))
            if any(alpha[1:]):
                term = term * math.prod(mono[a][..., e:e + 1]
                                        for a, e in enumerate(alpha[1:]) if e)
                if part is not None:
                    term += part
            part = term
        if acc is None:
            acc = part
        else:  # the first product is a new array, never a table
            acc = np.multiply(acc, dl[..., :1], out=acc if i > 1 else None)
            acc += part
    return acc


def _multi_indices(d: int, K: int) -> list:
    """Multi-indices alpha of length d with |alpha| <= K, graded order."""
    return [tuple(int(e) for e in a) for a in action_powers(d, K)]


# ---------------------------------------------------------------------- #
# free functions
# ---------------------------------------------------------------------- #


def _as_parity(parity, m: int):
    if parity is None:
        return None
    if isinstance(parity, str):
        return (parity,) * m
    return tuple(parity)


def _merge_parity(p1, p2, m):
    if p1 is None or p2 is None:
        return None
    return tuple(a if a == b else None for a, b in zip(p1, p2))


def _combine_radius(f1: FourierField, f2: FourierField) -> float:
    eff1 = np.inf if f1.q_y == 0 else f1.r
    eff2 = np.inf if f2.q_y == 0 else f2.r
    r = min(eff1, eff2)
    return max(f1.r, f2.r) if np.isinf(r) else float(r)


def _centre(d: int, N_from: int, N_t_from: int, N: int, N_t: int) -> tuple:
    """Slices of the centred (2N+1,)*d + (2N_t+1,) block of wider mode axes."""
    return ((slice(N_from - N, N_from + N + 1),) * d
            + (slice(N_t_from - N_t, N_t_from + N_t + 1),))


def _power_matrix(y: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Y[s, p] = prod_a y[s, a]^powers[p, a]."""
    S = y.shape[0]
    out = np.ones((S, len(powers)))
    for p, alpha in enumerate(powers):
        for a, e in enumerate(alpha):
            if e:
                out[:, p] *= y[:, a] ** int(e)
    return out


def coeffs_from_samples(values: np.ndarray, d: int, N: int) -> np.ndarray:
    """Extract Fourier coefficients |k|+|l| <= N from uniform grid samples.

    ``values`` has shape ``(n,)*d + (n_t,) + trailing``; the grid is
    2 pi j / n per axis and must satisfy n >= 2N+1.  The time axis holds
    either the same n nodes (time cutoff N_t = N) or the single node t = 0
    (N_t = 0, an autonomous field); the result has shape
    ``(2N+1,)*d + (2N_t+1,) + trailing``.  Frequencies above N in the
    samples alias; callers choose n large enough for their spectra.
    """
    n = values.shape[0]
    if values.ndim < d + 1 or any(values.shape[a] != n for a in range(d)) \
            or values.shape[d] not in (1, n):
        raise ShapeError("grid samples need n nodes per angle axis and 1 or n time nodes")
    if n < 2 * N + 1:
        raise ShapeError(f"grid size {n} too small for cutoff N = {N}")
    n_t = values.shape[d]
    N_t = N if n_t > 1 else 0
    spec = np.fft.fftn(values, axes=tuple(range(d + 1))) / (float(n) ** d * n_t)
    idx = np.arange(-N, N + 1) % n
    coeffs = spec[np.ix_(*([idx] * d), np.arange(-N_t, N_t + 1) % n_t)]
    out = np.ascontiguousarray(coeffs)
    out[~mode_mask(d, N, N_t)] = 0.0
    return out


def field_from_grid_samples(values: np.ndarray, d: int, N: int, q_y: int, r: float,
                            y_nodes: Optional[np.ndarray] = None,
                            parity=None) -> FourierField:
    """Fit a field to samples on (angle/time grid) x (action nodes).

    ``values`` has shape ``(n,)*d + (n_t,) + (n_y, m)`` with real entries;
    n_t = n fits a time-dependent field (N_t = N), n_t = 1 (samples at
    t = 0) an autonomous one (N_t = 0).  The action nodes (``y_nodes``,
    shape (n_y, d)) must determine polynomials of total degree q_y.  When
    q_y = 0 the action axis may be omitted from ``y_nodes`` (n_y must be 1).

    The power basis is fitted in the scaled action y / max|y_nodes|, where
    every coefficient is of the size of the samples, so the reality and
    parity checks see one relative scale for all powers; the coefficients
    are divided by scale^|alpha| afterwards.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != d + 3:
        raise ShapeError(
            f"expected samples of shape (n,)*{d} + (n_t, n_y, m), got {values.shape}")
    n_y, m = values.shape[d + 1], values.shape[d + 2]
    powers = action_powers(d, q_y)
    scale = 1.0
    if q_y == 0:
        if n_y != 1:
            raise ShapeError("q_y = 0 requires a single action node")
        V = np.ones((1, 1))
    else:
        if y_nodes is None:
            raise ParameterError("action nodes are required when q_y > 0")
        y_nodes = np.asarray(y_nodes, dtype=float).reshape(n_y, d)
        scale = float(np.max(np.abs(y_nodes))) or 1.0
        V = _power_matrix(y_nodes / scale, powers)
        if np.linalg.matrix_rank(V) < len(powers):
            raise ParameterError("action nodes do not determine the power basis")
    modes = coeffs_from_samples(values, d, N)          # (...modes..., n_y, m)
    flat = modes.reshape(-1, n_y, m)
    B = np.moveaxis(flat, 1, 0).reshape(n_y, -1)       # (n_y, modes*m)
    C = np.linalg.lstsq(V, B, rcond=None)[0]           # (P, modes*m)
    C = np.moveaxis(C.reshape(len(powers), flat.shape[0], m), 0, 1)
    coeffs = C.reshape(modes.shape[: d + 1] + (len(powers), m))
    parity = _as_parity(parity, m)
    coeffs = _finalize(coeffs, d, parity, what="fitted field")
    coeffs /= (scale ** powers.sum(axis=1).astype(float))[:, None]
    coeffs[~mode_mask(d, N, coeffs.shape[d] // 2)] = 0.0
    return FourierField(d, m, N, q_y, r, coeffs, parity)


def default_action_nodes(d: int, q_y: int, r: float) -> np.ndarray:
    """Tensor grid of action fit nodes: q_y+1 equispaced points in [-r, r]."""
    if q_y == 0:
        return np.zeros((1, d))
    if not (math.isfinite(r) and r > 0):
        raise ParameterError(f"action powers q_y > 0 need a positive finite radius r, got {r}")
    line = np.linspace(-r, r, q_y + 1)
    grids = np.meshgrid(*([line] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def field_from_function(fn: Callable, d: int, m: int, N: int, q_y: int = 0,
                        r: float = 0.0, parity=None,
                        time_independent: bool = False) -> FourierField:
    """Sample ``fn(x, y, t) -> (..., m)`` and fit a truncated field.

    The angle/time grid has 2N+2 points per axis; the action ball is
    sampled on a tensor grid of q_y+1 points per dimension.
    With ``time_independent`` the function is sampled at t = 0 only and the
    result is an autonomous field (time cutoff N_t = 0).
    """
    if N < 0:
        raise ParameterError(f"mode cutoff must be nonnegative, got N = {N}")
    n = 2 * N + 2
    y_nodes = default_action_nodes(d, q_y, r)
    n_y = len(y_nodes)
    grid = 2.0 * np.pi * np.arange(n) / n
    axes = np.meshgrid(*([grid] * d), indexing="ij")
    x_flat = np.stack([a.ravel() for a in axes], axis=-1) if d else None
    S = n ** d
    t_values = [0.0] if time_independent else grid
    values = np.empty((n,) * d + (len(t_values), n_y, m), dtype=float)
    for it, t in enumerate(t_values):
        for iy in range(n_y):
            y = np.broadcast_to(y_nodes[iy], (S, d))
            out = np.asarray(fn(x_flat, y, np.full(S, t)), dtype=float)
            if out.size != S * m:
                raise ShapeError(f"function returned {out.size} values on {S} samples, "
                                 f"expected {m} per sample")
            out = out.reshape((n,) * d + (m,))
            sl = (slice(None),) * d + (it, iy, slice(None))
            values[sl] = out
    return field_from_grid_samples(values, d, N, q_y, r, y_nodes, parity)


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
    field = FourierField.zeros(d, 1, N, q_y, r, "even" if kind == "cos" else "odd")
    half = amplitude / 2.0 if kind == "cos" else amplitude / 2.0j
    idx_p = tuple(int(a) + N for a in k) + (l + N, index_of[alpha], 0)
    idx_m = tuple(-int(a) + N for a in k) + (-l + N, index_of[alpha], 0)
    field.coeffs[idx_p] += half
    field.coeffs[idx_m] += np.conj(half)
    return field


def project_structure(field: FourierField, tol: float = 1e-6) -> FourierField:
    """Verify reality/parity up to ``tol`` and project exactly onto them."""
    coeffs = _finalize(field.coeffs, field.d, field.parity, tol=tol,
                       what="projected field")
    return replace(field, coeffs=coeffs)
